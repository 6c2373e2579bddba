"""Deterministic fault injection for the transport layer.

The reproduction's robustness claims (client retry, pool hygiene,
metaserver liveness) need *induced* failures, not just observed ones,
and they need the same failure sequence on every run.  Three pieces
provide that:

- :class:`FaultPlan` -- a seeded schedule of fault events.  Every
  transport operation (``dial``, ``send``, ``recv``) asks the plan
  whether it should fail; decisions come from one injected
  ``random.Random``, so the same seed driven through the same operation
  sequence produces a byte-identical schedule (``plan.schedule()``).
- :class:`FaultStep` -- what one operation does, from
  :meth:`FaultPlan.step`: delay a frame, truncate it mid-write, corrupt
  a byte where the medium's frame check looks (so the other side
  rejects the frame), drop the connection before or after a send, or
  refuse a dial.
- :class:`FaultyChannel` -- a :class:`~repro.transport.channel.Channel`
  that applies the steps: it only sleeps and writes.

Plans are injectable at the three places a channel is born, so no call
site changes to come under test:

- :func:`FaultPlan.connector` wraps :func:`repro.transport.connect`
  (dial-time faults plus a faulty channel);
- ``ConnectionPool(fault_plan=...)`` uses that connector for every
  checkout;
- ``Endpoint(fault_plan=...)`` wraps each accepted connection, so
  *server-side* faults (a delayed or corrupted reply) are reachable
  too.

Emitted metrics (see OBSERVABILITY.md for the full conventions): a
plan attached to a pool or endpoint inherits its owner's
:class:`~repro.obs.MetricsRegistry` and counts every injected event in
``ninf_faults_injected_total{kind=...}``; the victims of those events
surface on the observing side as ``ninf_client_faults_seen_total``
(client) and retry activity in ``ninf_retry_*`` / ``ninf_client_retries_total``.
The plan's own ``events``/``injected``/``schedule()`` remain the
deterministic, seed-aligned record the chaos tests compare.
"""

from __future__ import annotations

import random
import socket
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.protocol.errors import ConnectionClosed
from repro.protocol.framing import HEADER, BytesLike, header_crc, \
    table_size
from repro.transport.channel import _DEFAULT, Channel, _Unset, connect

__all__ = [
    "CORRUPT",
    "DELAY",
    "DROP_POST",
    "DROP_PRE",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultStep",
    "FaultyChannel",
    "PartitionMap",
    "REFUSE_DIAL",
    "TRUNCATE",
]

#: A partition endpoint: a ``(host, port)`` address, a string label
#: (a plan's ``src`` identity), or ``"*"`` (every endpoint).
PartitionEnd = Union[str, tuple[str, int]]


class PartitionMap:
    """A deterministic, directional link-drop table (DESIGN.md §3.7).

    Unlike the probabilistic :class:`FaultPlan` schedule, a partition
    is *state*, not a draw: while the directed edge ``src -> dst`` is
    blocked, every dial and every frame on a matching channel fails,
    deterministically and without consuming any of the plan's RNG --
    so a chaos seed replays the identical fault schedule whether or
    not a partition is active.

    ``src`` is the label a :class:`FaultPlan` was constructed with
    (``FaultPlan(partitions=pmap, src="client-1")``); ``dst`` is the
    ``(host, port)`` being dialed (or the channel's ``remote``).
    ``"*"`` wildcards either side.  Directionality matters: blocking
    ``A -> B`` leaves ``B -> A`` intact, modelling the asymmetric
    (gray) partitions WAN links actually produce.

    Thread-safe; shared by every plan participating in a scenario.
    Drops are counted per edge in :attr:`drops` and, when the plan has
    a registry attached, in ``ninf_faults_partition_drops_total``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocked: set[tuple[PartitionEnd, PartitionEnd]] = set()
        self.drops: dict[tuple[PartitionEnd, PartitionEnd], int] = {}

    def block(self, src: PartitionEnd, dst: PartitionEnd) -> None:
        """Drop the directed edge ``src -> dst``."""
        with self._lock:
            self._blocked.add((src, dst))

    def unblock(self, src: PartitionEnd, dst: PartitionEnd) -> None:
        """Heal the directed edge ``src -> dst`` (idempotent)."""
        with self._lock:
            self._blocked.discard((src, dst))

    def isolate(self, end: PartitionEnd) -> None:
        """Cut ``end`` off in both directions (``end -> *``, ``* -> end``)."""
        with self._lock:
            self._blocked.add((end, "*"))
            self._blocked.add(("*", end))

    def heal(self) -> None:
        """Remove every blocked edge."""
        with self._lock:
            self._blocked.clear()

    def is_blocked(self, src: PartitionEnd, dst: PartitionEnd) -> bool:
        """Whether traffic ``src -> dst`` is currently dropped."""
        with self._lock:
            if not self._blocked:
                return False
            return bool({(src, dst), (src, "*"), ("*", dst), ("*", "*")}
                        & self._blocked)

    def record_drop(self, src: PartitionEnd, dst: PartitionEnd) -> None:
        """Count one dropped operation on ``src -> dst``."""
        with self._lock:
            self.drops[(src, dst)] = self.drops.get((src, dst), 0) + 1

    @property
    def drops_total(self) -> int:
        with self._lock:
            return sum(self.drops.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"<PartitionMap blocked={sorted(map(str, self._blocked))} "
                    f"drops={sum(self.drops.values())}>")

# Fault kinds.  Names describe what happens to the operation they hit.
DELAY = "delay"              # sleep before the operation proceeds
TRUNCATE = "truncate"        # write only a prefix of the frame, then drop
CORRUPT = "corrupt"          # flip one byte of the frame on the wire
DROP_PRE = "drop_pre"        # drop the connection before the operation
DROP_POST = "drop_post"      # complete the write, then drop the connection
REFUSE_DIAL = "refuse_dial"  # the dial itself is refused

FAULT_KINDS = (DELAY, TRUNCATE, CORRUPT, DROP_PRE, DROP_POST, REFUSE_DIAL)

# Which kinds make sense at which operation.
_APPLICABLE = {
    "dial": (REFUSE_DIAL, DELAY),
    "send": (DELAY, TRUNCATE, CORRUPT, DROP_PRE, DROP_POST),
    "recv": (DELAY, DROP_PRE),
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``ratio`` in [0, 1) positions byte-level faults (truncation point,
    corruption offset) relative to the frame the event lands on, so the
    schedule is frame-size independent and still fully deterministic.
    """

    seq: int
    op: str
    kind: str
    delay: float
    ratio: float

    def describe(self) -> str:
        """Canonical one-line form; the determinism tests compare these."""
        return (f"#{self.seq} {self.op} {self.kind} "
                f"delay={self.delay:.6f} ratio={self.ratio:.6f}")


@dataclass(frozen=True)
class FaultStep:
    """What one dial, send or recv does under a plan, in this order:
    sleep ``delay`` seconds; then perform the operation (``clean``), or
    write ``data`` instead -- pre-framed bytes, for a send -- or do
    nothing; then close the connection if ``drop``; then raise
    ``error`` if set.  A clean step never drops or raises."""

    delay: float = 0.0
    clean: bool = True
    data: Optional[bytes] = None
    drop: bool = False
    error: Optional[BaseException] = None

    def settle(self, close: Optional[Callable[[], None]] = None) -> None:
        """The step's tail: ``close()`` the connection, then raise, as
        asked (a dial has no connection to close)."""
        if self.drop and close is not None:
            close()
        if self.error is not None:
            raise self.error


def _failed(op: str, message: str) -> FaultStep:
    """An operation that fails before it starts: a dial is refused; a
    send (reset) or a recv (closed) drops its connection first."""
    if op == "dial":
        return FaultStep(clean=False, error=ConnectionRefusedError(message))
    return FaultStep(clean=False, drop=True, error=(
        ConnectionResetError(message) if op == "send"
        else ConnectionClosed(message)))


class FaultPlan:
    """A seeded, deterministic schedule of transport faults.

    Parameters
    ----------
    seed:
        Seeds the plan's private ``random.Random``; two plans with the
        same seed driven through the same operation sequence inject
        byte-identical fault schedules.
    rate:
        Probability that any one transport operation faults.
    kinds:
        Fault kinds to draw from (default: all of :data:`FAULT_KINDS`);
        only kinds applicable to the faulting operation are considered.
    max_faults:
        Stop injecting after this many events (``None`` = unlimited) --
        the way tests force "exactly one fault, then clean".
    delay_range:
        ``(lo, hi)`` seconds for :data:`DELAY` events.
    """

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 kinds: Optional[tuple[str, ...]] = None,
                 max_faults: Optional[int] = None,
                 delay_range: tuple[float, float] = (0.01, 0.05),
                 partitions: Optional[PartitionMap] = None,
                 src: PartitionEnd = "client") -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        for kind in kinds or ():
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds) if kinds is not None else FAULT_KINDS
        self.max_faults = max_faults
        self.delay_range = delay_range
        # Partition injection (deterministic, state-based): this plan
        # participates as endpoint `src`; dials and channel I/O check
        # the shared map before any RNG draw, so seeded schedules stay
        # aligned whether or not a partition is active.
        self.partitions = partitions
        self.src = src
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []
        self.ops_seen = 0
        self.injected: dict[str, int] = {}
        # Set by the ConnectionPool/Endpoint the plan is attached to, so
        # injected faults appear in that process's metric snapshot as
        # ninf_faults_injected_total{kind=...} (OBSERVABILITY.md).
        self.metrics = None

    # -- the draw ------------------------------------------------------------

    def draw(self, op: str) -> Optional[FaultEvent]:
        """Decide whether the next ``op`` faults; record the event if so.

        Exactly one ``random()`` is consumed for a clean operation and
        three more for a faulting one, so schedules from equal seeds
        stay aligned however the draws resolve.
        """
        applicable = [k for k in self.kinds if k in _APPLICABLE[op]]
        with self._lock:
            self.ops_seen += 1
            if (self.max_faults is not None
                    and len(self.events) >= self.max_faults):
                return None
            if self._rng.random() >= self.rate or not applicable:
                return None
            kind = applicable[self._rng.randrange(len(applicable))]
            delay = self._rng.uniform(*self.delay_range)
            ratio = self._rng.random()
            event = FaultEvent(seq=len(self.events) + 1, op=op, kind=kind,
                               delay=delay, ratio=ratio)
            self.events.append(event)
            self.injected[kind] = self.injected.get(kind, 0) + 1
        registry = self.metrics
        if registry is not None:
            from repro.obs import names

            registry.counter(names.FAULTS_INJECTED,
                             "Transport faults injected by a FaultPlan",
                             labelnames=("kind",)).inc(kind=kind)
        return event

    def partition_drop(self, dst: Union[str, tuple[str, int], None]) -> bool:
        """Whether the edge ``self.src -> dst`` is partitioned away.

        Counts the drop (per-edge in the map, and in
        ``ninf_faults_partition_drops_total`` when a registry is
        attached) when it is.  Consumes no RNG: partition state never
        perturbs the seeded fault schedule.
        """
        if self.partitions is None or dst is None:
            return False
        if not self.partitions.is_blocked(self.src, dst):
            return False
        self.partitions.record_drop(self.src, dst)
        registry = self.metrics
        if registry is not None:
            from repro.obs import names

            registry.counter(
                names.FAULTS_PARTITION_DROPS,
                "Operations dropped by an injected network partition",
            ).inc()
        return True

    def step(self, op: str, remote: Union[tuple[str, int], None],
             frame: Optional[Callable[[], bytes]] = None) -> FaultStep:
        """The :class:`FaultStep` for the next ``op`` on a connection to
        ``remote``: the one fault rule a faulty channel applies.

        A partitioned edge fails the operation before any draw; else
        one :meth:`draw` decides.  ``frame`` (sends only) builds the
        bytes a clean send would write, framed by the medium's own
        codec; it is called only for the kinds that write something
        else -- a prefix (truncate), a flipped byte (corrupt), or the
        frame itself ahead of the drop (drop_post).
        """
        where = (f"{remote[0]}:{remote[1]}" if op == "dial" and remote
                 else remote)
        if self.partition_drop(remote):
            return _failed(op, f"[partition] {self.src} -> {where} is blocked")
        event = self.draw(op)
        if event is None:
            return FaultStep()
        if event.kind == DELAY:
            return FaultStep(delay=event.delay)
        tag = f"[fault #{event.seq}]"
        if event.kind == REFUSE_DIAL:
            return _failed(op, f"{tag} dial to {where} refused")
        if event.kind == DROP_PRE:
            return _failed(op, f"{tag} connection dropped before {op}")
        assert frame is not None, f"{event.kind} applies to sends only"
        data = frame()
        if event.kind == TRUNCATE:
            cut = max(1, min(len(data) - 1, int(event.ratio * len(data))))
            return FaultStep(clean=False, data=data[:cut], drop=True,
                             error=ConnectionClosed(
                                 f"{tag} frame truncated after "
                                 f"{cut}/{len(data)} bytes"))
        if event.kind == CORRUPT:
            return FaultStep(clean=False, data=_corrupt(data, event.ratio))
        return FaultStep(clean=False, data=data, drop=True)  # DROP_POST

    @property
    def faults_injected(self) -> int:
        with self._lock:
            return len(self.events)

    def schedule(self) -> list[str]:
        """The injected schedule so far, one canonical line per event."""
        with self._lock:
            return [event.describe() for event in self.events]

    # -- channel factories ---------------------------------------------------

    def wrap(self, channel: Channel) -> "FaultyChannel":
        """Adopt ``channel``'s socket into a fault-injecting channel."""
        if isinstance(channel, FaultyChannel) and channel.plan is self:
            return channel
        faulty = FaultyChannel(channel.sock, self, timeout=channel.timeout,
                               remote=channel.remote)
        # Keep any shm medium negotiated before wrapping: faults must
        # land on the same bytes the clean channel would have sent.
        faulty._io = channel._io
        return faulty

    def connector(self, host: str, port: int,
                  timeout: Optional[float] = None,
                  connect_timeout: Optional[float] = None,
                  shm: bool = False) -> "FaultyChannel":
        """Drop-in for :func:`repro.transport.connect` with dial faults.

        Signature-compatible with ``ConnectionPool``'s ``connector``
        parameter, which is how a plan reaches every pooled checkout.
        The shm handshake (when ``shm`` offers one) runs *before*
        wrapping and consumes no fault draws, so chaos schedules stay
        aligned whether or not the channel upgrades.
        """
        step = self.step("dial", (host, port))
        if step.delay:
            time.sleep(step.delay)
        step.settle()
        return self.wrap(connect(host, port, timeout=timeout,
                                 connect_timeout=connect_timeout, shm=shm))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultPlan seed={self.seed} rate={self.rate} "
                f"injected={self.faults_injected}>")


class FaultyChannel(Channel):
    """A :class:`Channel` whose send/recv paths apply a plan's steps.

    What the *calling* side observes, kind by kind (:meth:`FaultPlan.step`):

    - ``delay``: the operation sleeps, then proceeds normally.
    - ``truncate`` (send): a prefix of the frame is written, the socket
      is closed, and :class:`ConnectionClosed` is raised; the peer sees
      the stream end mid-frame.
    - ``corrupt`` (send): one byte of the frame is flipped, in the
      region the medium checks (:func:`_corrupt`), and the full frame
      is written "successfully" -- the *peer's* frame check rejects it
      and drops the connection, so the failure surfaces on this side
      as :class:`ConnectionClosed` at the next recv.
    - ``drop_pre``: the socket is closed and the operation raises
      (``ConnectionResetError`` for send, :class:`ConnectionClosed` for
      recv).
    - ``drop_post`` (send): the frame is delivered, then the socket is
      closed; the failure surfaces at the next operation.

    A partitioned edge fails every send and recv like ``drop_pre``.
    A send's delay is slept on the calling thread unless :attr:`defer`
    has another thread sleep it and finish the send (a reactor's).
    """

    def __init__(self, sock: socket.socket, plan: FaultPlan,
                 timeout: Optional[float] = None,
                 remote: Optional[tuple[str, int]] = None) -> None:
        super().__init__(sock, timeout=timeout, remote=remote)
        self.plan = plan
        # defer(delay, rest): True if another thread is to do both.
        self.defer: Optional[Callable[[float, Callable[[], None]],
                                      bool]] = None

    def send(self, msg_type: int, payload: BytesLike = b"",
             timeout: Union[None, float, _Unset] = _DEFAULT) -> None:
        """Send one frame, subject to the plan's send-applicable faults."""
        # Pre-framed fault writes are framed by the medium's own codec
        # and go through _raw_sendall (which takes the send lock itself),
        # so they hit an attached shm medium the way they hit a socket.
        step = self.plan.step("send", self.remote,
                              lambda: self._encode_frame(msg_type, payload))
        if step.delay and self.defer is not None:
            data = bytes(payload)  # the caller reuses its buffers
            if self.defer(step.delay,
                          lambda: self._send_step(step, msg_type, data,
                                                  timeout)):
                return
        if step.delay:
            time.sleep(step.delay)
        self._send_step(step, msg_type, payload, timeout)

    def _send_step(self, step: FaultStep, msg_type: int, payload: BytesLike,
                   timeout: Union[None, float, _Unset]) -> None:
        if step.clean:
            super().send(msg_type, payload, timeout=timeout)
        elif step.data is not None:
            self._raw_sendall(step.data)
        step.settle(self.close)

    def recv(self, timeout: Union[None, float, _Unset] = _DEFAULT
             ) -> tuple[int, bytearray]:
        """Receive one frame, subject to delay/drop faults."""
        delay = self.received_delay()
        if delay:
            time.sleep(delay)
        return super().recv(timeout=timeout)

    def received_delay(self) -> float:
        """Draw the recv step: a drop closes the channel and raises
        here; a delay is returned, not slept."""
        step = self.plan.step("recv", self.remote)
        step.settle(self.close)
        return step.delay


def _corrupt(frame: bytes, ratio: float) -> bytes:
    """Flip one byte of ``frame`` where its receiver's check looks,
    never in the magic, length or region count fields.

    Whether the ``crc`` word covers the payload is read off the frame:
    it does when everything after the header, folded into the header
    CRC, gives the ``crc`` word.  If it does, a byte after the region
    table is flipped.  If not -- a ring's frame or a loopback socket's,
    whose word stops at the table -- the byte is one of the eight in the
    ``type`` and ``crc`` words.  Either way the receiver's checksum
    verification fails deterministically (magic, length and table are
    left intact so the receiver reads exactly this frame and cannot
    mis-frame the stream).
    """
    _magic, msg_type, length, crc = HEADER.unpack_from(frame)
    if zlib.crc32(frame[HEADER.size:], header_crc(msg_type, length)) != crc:
        index = (4, 5, 6, 7, 12, 13, 14, 15)[int(ratio * 8)]
    else:
        body = HEADER.size + table_size(frame)
        index = body + int(ratio * (len(frame) - body))
    return frame[:index] + bytes((frame[index] ^ 0xFF,)) + frame[index + 1:]
