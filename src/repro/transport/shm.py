"""Shared-memory same-host transport: the TCP bypass.

The paper's LAN results put the floor of call latency at the network
stack; on the *same host* (client and server sharing a machine, the
common case for the breakdown experiment and local development) even
loopback TCP pays per-byte kernel copies.  This module carries frames
with the same 16-byte header layout -- ``MAGIC | type | len | crc`` --
over a pair of single-producer/single-consumer ring buffers in
:mod:`multiprocessing.shared_memory`, so payload bytes move
process-to-process through one shared mapping.

A ring frame checks its header, not its payload: the ``crc`` word is
:func:`repro.protocol.framing.header_crc` (type and length words),
verified before the payload buffer is allocated, and neither side makes
a pass over the payload.  That is the ring's fault model, not an
economy: a ring can lose frame boundaries (a torn counter, a writer
dying mid-frame -- caught by magic, the header CRC and mid-frame EOF)
but cannot flip a bit in transit, since the bytes never leave memory
both process heaps are equally exposed to.  There is one ring format,
:data:`RING_FORMAT`, and no switch.

Negotiation (PROTOCOL.md §"Shared-memory handshake") happens over the
already-established TCP channel: the client sends ``SHM_HELLO`` with a
capacity hint and the ring format it speaks, a willing server creates
both rings and answers ``SHM_HELLO_REPLY`` with the segment names and
the format again, and both sides then attach the rings *in place* on
the existing :class:`~repro.transport.channel.Channel` (see
``Channel.attach_io``).
The TCP socket stays open -- it is the liveness signal
(``Channel.healthy`` still selects on it) and the close signal; frames
simply stop flowing over it.  Any other reply (an ``ERROR`` from an
older server, an shm-disabled server, or the asyncio server which does
not negotiate) means "keep using TCP" -- the fallback is silent and the
call path identical.

Opt-outs: set ``NINF_SHM=0`` in the environment (either side), pass
``shm=False`` to :func:`repro.transport.connect` /
``Endpoint(shm=False)``.  Negotiation is only *attempted* when the
dialed host looks local (loopback or this machine's hostname).

Fault injection: :class:`~repro.transport.faults.FaultyChannel` frames
with the attached medium's codec (``Channel._encode_frame``) and writes
its truncated/corrupted frames through ``Channel._raw_sendall``, which
routes into the ring once attached -- so every send-applicable
``FaultPlan`` kind (truncate, corrupt, drop) exercises the shm path
with the same observable outcome as TCP (a rejected frame, mid-frame
EOF).  CORRUPT lands its flipped byte where the ring looks -- the
``type`` or ``crc`` word; a flipped ring *payload* byte is outside the
ring's fault model and would not be noticed.
"""

from __future__ import annotations

import os
import socket
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # annotation only -- channel imports shm lazily
    from repro.transport.channel import Channel

from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    TimeoutError,
)
from repro.protocol.framing import BytesLike, FrameReader, encode_frame, \
    encode_header
from repro.protocol.messages import MessageType, pack, unpack
from repro.xdr import XdrError, bulk

__all__ = [
    "DEFAULT_CAPACITY",
    "RING_FORMAT",
    "ShmRing",
    "ShmTransport",
    "is_local_host",
    "negotiate",
    "shm_enabled",
]

#: Per-direction ring capacity (bytes).  Frames larger than the ring
#: still flow -- the writer streams in capacity-sized pieces while the
#: reader drains -- so this bounds memory per connection (a pooled
#: client may hold many shm channels at once, and ``/dev/shm`` is often
#: small in containers), not message size.
DEFAULT_CAPACITY = 1 << 18

#: The ring frame format both peers must name in the handshake.  1 was
#: the socket frame verbatim (``crc`` over type, length and payload) and
#: had no word in ``SHM_HELLO``; 2 is the header-only check.  A peer
#: speaking another format is refused before any ring carries a frame.
RING_FORMAT = 2

# Ring control block layout (one cache line, at the segment head):
#   u64 write_pos | u64 read_pos | u64 closed
# Positions are monotonic byte counters (never wrapped); the occupied
# span is write_pos - read_pos and offsets into the data area are taken
# mod capacity.  Monotonic counters make empty (==) and full
# (delta == capacity) unambiguous without a spare slot.
#
# The words are accessed ONLY through a memoryview cast to "Q" (native
# u64), never through the struct module: struct's standard-size formats
# assemble multi-byte values one byte at a time, so a counter being
# updated by the peer process could be observed *torn* -- a mix of old
# and new bytes forming a value that was never written, which breaks
# the space/available invariants.  Cast-view item access compiles to a
# single aligned machine load/store, which x86-64 and AArch64 perform
# atomically.  (Both ends of a ring are on the same host by
# construction, so native byte order is consistent.)
_CTRL_SIZE = 64
_WRITE_WORD = 0
_READ_WORD = 1
_CLOSED_WORD = 2

# Polling cadence for a full/empty ring: spin briefly (the common case
# is a peer actively draining), then short sleeps, then back off to a
# slow tick so a long-idle server connection thread does not burn CPU.
_SPIN = 64
_POLL_SECONDS = 0.0002
_IDLE_AFTER = 320          # ~50 ms of short polls before backing off
_IDLE_POLL_SECONDS = 0.002

_LOCAL_HOSTS = {"localhost", "127.0.0.1", "::1", "0.0.0.0"}


def shm_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the shm opt-out: explicit ``flag`` wins, else the
    ``NINF_SHM`` environment variable (unset/``1`` = enabled)."""
    if flag is not None:
        return flag
    return os.environ.get("NINF_SHM", "1") not in ("0", "no", "off")


def is_local_host(host: str) -> bool:
    """Whether ``host`` plausibly names this machine (worth offering the
    shm handshake).  Deliberately conservative: loopback names plus this
    host's own hostname -- a wrong ``True`` only costs one refused
    SHM_HELLO round trip."""
    if host in _LOCAL_HOSTS:
        return True
    try:
        return host == socket.gethostname()
    except OSError:  # pragma: no cover - gethostname essentially never fails
        return False


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    CPython < 3.13 registers *every* ``SharedMemory`` with the resource
    tracker, so an attacher's tracker would try to unlink the creator's
    segment at exit; unregister immediately to keep unlink an
    owner-only operation.
    """
    seg = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift
        pass
    return seg


class ShmRing:
    """One direction of frame flow: an SPSC byte ring in one segment.

    Exactly one process writes and one reads (the transport pairs two
    rings, one per direction), so no locks are needed: the writer owns
    ``write_pos``, the reader owns ``read_pos``, and each only *reads*
    the other's counter.  Either side may set ``closed``; a reader
    drains buffered bytes first (like TCP FIN), a writer fails fast.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 capacity: int, owner: bool) -> None:
        self._segment = segment
        self._buf = segment.buf
        # Single-load/store access to the control words (see the layout
        # comment above _CTRL_SIZE for why struct.unpack_from is unsafe
        # here).
        self._ctrl = segment.buf[:_CTRL_SIZE].cast("Q")
        self.capacity = capacity
        self.owner = owner
        self.name = segment.name

    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> "ShmRing":
        segment = shared_memory.SharedMemory(
            create=True, size=_CTRL_SIZE + capacity)
        segment.buf[:_CTRL_SIZE] = bytes(_CTRL_SIZE)
        return cls(segment, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        segment = _attach_segment(name)
        if segment.size < _CTRL_SIZE + capacity:
            segment.close()
            raise ProtocolError(
                f"shm segment {name} is {segment.size} bytes, need "
                f"{_CTRL_SIZE + capacity}")
        return cls(segment, capacity, owner=False)

    # -- control words ------------------------------------------------------
    # Every access goes through _view(): a ring closed concurrently (the
    # memoryview released under a blocked reader/writer) surfaces as
    # ConnectionClosed, the same exception a torn-down socket raises.

    def _view(self) -> memoryview:
        buf = self._buf
        if buf is None:
            raise ConnectionClosed("shm ring detached")
        return buf

    @property
    def _write_pos(self) -> int:
        try:
            return self._ctrl[_WRITE_WORD]
        except ValueError:
            raise ConnectionClosed("shm ring detached") from None

    @property
    def _read_pos(self) -> int:
        try:
            return self._ctrl[_READ_WORD]
        except ValueError:
            raise ConnectionClosed("shm ring detached") from None

    @property
    def closed(self) -> bool:
        try:
            return self._ctrl[_CLOSED_WORD] != 0
        except ValueError:
            raise ConnectionClosed("shm ring detached") from None

    def mark_closed(self) -> None:
        """Signal the peer; buffered bytes remain readable."""
        self._ctrl[_CLOSED_WORD] = 1

    def readable(self) -> int:
        """Bytes currently buffered."""
        return self._write_pos - self._read_pos

    # -- blocking byte I/O --------------------------------------------------

    def _wait(self, deadline: Optional[float], spins: int, what: str) -> int:
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(f"shm {what} deadline expired")
        if spins > _IDLE_AFTER:
            time.sleep(_IDLE_POLL_SECONDS)
        elif spins > _SPIN:
            time.sleep(_POLL_SECONDS)
        else:
            # sched_yield, not sleep(0): both release the GIL -- vital
            # when the peer is a thread in this process (in-process
            # servers, tests), where a bare busy-spin would hold the
            # GIL for the full switch interval (~5 ms) and starve the
            # very thread being waited on -- but sleep(0) is subject to
            # kernel timer slack (tens of microseconds per call), which
            # would dominate small-message latency.
            os.sched_yield()
        return spins + 1

    def write(self, data: BytesLike,
              deadline: Optional[float] = None) -> None:
        """Append ``data``, blocking while the ring is full.

        Streams arbitrarily large buffers in ring-capacity pieces.
        Raises :class:`ConnectionClosed` if the ring is marked closed
        (any unread bytes on a closed ring are going nowhere).
        """
        view = memoryview(data).cast("B")
        sent = 0
        spins = 0
        while sent < len(view):
            if self.closed:
                raise ConnectionClosed("shm ring closed by peer")
            write_pos = self._write_pos
            # <= 0, not == 0: insurance against an out-of-invariant
            # counter observation ever producing a negative chunk (a
            # negative chunk corrupts `sent` silently -- the empty-slice
            # assignment succeeds -- and derails the stream much later).
            space = self.capacity - (write_pos - self._read_pos)
            if space <= 0:
                spins = self._wait(deadline, spins, "send")
                continue
            spins = 0
            offset = write_pos % self.capacity
            chunk = min(space, len(view) - sent,
                        self.capacity - offset)  # no wrap within one copy
            try:
                buf = self._view()
                buf[_CTRL_SIZE + offset:
                    _CTRL_SIZE + offset + chunk] = view[sent:sent + chunk]
                sent += chunk
                # Publish after the bytes land: the reader never sees a
                # write_pos covering bytes that are not yet in the buffer.
                self._ctrl[_WRITE_WORD] = write_pos + chunk
            except ValueError:
                raise ConnectionClosed("shm ring detached") from None

    def read_into(self, view: memoryview,
                  deadline: Optional[float] = None) -> None:
        """Fill ``view`` from the ring, blocking while it is empty.  A
        closed ring is drained first; EOF before ``view`` is full raises
        :class:`ConnectionClosed` naming the bytes still outstanding."""
        count = len(view)
        got = 0
        spins = 0
        while got < count:
            available = self.readable()
            if available <= 0:  # <= 0: same insurance as write()
                if self.closed:
                    raise ConnectionClosed(
                        f"connection closed with {count - got} bytes "
                        f"outstanding")
                spins = self._wait(deadline, spins, "recv")
                continue
            spins = 0
            read_pos = self._read_pos
            offset = read_pos % self.capacity
            chunk = min(available, count - got, self.capacity - offset)
            try:
                buf = self._view()
                view[got:got + chunk] = buf[_CTRL_SIZE + offset:
                                            _CTRL_SIZE + offset + chunk]
                got += chunk
                self._ctrl[_READ_WORD] = read_pos + chunk
            except ValueError:
                raise ConnectionClosed("shm ring detached") from None

    def read_exact(self, count: int,
                   deadline: Optional[float] = None) -> bytearray:
        """Exactly ``count`` bytes, in a fresh buffer (:meth:`read_into`)."""
        out = bulk.room(count)
        self.read_into(memoryview(out), deadline)
        return out

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Mark closed and detach; the owner also unlinks the segment."""
        try:
            self.mark_closed()
        except (ConnectionClosed, ValueError):
            pass  # buffer already released
        self._buf = None
        self._ctrl.release()  # an exported view would block segment.close()
        try:
            self._segment.close()
        except (OSError, BufferError):
            pass
        if self.owner:
            try:
                # Re-register first: when creator and attacher share a
                # process (tests), the attacher's unregister emptied the
                # tracker's per-name set entry, and unlink's own
                # unregister would make the tracker print a KeyError.
                # Registration is set-idempotent, so this is a no-op in
                # the normal cross-process case.
                resource_tracker.register(self._segment._name,
                                          "shared_memory")
                self._segment.unlink()
            except (OSError, FileNotFoundError):
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "peer"
        return f"<ShmRing {self.name} cap={self.capacity} {role}>"


class ShmTransport:
    """Frame I/O over a ring pair; the object ``Channel.attach_io`` takes.

    ``send_ring`` carries this side's outgoing frames, ``recv_ring`` the
    peer's.  A frame in a ring is the 16-byte ``MAGIC|type|len|crc``
    header of TCP framing, then the payload; the ``crc`` word covers the
    type and length words only.  A desynchronised ring (bad magic, a
    header that fails its CRC, EOF mid-frame) surfaces as the same
    :class:`ProtocolError` TCP framing raises, before any buffer sized by
    the header is allocated; payload bytes are copied, never checked.
    """

    def __init__(self, send_ring: ShmRing, recv_ring: ShmRing) -> None:
        self.send_ring = send_ring
        self.recv_ring = recv_ring

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.monotonic() + timeout

    def send_frame(self, msg_type: int, payload: BytesLike = b"",
                   timeout: Optional[float] = None) -> None:
        """Write one frame into the send ring (header, then payload)."""
        deadline = self._deadline(timeout)
        header = encode_header(msg_type, payload, covers_payload=False)
        self.send_ring.write(header, deadline)
        if len(payload):
            self.send_ring.write(payload, deadline)

    @staticmethod
    def encode_frame(msg_type: int, payload: BytesLike = b"") -> bytes:
        """The exact bytes :meth:`send_frame` puts into the ring, for
        fault injection to truncate or corrupt."""
        return encode_frame(msg_type, payload, covers_payload=False)

    def sendall(self, data: BytesLike,
                timeout: Optional[float] = None) -> None:
        """Raw pre-framed bytes (the fault-injection seam)."""
        self.send_ring.write(data, self._deadline(timeout))

    def recv_frame(self, timeout: Optional[float] = None
                   ) -> tuple[int, bytearray]:
        """Read one frame from the receive ring, its header verified
        before the payload buffer exists; the payload is the private
        ``bytearray`` it was copied out into."""
        deadline = self._deadline(timeout)
        reader = FrameReader(payload_checked=False)
        while True:
            view = reader.buffer()
            self.recv_ring.read_into(view, deadline)
            frame = reader.advance(len(view))
            if frame is not None:
                return frame

    def healthy(self) -> bool:
        """Whether both rings are still open (peer has not closed)."""
        try:
            return not (self.send_ring.closed or self.recv_ring.closed)
        except ConnectionClosed:
            return False  # rings already detached

    def shutdown(self) -> None:
        """Mark both rings closed without detaching: a thread blocked in
        :meth:`recv_frame`/:meth:`send_frame` sees EOF and closes."""
        for ring in (self.send_ring, self.recv_ring):
            try:
                ring.mark_closed()
            except ValueError:
                pass  # already detached

    def close(self) -> None:
        """Close both rings (marking them for the peer; owner unlinks)."""
        self.send_ring.close()
        self.recv_ring.close()


# Bound the handshake wait: a SHM_HELLO to a peer that never answers
# (not a Ninf endpoint at all) must not stall the dial indefinitely.
NEGOTIATE_TIMEOUT = 2.0


def negotiate(channel: "Channel", capacity: int = DEFAULT_CAPACITY,
              timeout: Optional[float] = NEGOTIATE_TIMEOUT) -> bool:
    """Client side of the shm handshake, on an established channel.

    Sends ``SHM_HELLO`` (capacity hint, :data:`RING_FORMAT`), and on
    ``SHM_HELLO_REPLY`` attaches the advertised ring pair in place via
    ``channel.attach_io``.  Returns ``True`` on upgrade, ``False`` on a
    clean refusal (an ``ERROR`` reply from an shm-disabled or older
    server or one that speaks another ring format, or any
    unexpected-but-well-formed reply) -- the channel keeps working over
    TCP either way.

    Raises on a *poisoned* handshake (timeout mid-exchange, connection
    loss, a reply naming segments this process cannot attach, or one
    that does not name this ring format -- a server from before the
    format word upgrades regardless): the server may already be
    listening on the rings, so the caller must discard the channel and
    redial rather than keep using it.
    """
    try:
        _reply_type, reply = channel.request(
            MessageType.SHM_HELLO,
            pack(MessageType.SHM_HELLO, capacity, RING_FORMAT),
            expect=MessageType.SHM_HELLO_REPLY, timeout=timeout)
    except RemoteError:
        return False  # server said no (shm disabled, or pre-shm dispatch)
    except (TimeoutError, ConnectionClosed):
        raise  # no answer is not a refusal: a late reply may still come
    except ProtocolError:
        return False  # well-formed non-reply; the stream is still framed
    try:
        c2s_name, s2c_name, ring_capacity, ring_format = unpack(
            MessageType.SHM_HELLO_REPLY, reply)
    except XdrError as exc:
        raise ProtocolError(f"malformed SHM_HELLO_REPLY: {exc}") from exc
    if ring_format != RING_FORMAT:
        raise ProtocolError(f"server upgraded to ring format {ring_format}, "
                            f"this side speaks {RING_FORMAT}")
    c2s = ShmRing.attach(c2s_name, ring_capacity)
    try:
        s2c = ShmRing.attach(s2c_name, ring_capacity)
    except BaseException:
        c2s.close()
        raise
    channel.attach_io(ShmTransport(send_ring=c2s, recv_ring=s2c))
    return True
