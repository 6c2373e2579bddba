"""Push-mode liveness: servers report themselves to the directory.

The polling monitor discovers a dead server one probe interval late and
a *partitioned* metaserver discovers nothing at all.  The push path
inverts the arrow (DESIGN.md §3.7): each computational server runs a
:class:`HeartbeatReporter` that sends a signed :class:`LoadReport` --
identity, the same load numbers LOAD_QUERY serves, a monotonically
increasing ``seq``, and a lease TTL -- to *every* configured metaserver
replica on a fixed beat.  While a lease is live the directory treats
the entry as authoritative and the poller skips it; when heartbeats
stop, the lease lapses and the entry falls back to the pre-push polling
behaviour.  Replicas that miss a beat (partition, restart) converge via
MS_SYNC gossip, because every replica receives the same ``seq`` stream
and merge is last-writer-wins.

``seq`` encodes a restart epoch in the high bits (``epoch << 20 |
counter``), so a server that restarts -- losing its counter -- still
produces sequence numbers that supersede its previous incarnation's.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence

from repro.protocol.errors import ProtocolError, RemoteError
from repro.protocol.messages import (
    LoadReport,
    MessageType,
    ServerInfo,
    pack,
)
from repro.transport import Channel, connect
from repro.xdr import XdrError

__all__ = ["HeartbeatReporter"]

# Beats per epoch before the counter wraps into the epoch field.
_EPOCH_SHIFT = 20


class HeartbeatReporter:
    """Pushes signed MS_HEARTBEAT load reports to metaserver replicas.

    Parameters
    ----------
    server:
        The serving instance to report on.  Needs the
        :class:`~repro.server.services.NinfRpcServices` surface:
        ``address``, ``name``, ``num_pes``, ``registry``,
        ``load_snapshot()``, and ``metrics``.
    metaservers:
        ``(host, port)`` of every metaserver replica.  Each beat goes
        to *all* of them -- replication is what keeps the directory
        available through a partition, and identical ``seq`` values
        make the fan-out idempotent under gossip.
    interval:
        Seconds between beats (the thread's cadence; tests call
        :meth:`beat_now` directly instead).
    lease_factor:
        The lease TTL carried by each report is ``interval *
        lease_factor`` -- how many consecutive beats may be lost before
        the directory falls back to polling this server.
    secret:
        Shared HMAC secret; ``None`` sends unsigned reports (which a
        metaserver configured with a secret will reject).
    epoch:
        Restart-epoch override for the high bits of ``seq``.  Defaults
        to the wall clock at construction, which makes a restarted
        server's first report supersede its previous incarnation's
        last; tests pass small integers for determinism.
    dial:
        Connection factory (drop-in for :func:`repro.transport.connect`)
        -- the hook the partition experiment uses to route beats
        through a :class:`~repro.transport.faults.FaultPlan`.
    """

    def __init__(self, server, metaservers: Sequence[tuple[str, int]],
                 interval: float = 1.0, lease_factor: float = 3.0,
                 secret: Optional[bytes] = None,
                 timeout: float = 5.0,
                 epoch: Optional[int] = None,
                 dial: Callable[..., Channel] = connect) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if lease_factor <= 0:
            raise ValueError(f"lease_factor must be > 0, got {lease_factor}")
        self.server = server
        self.metaservers = list(metaservers)
        self.interval = interval
        self.lease = interval * lease_factor
        self.secret = secret
        self.timeout = timeout
        self.dial = dial
        self._epoch = int(time.time()) if epoch is None else epoch
        self._counter = 0
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._wakeup = threading.Event()
        self._running = False
        from repro.obs import names

        self._sent = server.metrics.counter(
            names.SERVER_HEARTBEATS_SENT,
            "Heartbeat pushes to metaserver replicas by outcome",
            labelnames=("outcome",))

    # -- report construction -------------------------------------------------

    def _next_seq(self) -> int:
        with self._lock:
            self._counter += 1
            if self._counter >= (1 << _EPOCH_SHIFT):
                self._epoch += 1
                self._counter = 1
            return (self._epoch << _EPOCH_SHIFT) | self._counter

    def server_info(self) -> ServerInfo:
        """The reporting server's directory identity."""
        host, port = self.server.address
        return ServerInfo(
            name=self.server.name,
            host=host,
            port=port,
            num_pes=self.server.num_pes,
            functions=tuple(self.server.registry.names()),
        )

    def build_report(self) -> LoadReport:
        """One fresh (signed, if configured) report, next ``seq``."""
        report = LoadReport(
            info=self.server_info(),
            load=self.server.load_snapshot(),
            seq=self._next_seq(),
            lease=self.lease,
        )
        if self.secret is not None:
            report = report.signed(self.secret)
        return report

    # -- the beat ------------------------------------------------------------

    def beat_now(self) -> int:
        """Push one report to every replica; returns how many took it.

        One report (one ``seq``) fans out to all replicas, so however
        many beats are lost to a partition, the surviving copies gossip
        the same record and last-writer-wins cannot regress.
        """
        report = self.build_report()
        payload = pack(MessageType.MS_HEARTBEAT, report)
        accepted = 0
        for host, port in self.metaservers:
            try:
                with self.dial(host, port, timeout=self.timeout) as channel:
                    _msg_type, reply = channel.request(
                        MessageType.MS_HEARTBEAT, payload,
                        expect=MessageType.MS_OK)
            except (OSError, ProtocolError, RemoteError, XdrError):
                # A beat is droppable by design -- the lease absorbs
                # gaps and the poll fallback catches sustained loss.
                self._sent.inc(outcome="failed")
                continue
            self._sent.inc(outcome="ok")
            accepted += 1
        return accepted

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HeartbeatReporter":
        """Start the background beat thread (idempotent)."""
        if self._thread is not None:
            return self
        self._running = True
        self._wakeup.clear()
        self._thread = threading.Thread(
            target=self._beat_loop, name="heartbeat-reporter", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the beat thread (idempotent)."""
        self._running = False
        self._wakeup.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _beat_loop(self) -> None:
        while self._running:
            self.beat_now()
            self._wakeup.wait(timeout=self.interval)
            self._wakeup.clear()

    def __enter__(self) -> "HeartbeatReporter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
