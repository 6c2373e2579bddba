"""Keep-alive channel reuse keyed by ``(host, port)``.

The MDS2 scalability study found connection caching to be the single
largest factor in grid-service throughput; this pool is that knob for
the reproduction.  ``pool=False`` disables reuse entirely so the
paper's per-call-connection behaviour (every ``Ninf_call`` pays a TCP
handshake) stays reproducible as an ablation.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, TYPE_CHECKING

from repro.obs import MetricsRegistry, names
from repro.transport.channel import Channel, connect

if TYPE_CHECKING:  # annotation only -- faults wiring happens per-channel
    from repro.transport.faults import FaultPlan

__all__ = ["ConnectionPool"]


class ConnectionPool:
    """Thread-safe keep-alive pool of :class:`Channel` objects.

    Parameters
    ----------
    timeout:
        Per-operation default deadline handed to every channel dialed
        by the pool.
    pool:
        ``False`` turns the pool into a plain factory: ``checkout``
        always dials, ``checkin`` always closes -- the paper-fidelity
        per-call-connection ablation.
    max_idle_per_key:
        At most this many idle channels are retained per ``(host,
        port)``; surplus checkins are closed.
    max_idle_seconds:
        Idle channels older than this are evicted (lazily, on the next
        checkout/checkin touching the pool, or explicitly via
        :meth:`evict_idle`).
    connector:
        Channel factory, injectable for tests; defaults to
        :func:`repro.transport.channel.connect`.
    fault_plan:
        A :class:`~repro.transport.faults.FaultPlan` whose
        :meth:`~repro.transport.faults.FaultPlan.connector` dials every
        new channel -- the client-side fault-injection hook (mutually
        exclusive with ``connector``).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` receiving the pool's
        ``ninf_pool_*`` counters/gauge and, via the channels it hands
        out, the ``ninf_transport_*`` I/O counters (OBSERVABILITY.md).
        Defaults to a fresh private registry; owners (e.g.
        :class:`~repro.client.NinfClient`) pass their own to unify
        exposition.
    shm:
        Whether dialed channels offer the shared-memory upgrade
        (PROTOCOL.md §"Shared-memory handshake"); the default never
        does.  Forwarded to :func:`repro.transport.channel.connect` (or
        a fault plan's connector); ignored for custom ``connector``
        callables, which keep their own dialing policy.
    """

    def __init__(self, timeout: Optional[float] = None, pool: bool = True,
                 max_idle_per_key: int = 8,
                 max_idle_seconds: float = 60.0,
                 connect_timeout: Optional[float] = None,
                 connector: Optional[Callable[..., Channel]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 fault_plan: Optional["FaultPlan"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 shm: bool = False) -> None:
        if max_idle_per_key < 1:
            raise ValueError(f"max_idle_per_key must be >= 1, "
                             f"got {max_idle_per_key}")
        if connector is not None and fault_plan is not None:
            raise ValueError("pass either connector or fault_plan, not both")
        self.timeout = timeout
        self.pooling = pool
        self.max_idle_per_key = max_idle_per_key
        self.max_idle_seconds = max_idle_seconds
        self.connect_timeout = connect_timeout
        self.fault_plan = fault_plan
        self.shm = shm
        # shm only applies to connectors that understand the kwarg: the
        # default dialer and a fault plan's.  Custom test connectors
        # keep their exact signature.
        self._connect_shm = connector is None or fault_plan is not None
        if fault_plan is not None:
            connector = fault_plan.connector
        self._connect = connector or connect
        self._clock = clock
        self._lock = threading.Lock()
        # (host, port) -> [(channel, checkin_stamp), ...]; reuse is LIFO
        # so hot channels stay hot and cold ones age out.
        self._idle: dict[tuple[str, int], list[tuple[Channel, float]]] = {}
        # No idle stamp is older: eviction sweeps once it may be due.
        self._oldest = math.inf
        self._idle_count = 0  # channels in _idle, counted as they move
        self._closed = False
        # Observability for the connection-reuse benchmarks (PR 1's
        # ad-hoc created/reused counters, now registry-backed -- see
        # the created/reused properties).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if fault_plan is not None and fault_plan.metrics is None:
            fault_plan.metrics = self.metrics
        self._created = self.metrics.counter(
            names.POOL_CONNECTIONS_CREATED, "Channels dialed by the pool")
        self._reused = self.metrics.counter(
            names.POOL_CONNECTIONS_REUSED,
            "Checkouts satisfied from an idle channel")
        self._idle_gauge = self.metrics.gauge(
            names.POOL_IDLE_CONNECTIONS, "Idle channels currently held").labels()
        self._dials_refused = self.metrics.counter(
            names.POOL_DIALS_REFUSED,
            "Dials that failed with connection-refused")

    @property
    def created(self) -> int:
        """Channels dialed over this pool's lifetime (registry-backed)."""
        return int(self._created.value())

    @property
    def reused(self) -> int:
        """Checkouts served from an idle channel (registry-backed)."""
        return int(self._reused.value())

    @property
    def dials_refused(self) -> int:
        """Dials refused by the peer (registry-backed).  A busy server
        whose accept queue overflows shows up here, not as a hang."""
        return int(self._dials_refused.value())

    def _idle_changed_locked(self, count: int) -> None:
        """``count`` channels idle now; the gauge follows."""
        self._idle_count = count
        self._idle_gauge.set(count)

    # -- checkout / checkin -------------------------------------------------

    def checkout(self, host: str, port: int) -> Channel:
        """An open channel to ``host:port``: the most recently idle
        healthy one (LIFO), else a fresh dial."""
        if self.pooling:
            with self._lock:
                self._evict_locked(self._clock())
                bucket = self._idle.get((host, port))
                while bucket:
                    channel, _stamp = bucket.pop()
                    self._idle_changed_locked(self._idle_count - 1)
                    # healthy() spots sockets whose peer died while the
                    # channel idled (EOF pending), not just local closes
                    # -- a dead channel is never handed out.
                    if channel.healthy():
                        self._reused.inc()
                        return channel
                    channel.close()
        options = {"shm": True} if self.shm and self._connect_shm else {}
        try:
            channel = self._connect(host, port, timeout=self.timeout,
                                    connect_timeout=self.connect_timeout,
                                    **options)
        except ConnectionRefusedError:
            self._dials_refused.inc()
            raise
        channel.metrics = self.metrics
        self._created.inc()
        return channel

    def checkin(self, channel: Channel) -> None:
        """Return a healthy channel for reuse (closes it when pooling is
        off, the pool is closed, the bucket is full, or the channel has
        no dialed remote to key on)."""
        if (not self.pooling or channel.closed or channel.remote is None):
            channel.close()
            return
        now = self._clock()
        with self._lock:
            if self._closed:
                channel.close()
                return
            self._evict_locked(now)
            bucket = self._idle.setdefault(channel.remote, [])
            if len(bucket) >= self.max_idle_per_key:
                channel.close()
                return
            bucket.append((channel, now))
            self._oldest = min(self._oldest, now)
            self._idle_changed_locked(self._idle_count + 1)

    def discard(self, channel: Channel) -> None:
        """Close a channel that hit an error; never goes back in the pool."""
        channel.close()

    @contextmanager
    def lease(self, host: str, port: int) -> Iterator[Channel]:
        """``with pool.lease(h, p) as ch:`` -- checkin on success,
        discard on any exception (a failed exchange leaves the stream
        in an unknown framing state, so the connection is burned)."""
        channel = self.checkout(host, port)
        try:
            yield channel
        except BaseException:
            self.discard(channel)
            raise
        self.checkin(channel)

    # -- eviction / shutdown ------------------------------------------------

    def _evict_locked(self, now: float) -> None:
        if self.max_idle_seconds is None:
            return
        horizon = now - self.max_idle_seconds
        if self._oldest >= horizon:
            return  # nothing idles past the horizon yet
        for key, bucket in list(self._idle.items()):
            keep = []
            for channel, stamp in bucket:
                if stamp < horizon or channel.closed:
                    channel.close()
                else:
                    keep.append((channel, stamp))
            if keep:
                self._idle[key] = keep
            else:
                del self._idle[key]
        self._oldest = min((bucket[0][1] for bucket in self._idle.values()),
                           default=math.inf)
        self._idle_changed_locked(
            sum(len(bucket) for bucket in self._idle.values()))

    def evict_idle(self) -> None:
        """Synchronously drop idle channels past ``max_idle_seconds``."""
        with self._lock:
            self._evict_locked(self._clock())

    def idle_count(self, host: Optional[str] = None,
                   port: Optional[int] = None) -> int:
        """Idle channels held for one key, or for the whole pool."""
        with self._lock:
            if host is not None and port is not None:
                return len(self._idle.get((host, port), ()))
            return self._idle_count

    def close(self) -> None:
        """Close every idle channel; the pool stays usable as a factory
        (subsequent checkins are closed rather than retained)."""
        with self._lock:
            self._closed = True
            buckets = list(self._idle.values())
            self._idle.clear()
            self._idle_changed_locked(0)
        for bucket in buckets:
            for channel, _stamp in bucket:
                channel.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
