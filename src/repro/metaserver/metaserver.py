"""The metaserver process, its client, and metaserver-brokered calls."""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence

from repro.client.api import CallRecord, NinfClient
from repro.idl.signature import Signature
from repro.metaserver.directory import Directory
from repro.metaserver.pickcache import PickCache
from repro.metaserver.schedulers import CallEstimate, LoadScheduler, Scheduler
from repro.obs import MetricsRegistry, names
from repro.protocol.errors import ProtocolError, RemoteError
from repro.protocol.messages import (
    MAX_PICK_ITEMS,
    MessageType,
    PickRequest,
    ServerInfo,
    SyncMessage,
    pack,
    unpack,
)
from repro.transport import (
    Channel,
    CircuitBreaker,
    Connection,
    ConnectionPool,
    Endpoint,
    RetryPolicy,
    connect,
    is_transient,
)
from repro.xdr import XdrError

__all__ = ["BrokeredClient", "MetaClient", "Metaserver"]


class Metaserver(Endpoint):
    """TCP metaserver: registration, lookup, placement, monitoring.

    The accept loop and dispatch table come from
    :class:`repro.transport.Endpoint`; this class adds the directory,
    the scheduler, the load-monitor thread, and (DESIGN.md §3.7) the
    push-heartbeat ingest plus replica gossip that make the directory
    partition-tolerant: any replica in ``peers`` answers MS_PICK from
    its own converging copy of the directory.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 scheduler: Optional[Scheduler] = None,
                 poll_interval: float = 1.0,
                 poll_timeout: float = 5.0,
                 probe_retry: Optional[RetryPolicy] = None,
                 peers: Sequence[tuple[str, int]] = (),
                 replica_id: str = "",
                 gossip_interval: float = 1.0,
                 secret: Optional[bytes] = None,
                 clock: Callable[[], float] = time.monotonic,
                 poll_workers: int = 8,
                 dial: Optional[Callable[..., Channel]] = None):
        super().__init__(host=host, port=port, name="metaserver")
        self.clock = clock
        self.directory = Directory(clock=clock)
        self.scheduler = scheduler or LoadScheduler()
        self.poll_interval = poll_interval
        self.poll_timeout = poll_timeout
        # A transient probe failure (one lost frame on a WAN path) must
        # not evict a healthy server from the directory: the liveness
        # probe is idempotent, so it may ride a RetryPolicy and a server
        # is marked dead only once retries are exhausted.
        self.probe_retry = probe_retry
        # Replica set: sibling metaservers this one gossips versioned
        # directory deltas with.  Gossip is symmetric anti-entropy (we
        # push ours, the peer replies with its own), so a restarted
        # replica converges from whichever peer it reaches first.
        self.peers = list(peers)
        self.replica_id = replica_id
        self.gossip_interval = gossip_interval
        # Shared HMAC secret for MS_HEARTBEAT; None accepts unsigned.
        self.secret = secret
        # Entries whose phi crosses this are counted "suspect" in the
        # gauge; scheduling uses the continuous phi, not this threshold.
        self.suspect_phi = 1.0
        self.poll_workers = poll_workers
        # Injectable dialer: how the partition experiment routes probes
        # and gossip through a FaultPlan.  None = the module-level
        # connect, resolved at call time (monkeypatchable).
        self.dial = dial
        self._monitor_thread: Optional[threading.Thread] = None
        self._monitor_wakeup = threading.Event()
        self._gossip_thread: Optional[threading.Thread] = None
        self._gossip_wakeup = threading.Event()
        self._poll_pool: Optional[ThreadPoolExecutor] = None
        self._poll_pool_lock = threading.Lock()
        # Monitoring observability (OBSERVABILITY.md): probe outcomes
        # and the resulting alive-server count, exposed via STATS.
        self._probes = self.metrics.counter(
            names.METASERVER_PROBES, "Liveness/load probes by outcome",
            labelnames=("outcome",))
        self._alive_gauge = self.metrics.gauge(
            names.METASERVER_SERVERS_ALIVE,
            "Registered servers currently marked alive")
        self._heartbeats = self.metrics.counter(
            names.METASERVER_HEARTBEATS,
            "MS_HEARTBEAT pushes ingested by outcome",
            labelnames=("outcome",))
        self._suspect_gauge = self.metrics.gauge(
            names.METASERVER_SERVERS_SUSPECT,
            "Registered servers whose phi-accrual suspicion is high")
        self._gossip_metric = self.metrics.counter(
            names.METASERVER_GOSSIP,
            "MS_SYNC gossip exchanges with peer replicas by outcome",
            labelnames=("outcome",))
        self._gossip_applied = self.metrics.counter(
            names.METASERVER_GOSSIP_APPLIED,
            "Directory records accepted from peer gossip")
        self.register_handler(MessageType.MS_REGISTER, self._handle_register)
        self.register_handler(MessageType.MS_UNREGISTER,
                              self._handle_unregister)
        self.register_handler(MessageType.MS_LOOKUP, self._handle_lookup)
        self.register_handler(MessageType.MS_PICK, self._handle_pick)
        self.register_handler(MessageType.MS_REPORT, self._handle_report)
        self.register_handler(MessageType.MS_LIST, self._handle_list)
        self.register_handler(MessageType.MS_HEARTBEAT,
                              self._handle_heartbeat)
        self.register_handler(MessageType.MS_SYNC, self._handle_sync)

    # -- lifecycle -----------------------------------------------------------

    def on_start(self) -> None:
        """Start the monitor (and gossip, if peered) threads."""
        self._monitor_wakeup.clear()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="metaserver-monitor", daemon=True
        )
        self._monitor_thread.start()
        if self.peers:
            self._gossip_wakeup.clear()
            self._gossip_thread = threading.Thread(
                target=self._gossip_loop, name="metaserver-gossip",
                daemon=True)
            self._gossip_thread.start()

    def on_stop(self) -> None:
        """Wake and join the monitor/gossip threads; drain the pool."""
        self._monitor_wakeup.set()
        self._gossip_wakeup.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        if self._gossip_thread is not None:
            self._gossip_thread.join(timeout=5.0)
            self._gossip_thread = None
        with self._poll_pool_lock:
            pool, self._poll_pool = self._poll_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def start(self) -> "Metaserver":
        """Bind, listen, and start the accept + monitor threads."""
        super().start()
        return self

    # -- monitoring ------------------------------------------------------------

    def _pool_for_polls(self) -> ThreadPoolExecutor:
        with self._poll_pool_lock:
            if self._poll_pool is None:
                self._poll_pool = ThreadPoolExecutor(
                    max_workers=self.poll_workers,
                    thread_name_prefix="metaserver-poll")
            return self._poll_pool

    def poll_now(self) -> None:
        """Refresh load for every poll-eligible server, concurrently.

        Only entries without a live heartbeat lease are polled -- push
        is the primary signal; polling is the fallback.  Probes run on
        a worker pool so one hung server (a probe stuck until
        ``poll_timeout``) delays nothing but itself.
        """
        candidates = self.directory.poll_candidates()
        targets = [(e.info.host, e.info.port) for e in candidates]
        if len(targets) == 1:
            self._poll_one(*targets[0])
        elif targets:
            pool = self._pool_for_polls()
            futures = [pool.submit(self._poll_one, host, port)
                       for host, port in targets]
            for future in futures:
                future.result()
        now = self.clock()
        entries = self.directory.entries()
        self._alive_gauge.set(sum(1 for e in entries if e.alive))
        self._suspect_gauge.set(
            sum(1 for e in entries
                if e.suspicion(now) >= self.suspect_phi))

    def _dialer(self) -> Callable[..., Channel]:
        return self.dial if self.dial is not None else connect

    def _poll_one(self, host: str, port: int) -> None:
        dial = self._dialer()

        def probe() -> tuple[int, bytes]:
            with dial(host, port, timeout=self.poll_timeout) as channel:
                return channel.request(MessageType.LOAD_QUERY)

        try:
            if self.probe_retry is not None:
                msg_type, payload = self.probe_retry.run(probe)
            else:
                msg_type, payload = probe()
            if msg_type == MessageType.LOAD_REPLY:
                self.directory.update_load(
                    host, port, *unpack(MessageType.LOAD_REPLY, payload))
            self._probes.inc(outcome="ok")
        except (OSError, ProtocolError, RemoteError, XdrError):
            self.directory.mark_dead(host, port)
            self._probes.inc(outcome="dead")

    def _monitor_loop(self) -> None:
        while self._running:
            self.poll_now()
            self._monitor_wakeup.wait(timeout=self.poll_interval)
            self._monitor_wakeup.clear()

    # -- replica gossip (DESIGN.md §3.7) --------------------------------------

    def _replica_name(self) -> str:
        if self.replica_id:
            return self.replica_id
        host, port = self.address
        return f"{host}:{port}"

    def gossip_now(self) -> int:
        """One symmetric anti-entropy round with every peer.

        Pushes this replica's full delta set and merges whatever each
        peer replies with (last-writer-wins on per-server ``seq``, so
        order and repetition are harmless).  Returns how many peers
        were reached.  A partitioned peer just counts a failure -- its
        copy converges from heartbeats it still receives, or from this
        exchange once the partition heals.
        """
        message = SyncMessage(origin=self._replica_name(),
                              deltas=tuple(self.directory.deltas()))
        payload = pack(MessageType.MS_SYNC, message)
        reached = 0
        dial = self._dialer()
        for host, port in self.peers:
            try:
                with dial(host, port,
                          timeout=self.poll_timeout) as channel:
                    _msg_type, reply = channel.request(
                        MessageType.MS_SYNC, payload,
                        expect=MessageType.MS_SYNC_REPLY)
                (theirs,) = unpack(MessageType.MS_SYNC_REPLY, reply)
                applied = self.directory.merge(list(theirs.deltas))
                if applied:
                    self._gossip_applied.inc(applied)
            except (OSError, ProtocolError, RemoteError, XdrError):
                self._gossip_metric.inc(outcome="failed")
                continue
            self._gossip_metric.inc(outcome="ok")
            reached += 1
        return reached

    def _gossip_loop(self) -> None:
        while self._running:
            self.gossip_now()
            self._gossip_wakeup.wait(timeout=self.gossip_interval)
            self._gossip_wakeup.clear()

    # -- request handlers ----------------------------------------------------------

    def _handle_register(self, conn: Connection, payload: bytes) -> None:
        self.directory.register(*unpack(MessageType.MS_REGISTER, payload))
        conn.send(MessageType.MS_OK, b"")

    def _handle_unregister(self, conn: Connection, payload: bytes) -> None:
        self.directory.unregister(
            *unpack(MessageType.MS_UNREGISTER, payload))
        conn.send(MessageType.MS_OK, b"")

    def _handle_lookup(self, conn: Connection, payload: bytes) -> None:
        (function,) = unpack(MessageType.MS_LOOKUP, payload)
        conn.reply(
            MessageType.MS_LOOKUP_REPLY,
            [entry.info for entry in self.directory.providers(function)])

    def _handle_pick(self, conn: Connection, payload: bytes) -> None:
        (request,) = unpack(MessageType.MS_PICK, payload)
        # Folded in first, so this placement sees the caller's earlier
        # calls exactly as if each had sent its own MS_REPORT.
        for observation in request.observations:
            self.directory.report_bandwidth(*observation)
        function = request.function
        estimate = CallEstimate(function, comm_bytes=request.comm_bytes,
                                flops=request.flops, site=request.site)
        # Failover (DESIGN.md §3.5): hosts that just refused, shed or
        # died are excluded, so the re-pick lands elsewhere.
        excluded = set(request.exclude)
        providers = [entry for entry in self.directory.providers(function)
                     if entry.key not in excluded]
        chosen = self.scheduler.choose(providers, estimate)
        if chosen is None:
            conn.send_error("no-provider",
                            f"no server provides {function!r}")
            return
        conn.reply(MessageType.MS_PICK_REPLY, chosen.info)

    def _handle_report(self, conn: Connection, payload: bytes) -> None:
        self.directory.report_bandwidth(
            *unpack(MessageType.MS_REPORT, payload))
        conn.send(MessageType.MS_OK, b"")

    def _handle_list(self, conn: Connection, payload: bytes) -> None:
        conn.reply(MessageType.MS_LIST_REPLY,
                   [entry.info for entry in self.directory.entries()])

    def _handle_heartbeat(self, conn: Connection, payload: bytes) -> None:
        """Ingest a pushed MS_HEARTBEAT load report (DESIGN.md §3.7)."""
        (report,) = unpack(MessageType.MS_HEARTBEAT, payload)
        if not report.verify(self.secret):
            self._heartbeats.inc(outcome="bad-signature")
            conn.send_error("bad-signature",
                            "heartbeat signature rejected")
            return
        applied = self.directory.apply_report(report)
        self._heartbeats.inc(outcome="ok" if applied else "stale")
        conn.send(MessageType.MS_OK, b"")

    def _handle_sync(self, conn: Connection, payload: bytes) -> None:
        """Serve one gossip exchange: merge theirs, reply with ours."""
        (message,) = unpack(MessageType.MS_SYNC, payload)
        applied = self.directory.merge(list(message.deltas))
        if applied:
            self._gossip_applied.inc(applied)
        reply = SyncMessage(origin=self._replica_name(),
                            deltas=tuple(self.directory.deltas()))
        conn.reply(MessageType.MS_SYNC_REPLY, reply)


class MetaClient:
    """Client-side binding to the metaserver protocol.

    Exchanges ride a :class:`~repro.transport.ConnectionPool`, so
    successive picks reuse one TCP connection instead of paying a
    handshake each; ``pool=False`` restores the connection-per-request
    behaviour.

    Bandwidth observations need no exchange of their own: the next wire
    :meth:`pick` carries what :meth:`observe` queued (at most
    ``MAX_PICK_ITEMS``, oldest dropped first); :meth:`flush` sends what
    is still queued as standalone MS_REPORTs.

    Partition tolerance (DESIGN.md §3.7) is layered on top:

    - ``replicas`` lists every metaserver endpoint; each request walks
      the replica set (sticky to the last replica that answered) and a
      per-replica :class:`~repro.transport.CircuitBreaker` keeps dead
      replicas from eating a connect timeout per call.
    - ``cache`` (a :class:`~repro.metaserver.pickcache.PickCache`)
      short-circuits fresh MS_PICK answers, falls back to a stale one
      when the wire fails transiently, and -- when *every* replica is
      unreachable -- enters degraded mode: arbitrarily stale picks keep
      calls flowing while the pinned ``ninf_client_degraded_mode``
      gauge reads 1.
    """

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None, timeout: float = 30.0,
                 pool: bool = True,
                 replicas: Sequence[tuple[str, int]] = (),
                 breaker: Optional[CircuitBreaker] = None,
                 cache: Optional[PickCache] = None,
                 metrics=None, fault_plan=None):
        endpoints = list(replicas)
        if not endpoints:
            if host is None or port is None:
                raise ValueError("need host/port or a replicas list")
            endpoints = [(host, port)]
        # The first replica keeps the single-endpoint attribute surface.
        self.host, self.port = endpoints[0]
        self.endpoints = endpoints
        self.timeout = timeout
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache = cache
        self._pool = ConnectionPool(timeout=timeout, pool=pool,
                                    fault_plan=fault_plan)
        self._preferred = 0
        self._lock = threading.Lock()
        self._observations: deque[tuple[str, int, str, float]] = deque(
            maxlen=MAX_PICK_ITEMS)
        self.degraded = False
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._cache_metric = metrics.counter(
            names.CLIENT_PICK_CACHE,
            "MS_PICK placements served by cache state",
            labelnames=("result",))
        self._degraded_gauge = metrics.gauge(
            names.CLIENT_DEGRADED,
            "1 while picks are served from stale cache because "
            "every metaserver replica is unreachable").labels()

    def close(self) -> None:
        """Close pooled metaserver connections (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "MetaClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, msg_type: int, expect: int, *values: Any) -> bytes:
        """One request (``values``: its declared fields) against the
        replica set; returns the ``expect`` reply's payload.

        Walks replicas from the last one that answered; a replica that
        fails transiently trips its breaker and the walk moves on.  A
        :class:`RemoteError` is an *answer* (the replica is healthy,
        the request is at fault) and propagates immediately.  When
        every replica is down or breaker-blocked the call raises the
        last transport error -- the pick cache's degraded path catches
        exactly that.
        """
        payload = pack(msg_type, *values)
        last_exc: Optional[Exception] = None
        count = len(self.endpoints)
        start = self._preferred
        for offset in range(count):
            slot = (start + offset) % count
            endpoint = self.endpoints[slot]
            if not self.breaker.allow(endpoint):
                continue
            try:
                with self._pool.lease(*endpoint) as channel:
                    _reply_type, reply = channel.request(
                        msg_type, payload, expect=expect)
            except RemoteError:
                self.breaker.record_success(endpoint)
                self._preferred = slot
                raise
            except (OSError, ProtocolError, XdrError) as exc:
                self.breaker.record_failure(endpoint)
                last_exc = exc
                continue
            self.breaker.record_success(endpoint)
            self._preferred = slot
            return reply
        if last_exc is not None:
            raise last_exc
        raise ConnectionRefusedError(
            "every metaserver replica is circuit-broken")

    def register(self, info: ServerInfo) -> None:
        """MS_REGISTER: add a computational server to the directory."""
        self._roundtrip(MessageType.MS_REGISTER, MessageType.MS_OK, info)

    def register_server(self, server, name: Optional[str] = None) -> None:
        """Register a local :class:`~repro.server.NinfServer` instance."""
        host, port = server.address
        info = ServerInfo(
            name=name or server.name,
            host=host,
            port=port,
            num_pes=server.num_pes,
            functions=tuple(server.registry.names()),
        )
        self.register(info)

    def unregister(self, host: str, port: int) -> None:
        """MS_UNREGISTER: remove a server from the directory."""
        self._roundtrip(MessageType.MS_UNREGISTER, MessageType.MS_OK,
                        host, port)

    def lookup(self, function: str) -> list[ServerInfo]:
        """MS_LOOKUP: alive servers providing ``function``."""
        reply = self._roundtrip(MessageType.MS_LOOKUP,
                                MessageType.MS_LOOKUP_REPLY, function)
        (servers,) = unpack(MessageType.MS_LOOKUP_REPLY, reply)
        return list(servers)

    def _count_pick(self, result: str) -> None:
        self._cache_metric.inc(result=result)

    def _set_degraded(self, value: bool) -> None:
        self.degraded = value
        self._degraded_gauge.set(1.0 if value else 0.0)

    def _take_observations(self) -> tuple[tuple[str, int, str, float], ...]:
        with self._lock:
            taken = tuple(self._observations)
            self._observations.clear()
        return taken

    def _pick_wire(self, function: str, comm_bytes: float,
                   flops: Optional[float], site: str,
                   exclude: Sequence[tuple[str, int]]) -> ServerInfo:
        observations = self._take_observations()
        request = PickRequest(function, comm_bytes, flops, site,
                              tuple(exclude[:MAX_PICK_ITEMS]), observations)
        try:
            reply = self._roundtrip(MessageType.MS_PICK,
                                    MessageType.MS_PICK_REPLY, request)
        except (OSError, ProtocolError, XdrError):
            # No replica answered (an ERROR reply is an answer): the
            # observations go back, ahead of any queued meanwhile.
            with self._lock:
                self._observations = deque(
                    (*observations, *self._observations),
                    maxlen=MAX_PICK_ITEMS)
            raise
        (chosen,) = unpack(MessageType.MS_PICK_REPLY, reply)
        return chosen

    def pick(self, function: str, comm_bytes: float = 0.0,
             flops: Optional[float] = None, site: str = "default",
             exclude: Sequence[tuple[str, int]] = ()) -> ServerInfo:
        """MS_PICK: the scheduler's placement for a call estimate.

        ``exclude`` lists ``(host, port)`` pairs the placement must
        avoid — servers that just refused, shed, or died during this
        logical call (failover re-pick, DESIGN.md §3.5).  Exclude-list
        picks always go to the wire: a cached placement predates the
        failure that triggered the re-pick.

        With a :class:`~repro.metaserver.pickcache.PickCache` attached,
        fresh placements are served locally, stale ones revalidate and
        fall back to the stale value on a transient wire failure, and
        when no replica is reachable at all the client degrades to
        serving whatever it still holds (DESIGN.md §3.7).
        """
        if self.cache is None or exclude:
            return self._pick_wire(function, comm_bytes, flops, site,
                                   exclude)
        key = (function, site)
        cached = self.cache.get(key)
        if cached is not None:
            self._count_pick(result="fresh")
            return cached
        try:
            info = self._pick_wire(function, comm_bytes, flops, site,
                                   exclude)
        except (OSError, ProtocolError) as exc:
            stale = self.cache.get(key, allow_expired=True)
            if stale is None:
                raise
            # Degraded mode: the wire is gone but an old placement
            # beats a failed call.  The gauge stays pinned at 1 until
            # a wire pick lands again.
            self._set_degraded(True)
            self._count_pick(result="degraded")
            return stale
        self.cache.put(key, info)
        self._set_degraded(False)
        self._count_pick(result="refresh")
        return info

    def invalidate_pick(self, function: str, site: str = "default") -> None:
        """Drop a cached placement (its server just failed)."""
        if self.cache is not None:
            self.cache.invalidate((function, site))

    def observe(self, host: str, port: int, site: str,
                bandwidth: float) -> None:
        """Queue an achieved-bandwidth observation for the next pick."""
        with self._lock:
            self._observations.append((host, port, site, bandwidth))

    def flush(self) -> None:
        """Send every queued observation now, one MS_REPORT each."""
        for observation in self._take_observations():
            self.report(*observation)

    def report(self, host: str, port: int, site: str,
               bandwidth: float) -> None:
        """MS_REPORT: feed an achieved-bandwidth observation back now."""
        self._roundtrip(MessageType.MS_REPORT, MessageType.MS_OK,
                        host, port, site, bandwidth)

    def list_servers(self) -> list[ServerInfo]:
        """MS_LIST: every registered server (alive or not)."""
        reply = self._roundtrip(MessageType.MS_LIST,
                                MessageType.MS_LIST_REPLY)
        (servers,) = unpack(MessageType.MS_LIST_REPLY, reply)
        return list(servers)


class BrokeredClient:
    """A Ninf client that routes every call through the metaserver.

    Per call: estimate cost from the cached signature, ask the
    metaserver to pick a server, call it directly.  The achieved
    bandwidth rides the *next* call's pick (closing the monitoring
    loop the bandwidth-aware scheduler feeds on), so a call costs one
    metaserver exchange once its function's signature is held.

    With ``max_failover > 0``, a transiently failing server (dead
    socket, shed, shut down) triggers a re-pick that excludes the
    failed host plus anything the per-host circuit breaker currently
    blocks; the call replays on the next candidate.  Non-transient
    errors (the function itself raised) never fail over.
    """

    def __init__(self, meta: MetaClient, site: str = "default",
                 pool: bool = True, max_failover: int = 0,
                 breaker: Optional[CircuitBreaker] = None,
                 metrics=None, retry: Optional[RetryPolicy] = None,
                 retry_calls: bool = False,
                 call_budget: Optional[float] = None):
        self.meta = meta
        self.site = site
        self.pool = pool
        self.max_failover = max_failover
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retry = retry
        self.retry_calls = retry_calls
        self.call_budget = call_budget
        self._clients: dict[tuple[str, int], NinfClient] = {}
        self._signatures: dict[str, Signature] = {}
        self._lock = threading.Lock()
        # The most recent calls only: each NinfClient keeps its own log.
        self.records: deque[tuple[ServerInfo, CallRecord]] = deque(
            maxlen=1024)
        self.failovers = 0
        self._failover_metric = (metrics or MetricsRegistry()).counter(
            names.CLIENT_FAILOVERS,
            "Brokered calls replayed on another server after a "
            "transient failure").labels()

    def _client_for(self, info: ServerInfo) -> NinfClient:
        key = (info.host, info.port)
        with self._lock:
            client = self._clients.get(key)
            if client is None:
                client = NinfClient(info.host, info.port, pool=self.pool,
                                    retry=self.retry,
                                    retry_calls=self.retry_calls,
                                    call_budget=self.call_budget)
                self._clients[key] = client
            return client

    def _estimate(self, function: str,
                  args: tuple) -> tuple[float, Optional[float]]:
        """Cost estimate from the function's signature, which the first
        call fetches from any reachable provider (MS_LOOKUP names them).
        A wrong argument list raises ``IdlError`` here, before any pick."""
        signature = self._signatures.get(function)
        if signature is None:
            providers = self.meta.lookup(function)
            if not providers:
                raise RemoteError("no-provider",
                                  f"no server provides {function!r}")
            for info in providers:
                try:
                    signature = self._client_for(info).get_signature(function)
                except (OSError, ProtocolError, RemoteError):
                    continue
                self._signatures[function] = signature
                break
            else:
                return 0.0, None
        bound = signature.bind(list(args))
        return (float(bound.input_bytes + bound.output_bytes),
                bound.predicted_flops)

    def _note_failover(self) -> None:
        with self._lock:
            self.failovers += 1
        self._failover_metric.inc()

    def call(self, function: str, *args) -> list:
        """Metaserver-brokered Ninf_call: pick, then call."""
        comm_bytes, flops = self._estimate(function, args)
        failed: set[tuple[str, int]] = set()
        last_exc: Optional[BaseException] = None
        for _attempt in range(1 + max(0, self.max_failover)):
            exclude = failed | self.breaker.blocked()
            try:
                chosen = self.meta.pick(function, comm_bytes=comm_bytes,
                                        flops=flops, site=self.site,
                                        exclude=sorted(exclude))
            except RemoteError as exc:
                if exc.code == "no-provider" and last_exc is not None:
                    break  # every candidate is excluded; report the failure
                raise
            key = (chosen.host, chosen.port)
            if not self.breaker.allow(key):
                # blocked() raced with a fresh trip; skip this host.
                failed.add(key)
                continue
            client = self._client_for(chosen)
            try:
                outputs, record = client.call_with_record(function, *args)
            except Exception as exc:
                if not is_transient(exc):
                    raise
                self.breaker.record_failure(key)
                # The cached placement (if any) named this server;
                # don't let the degraded path keep re-serving it.
                self.meta.invalidate_pick(function, self.site)
                failed.add(key)
                last_exc = exc
                if _attempt < max(0, self.max_failover):
                    self._note_failover()  # a replay will actually happen
                continue
            self.breaker.record_success(key)
            with self._lock:
                self.records.append((chosen, record))
            if record.elapsed > 0 and record.comm_bytes > 0:
                self.meta.observe(chosen.host, chosen.port, self.site,
                                  record.throughput)
            return outputs
        assert last_exc is not None
        raise last_exc

    def close(self) -> None:
        """Flush queued observations; close the per-server clients."""
        try:
            self.meta.flush()
        except (OSError, ProtocolError, RemoteError):
            pass  # monitoring is best-effort
        with self._lock:
            for client in self._clients.values():
                client.close()
            self._clients.clear()

    def __enter__(self) -> "BrokeredClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
