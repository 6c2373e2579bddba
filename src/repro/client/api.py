"""The blocking Ninf_call binding: :class:`NinfClient` drives the
operations of :mod:`repro.client.core` over blocking sockets."""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.client import core
from repro.client.core import CallRecord, ClientState, DetachedCall
from repro.obs import MetricsRegistry, Tracer
from repro.transport import ConnectionPool, RetryPolicy

__all__ = ["CallRecord", "DetachedCall", "NinfClient", "NinfFuture",
           "ninf_call", "ninf_call_async", "parse_ninf_url"]


class NinfFuture:
    """Result handle for :meth:`NinfClient.call_async`."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._outputs: Optional[list[Any]] = None
        self._record: Optional[CallRecord] = None
        self._error: Optional[BaseException] = None
        self._callbacks: list[Callable[["NinfFuture"], None]] = []
        self._callbacks_lock = threading.Lock()

    def _fulfill(self, outputs: list[Any], record: CallRecord) -> None:
        self._outputs = outputs
        self._record = record
        self._finish()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._finish()

    def _finish(self) -> None:
        self._event.set()
        with self._callbacks_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, fn: Callable[["NinfFuture"], None]) -> None:
        """Run ``fn(self)`` on completion (immediately if already done).

        Callbacks fire on the call's worker thread, exactly once, for
        success and failure alike -- this is how ``ninf_call_async``
        closes its throwaway client's connection pool.
        """
        with self._callbacks_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until completion; False on timeout."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> list[Any]:
        """Outputs in declaration order; raises what the call raised."""
        if not self._event.wait(timeout):
            raise TimeoutError("Ninf_call still in progress")
        if self._error is not None:
            raise self._error
        return self._outputs

    @property
    def record(self) -> CallRecord:
        if not self._event.is_set() or self._record is None:
            raise RuntimeError("call has not completed")
        return self._record


class NinfClient(ClientState):
    """Client binding to one Ninf computational server: the blocking
    driver of the operations in :mod:`repro.client.core`, always on
    blocking sockets (DESIGN.md §3.6).

    Parameters
    ----------
    timeout:
        Per-operation deadline (seconds) for every frame sent or
        received; expiry raises
        :class:`repro.protocol.errors.TimeoutError` instead of hanging
        on a half-dead peer.
    pool:
        ``True`` (default) keeps TCP connections alive across calls via
        a :class:`~repro.transport.ConnectionPool`; ``False``
        reproduces the paper's connection-per-call behaviour (the
        ablation the LAN benchmarks measure).
    max_idle:
        Seconds a pooled connection may sit idle before eviction.
    retry:
        A :class:`~repro.transport.RetryPolicy` applied to the client's
        *idempotent* operations (``ping``, ``get_signature``,
        ``list_functions``, ``query_load``, detached-result polling).
        By default ``CALL`` is not auto-retried: the server may have
        executed the routine even though the reply was lost, and
        at-most-once is the historical contract.
    retry_calls:
        Opt ``CALL``/``CALL_DETACHED`` into the retry policy too
        (DESIGN.md §3.5).  Safe against double execution because every
        such logical call carries a random ``logical_id`` and the
        server's dedup cache holds its reply and replays it to a later
        attempt instead of recomputing; requires a v3 server.  No
        effect without ``retry``.  Otherwise a call is at-most-once
        and sends an empty ``logical_id``: the server keeps no reply
        that no attempt could ask for.
    call_budget:
        Default per-logical-call deadline budget in seconds, stamped
        on the CALL wire header so the server can shed or expire work
        the client will no longer wait for; ``None`` (default) sends
        no deadline.  Overridable per call via
        ``call_with_record(..., timeout=...)``.
    fault_plan:
        A :class:`~repro.transport.FaultPlan` injected into the
        connection pool -- every channel this client dials becomes a
        fault-injecting one (the chaos-test hook).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` backing this client's
        counters and its pool/transport metrics.  Defaults to a fresh
        private registry, which is what gives the counters their exact
        per-client-lifetime semantics; pass a shared registry to
        aggregate several clients.
    tracer:
        A :class:`~repro.obs.Tracer`; when given, every
        :meth:`call_with_record` emits the OBSERVABILITY.md span
        schema (``ninf.call`` root + phase children) into it.  Its
        clock should agree with ``clock`` (both default to
        ``time.monotonic``).
    shm:
        ``True`` offers the same-host shared-memory transport
        (PROTOCOL.md §"Shared-memory handshake") on every dial; the
        server may still refuse, leaving plain TCP.  ``False`` (default)
        never sends ``SHM_HELLO``.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0,
                 clock=None, pool: bool = True, max_idle: float = 60.0,
                 retry: Optional[RetryPolicy] = None, fault_plan=None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 retry_calls: bool = False,
                 call_budget: Optional[float] = None,
                 shm: bool = False):
        super().__init__(host, port, timeout, clock, retry, metrics, tracer,
                         retry_calls, call_budget)
        self.shm = bool(shm)
        self._pool = ConnectionPool(timeout=timeout, pool=pool,
                                    max_idle_seconds=max_idle,
                                    fault_plan=fault_plan,
                                    metrics=self.metrics, shm=self.shm)

    def __enter__(self) -> "NinfClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the driver -----------------------------------------------------------

    def _perform(self, request):
        """Answer one core request with a blocking call."""
        kind = type(request)
        if kind is core.Send:
            return request.channel.send(request.msg_type, request.payload)
        if kind is core.Recv:
            return request.channel.recv()
        if kind is core.Checkout:
            return self._pool.checkout(self.host, self.port)
        if kind is core.Exchange:
            with self._pool.lease(self.host, self.port) as channel:
                return channel.request(request.msg_type, request.payload,
                                       expect=request.expect)
        sleep = self.retry.sleep if request.backoff else time.sleep
        return sleep(request.seconds)

    def _drive(self, operation: core.Operation):
        """Run one core operation to completion on the calling thread."""
        try:
            request = next(operation)
            while True:
                try:
                    answer = self._perform(request)
                except BaseException as exc:
                    request = operation.throw(exc)
                else:
                    request = operation.send(answer)
        except StopIteration as done:
            return done.value

    # -- calls (the other operations are ClientState's driven methods) ---------

    def call(self, function: str, *args: Any,
             on_callback: Optional[Callable[[float, str], None]] = None
             ) -> list[Any]:
        """``Ninf_call``: invoke ``function`` remotely with ``args``;
        outputs in declaration order, output arrays also updated in
        place (see :func:`repro.client.core.call_with_record`)."""
        outputs, _record = self.call_with_record(function, *args,
                                                 on_callback=on_callback)
        return outputs

    def call_async(self, function: str, *args: Any) -> NinfFuture:
        """``Ninf_call_async``: immediately returns a :class:`NinfFuture`."""
        future = NinfFuture()

        def runner() -> None:
            try:
                outputs, record = self.call_with_record(function, *args)
            except BaseException as exc:
                future._fail(exc)
            else:
                future._fulfill(outputs, record)

        thread = threading.Thread(target=runner, daemon=True,
                                  name=f"ninf-call-{function}")
        thread.start()
        return future

    def transaction(self, peers: Optional[list["NinfClient"]] = None):
        """``Ninf_transaction_begin``: see :class:`~repro.client.Transaction`."""
        from repro.client.transaction import Transaction

        return Transaction([self] + (peers or []))


def parse_ninf_url(url: str) -> tuple[str, int, str]:
    """Split ``ninf://host:port/function`` (scheme optional)."""
    rest = url
    if "://" in rest:
        scheme, rest = rest.split("://", 1)
        if scheme not in ("ninf", "http"):
            raise ValueError(f"unsupported URL scheme {scheme!r}")
    if "/" not in rest:
        raise ValueError(f"Ninf URL needs host:port/function, got {url!r}")
    authority, function = rest.split("/", 1)
    if ":" not in authority:
        raise ValueError(f"Ninf URL needs an explicit port: {url!r}")
    host, port_text = authority.rsplit(":", 1)
    if not function:
        raise ValueError(f"Ninf URL missing function name: {url!r}")
    return host, int(port_text), function


def ninf_call(url: str, *args: Any) -> list[Any]:
    """The paper's free-form API: ``Ninf_call("ninf://host:port/f", ...)``.

    Opens a throwaway client; for repeated calls prefer
    :class:`NinfClient` (signature cache + connection pool).
    """
    host, port, function = parse_ninf_url(url)
    with NinfClient(host, port) as client:
        return client.call(function, *args)


def ninf_call_async(url: str, *args: Any) -> NinfFuture:
    """Asynchronous variant of :func:`ninf_call`.

    The throwaway client's connection pool is closed when the future
    completes (success or failure), so fire-and-forget callers do not
    leak a pooled TCP connection per call.
    """
    host, port, function = parse_ninf_url(url)
    client = NinfClient(host, port)
    future = client.call_async(function, *args)
    future.add_done_callback(lambda _future: client.close())
    return future
