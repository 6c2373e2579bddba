"""Synchronous and asynchronous Ninf_call bindings."""

from __future__ import annotations

import itertools
import threading
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.idl import Signature
from repro.obs import MetricsRegistry, Tracer, names
from repro.obs.trace import (
    SPAN_COMPUTE,
    SPAN_CONNECT,
    SPAN_MARSHAL,
    SPAN_QUEUE,
    SPAN_RECV,
    SPAN_ROOT,
    SPAN_SEND,
    SPAN_UNMARSHAL,
)
from repro.protocol.errors import ProtocolError, RemoteError, ServerBusy
from repro.protocol.marshal import marshal_inputs, unmarshal_outputs
from repro.protocol.messages import (
    BusyReply,
    CallHeader,
    ErrorReply,
    JobTimestamps,
    LoadReply,
    MessageType,
)
from repro.transport import Channel, ConnectionPool, RetryPolicy, is_transient
from repro.xdr import XdrDecoder, XdrEncoder

__all__ = ["CallRecord", "DetachedCall", "NinfClient", "NinfFuture",
           "ninf_call", "ninf_call_async", "parse_ninf_url"]

_call_ids = itertools.count(1)


class _CallPayload:
    """One logical call's CALL / CALL_DETACHED payload, marshalled once:
    the arguments are packed straight into the header's encoder
    (``begin_opaque``/``end_opaque``), never built apart and copied in,
    and attempts differ only in ``attempt``/``budget``, which
    :meth:`stamp` rewrites in place.  Argument errors raise here, before
    any dial.  Stamp only between sends (DESIGN.md §3.1)."""

    def __init__(self, function: str, signature: Signature, call_id: int,
                 args: Sequence[Any]) -> None:
        enc = XdrEncoder()
        CallHeader(function=function, call_id=call_id,
                   logical_id=uuid.uuid4().hex).encode(enc)
        token = enc.begin_opaque()  # its offset is where the header ends
        marshal_inputs(signature, args, into=enc)
        self.args_bytes = len(enc) - token - 4
        enc.end_opaque(token)
        self._enc = enc
        self._header_end = token
        self._attempts = itertools.count(1)

    def stamp(self, deadline: Optional[float],
              clock: Callable[[], float]) -> memoryview:
        """The next attempt's payload: attempt number advanced, budget
        recomputed as what is left until ``deadline`` now."""
        remaining = (0.0 if deadline is None
                     else max(0.001, deadline - clock()))
        CallHeader.restamp(self._enc, self._header_end,
                           next(self._attempts), remaining)
        return self._enc.getbuffer()


@dataclass(frozen=True)
class CallRecord:
    """Everything measured about one completed Ninf_call.

    Client-side times use the client clock; ``server`` times are the
    :class:`JobTimestamps` in the server clock.  ``response`` follows the
    paper's definition ``T_response = T_enqueue - T_submit`` -- with both
    endpoints on one host (the test/benchmark setting) the clocks agree.
    """

    function: str
    call_id: int
    submit_time: float
    complete_time: float
    server: JobTimestamps
    input_bytes: int
    output_bytes: int

    @property
    def elapsed(self) -> float:
        return self.complete_time - self.submit_time

    @property
    def response(self) -> float:
        return self.server.enqueue - self.submit_time

    @property
    def wait(self) -> float:
        return self.server.wait

    @property
    def comm_bytes(self) -> int:
        return self.input_bytes + self.output_bytes

    @property
    def throughput(self) -> float:
        """End-to-end bytes/second including marshalling, per Fig 5."""
        if self.elapsed <= 0:
            return float("inf")
        return self.comm_bytes / self.elapsed


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


@dataclass
class DetachedCall:
    """Phase-one handle of a two-phase Ninf_call (§5.1)."""

    client: "NinfClient"
    function: str
    args: tuple
    signature: Signature
    ticket: int
    call_id: int
    submit_time: float
    input_bytes: int
    record: Optional[CallRecord] = None

    def fetch(self, timeout: Optional[float] = None) -> list[Any]:
        """Collect the result (see :meth:`NinfClient.fetch_detached`)."""
        return self.client.fetch_detached(self, timeout=timeout)


class NinfClient:
    """Client binding to one Ninf computational server.

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
        logical call carries a UUID ``logical_id`` and the server's
        dedup cache replays the first attempt's result instead of
        recomputing; requires a v3 server.  No effect without
        ``retry``.
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
    transport:
        ``"asyncio"`` (default) dials
        :class:`~repro.transport.AsyncChannel` connections on the
        process-wide client loop and wraps them in blocking
        :class:`~repro.transport.FacadeChannel` facades -- the wire
        behaviour, deadlines, and fault-injection draw sequences are
        identical to the threaded transport (DESIGN.md §3.6).
        ``"threads"`` keeps the historical blocking-socket
        :class:`~repro.transport.Channel`.  For a natively
        asynchronous API use :class:`~repro.client.AsyncNinfClient`.
    shm:
        Shared-memory same-host transport (PROTOCOL.md
        §"Shared-memory handshake"), ``transport="threads"`` only:
        ``None`` (default) auto-negotiates when the server host looks
        local and ``NINF_SHM`` does not opt out; ``False`` never
        negotiates; ``True`` always offers the handshake (the server
        may still refuse, leaving plain TCP).  The asyncio transport
        does not negotiate shm -- its ring polling would block the
        shared client loop -- so ``shm=True`` there is an error.

    The counters ``attempts``, ``retries``, and ``faults_seen`` track
    every transport exchange, its retries, and the transient errors
    observed, so experiments can report effective availability; see
    each property for its exact semantics.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0,
                 clock=None, pool: bool = True, max_idle: float = 60.0,
                 retry: Optional[RetryPolicy] = None, fault_plan=None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 retry_calls: bool = False,
                 call_budget: Optional[float] = None,
                 transport: str = "asyncio",
                 shm: Optional[bool] = None):
        import time

        if transport not in ("asyncio", "threads"):
            raise ValueError(f"transport must be 'asyncio' or 'threads', "
                             f"got {transport!r}")
        if shm is True and transport != "threads":
            raise ValueError(
                "shm=True requires transport='threads' (the asyncio "
                "transport does not negotiate shared memory)")
        self.shm = shm if transport == "threads" else False
        self.host = host
        self.port = port
        self.timeout = timeout
        self.clock = clock or time.monotonic
        self.retry = retry
        self.retry_calls = retry_calls
        self.call_budget = call_budget
        self.transport = transport
        self._signatures: dict[str, Signature] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        if transport == "asyncio":
            # Same pool, different wire: every dial yields a
            # FacadeChannel over an AsyncChannel on the shared client
            # loop.  All call/retry/trace logic above the pool is
            # untouched -- the connector is the only transport seam.
            from repro.transport import facade_connect

            def _facade_connector(chost, cport, timeout=None,
                                  connect_timeout=None):
                return facade_connect(chost, cport, timeout=timeout,
                                      connect_timeout=connect_timeout,
                                      fault_plan=fault_plan)

            self._pool = ConnectionPool(timeout=timeout, pool=pool,
                                        max_idle_seconds=max_idle,
                                        connector=_facade_connector,
                                        metrics=self.metrics)
            # connector= and fault_plan= are mutually exclusive in the
            # pool ctor, so restore the plan attribute and its metrics
            # wiring by hand for chaos-test introspection parity.
            self._pool.fault_plan = fault_plan
            if fault_plan is not None and fault_plan.metrics is None:
                fault_plan.metrics = self.metrics
        else:
            self._pool = ConnectionPool(timeout=timeout, pool=pool,
                                        max_idle_seconds=max_idle,
                                        fault_plan=fault_plan,
                                        metrics=self.metrics,
                                        shm=self.shm)
        self.records: list[CallRecord] = []
        self._records_lock = threading.Lock()
        self._attempts = self.metrics.counter(
            names.CLIENT_ATTEMPTS,
            "Transport exchange attempts (idempotent ops and CALL)")
        self._retries = self.metrics.counter(
            names.CLIENT_RETRIES,
            "Retries taken by this client's idempotent operations")
        self._faults_seen = self.metrics.counter(
            names.CLIENT_FAULTS_SEEN,
            "Transient transport errors observed by this client")
        self._call_seconds = self.metrics.histogram(
            names.CLIENT_CALL_SECONDS,
            "End-to-end Ninf_call latency", labelnames=("function",))

    # -- observability --------------------------------------------------------

    @property
    def attempts(self) -> int:
        """Transport exchange attempts made by this client.

        Exact semantics: counts every exchange *started* -- each try of
        a retried idempotent operation (``ping``, ``get_signature``,
        ``list_functions``, ``query_load``, detached-result polling)
        and each try of a ``CALL``/``CALL_DETACHED`` (exactly one per
        call unless ``retry_calls`` opts CALL into the retry policy).
        Per-client lifetime: the count is monotonic from construction
        and is *not* reset by ``with`` blocks, :meth:`close`, or pool
        recycling.  Backed by ``ninf_client_attempts_total`` in
        :attr:`metrics`.
        """
        return int(self._attempts.value())

    @property
    def retries(self) -> int:
        """Retries taken by this client's retried operations.

        Incremented once per backoff-then-retry cycle of the
        :class:`~repro.transport.RetryPolicy` passed as ``retry``:
        always 0 when no policy is set, covers the idempotent
        operations, and covers ``CALL``/``CALL_DETACHED`` only when
        ``retry_calls`` is set (otherwise CALL stays at-most-once and
        never contributes).  Per-client lifetime, monotonic, never
        reset.  Backed by ``ninf_client_retries_total`` in
        :attr:`metrics`.
        """
        return int(self._retries.value())

    @property
    def faults_seen(self) -> int:
        """Transient transport errors this client has observed.

        Incremented when an exchange raises an error classified
        transient by :func:`~repro.transport.is_transient` *except*
        the server's own BUSY/shutdown replies (those are retryable but
        arrive on a healthy transport, so they are not faults), whether
        or not the operation was subsequently retried.  Per-client
        lifetime, monotonic, never reset.  Backed by
        ``ninf_client_faults_seen_total`` in :attr:`metrics`.
        """
        return int(self._faults_seen.value())

    def fetch_stats(self, fmt: str = "json"):
        """Fetch the *server's* metrics snapshot via the ``STATS`` op.

        ``fmt="json"`` returns the decoded snapshot dict
        (:meth:`~repro.obs.MetricsRegistry.snapshot` shape);
        ``fmt="prom"`` returns the Prometheus text exposition as a
        string.  The exchange is idempotent and rides the retry policy.
        """
        import json

        enc = XdrEncoder()
        enc.pack_string(fmt)
        reply = self._idempotent(
            lambda: self._roundtrip(MessageType.STATS, enc.getvalue(),
                                    MessageType.STATS_REPLY)
        )
        dec = XdrDecoder(reply)
        reply_fmt = dec.unpack_string()
        text = dec.unpack_string()
        dec.done()
        if reply_fmt == "json":
            return json.loads(text)
        return text

    # -- connection pool ------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether connections are kept alive across calls."""
        return self._pool.pooling

    def _connect(self) -> Channel:
        return self._pool.checkout(self.host, self.port)

    def _release(self, channel: Channel) -> None:
        self._pool.checkin(channel)

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "NinfClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- service queries -----------------------------------------------------------

    def _roundtrip(self, msg_type: int, payload: bytes, expect: int) -> bytes:
        """One pooled request/reply exchange; burns the channel on error."""
        with self._pool.lease(self.host, self.port) as channel:
            _reply_type, reply = channel.request(msg_type, payload,
                                                 expect=expect)
        return reply

    def _counted(self, fn):
        """Run one exchange attempt, tracking attempts and faults seen."""
        self._attempts.inc()
        try:
            return fn()
        except BaseException as exc:
            # Shed/shutdown replies are transient (retryable) but not
            # transport faults -- the wire worked fine.
            if is_transient(exc) and not isinstance(exc, RemoteError):
                self._faults_seen.inc()
            raise

    def _idempotent(self, fn):
        """Run a side-effect-free exchange under the retry policy."""
        if self.retry is None:
            return self._counted(fn)

        def on_retry(_attempt: int, _exc: BaseException) -> None:
            self._retries.inc()

        return self.retry.run(lambda: self._counted(fn), on_retry=on_retry)

    def ping(self) -> bool:
        """Liveness probe: True when the server answers PING."""
        try:
            self._idempotent(
                lambda: self._roundtrip(MessageType.PING, b"",
                                        MessageType.PONG)
            )
            return True
        except (OSError, ProtocolError):
            return False

    def list_functions(self) -> list[str]:
        """Names of every executable registered on the server."""
        reply = self._idempotent(
            lambda: self._roundtrip(MessageType.LIST_REQUEST, b"",
                                    MessageType.LIST_REPLY)
        )
        dec = XdrDecoder(reply)
        return dec.unpack_array(dec.unpack_string)

    def query_load(self) -> LoadReply:
        """The server-state snapshot the metaserver monitors."""
        reply = self._idempotent(
            lambda: self._roundtrip(MessageType.LOAD_QUERY, b"",
                                    MessageType.LOAD_REPLY)
        )
        return LoadReply.decode(XdrDecoder(reply))

    def get_signature(self, function: str) -> Signature:
        """Stage one of the two-stage RPC (cached per client)."""
        cached = self._signatures.get(function)
        if cached is not None:
            return cached
        enc = XdrEncoder()
        enc.pack_string(function)
        reply = self._idempotent(
            lambda: self._roundtrip(MessageType.INTERFACE_REQUEST,
                                    enc.getvalue(),
                                    MessageType.INTERFACE_REPLY)
        )
        signature = Signature.from_wire(reply)
        self._signatures[function] = signature
        return signature

    # -- the call itself ---------------------------------------------------------------

    def call(self, function: str, *args: Any,
             on_callback: Optional[Callable[[float, str], None]] = None
             ) -> list[Any]:
        """``Ninf_call``: invoke ``function`` remotely with ``args``.

        Output arrays passed by the caller are updated in place
        (call-by-reference semantics of the C API); outputs are also
        returned as a list in declaration order.  ``on_callback``
        receives ``(progress, message)`` events if the remote
        executable streams them (the IDL's client callback functions).
        """
        outputs, _record = self.call_with_record(function, *args,
                                                 on_callback=on_callback)
        return outputs

    def call_with_record(
        self, function: str, *args: Any,
        on_callback: Optional[Callable[[float, str], None]] = None,
        timeout: Optional[float] = None,
    ) -> tuple[list[Any], CallRecord]:
        """Like :meth:`call`, also returning the :class:`CallRecord`.

        When the client has an enabled :attr:`tracer`, the call emits
        the OBSERVABILITY.md span schema: a ``ninf.call`` root plus
        ``call.marshal`` / ``call.connect`` / ``call.send`` /
        ``call.recv`` / ``call.unmarshal`` children on the client clock
        and retrospective ``call.queue`` / ``call.compute`` children
        reconstructed from the server's :class:`JobTimestamps`
        (``clock="server-wall"``).

        ``timeout`` is this logical call's deadline budget (defaulting
        to the client's ``call_budget``): the remaining budget rides
        the wire header so the server can shed or expire the job, and
        it bounds the retry loop when ``retry_calls`` is enabled.  With
        ``retry_calls``, every attempt reuses the same ``call_id`` and
        ``logical_id`` (with an incremented attempt number), which is
        what lets the server's dedup cache replay a completed first
        attempt instead of recomputing.
        """
        signature = self.get_signature(function)
        submit_time = self.clock()
        call_id = next(_call_ids)
        budget = self.call_budget if timeout is None else timeout
        deadline = None if budget is None else submit_time + budget
        trace = self.tracer.trace(SPAN_ROOT, start=submit_time,
                                  function=function, call_id=call_id,
                                  source="live")
        def attempt() -> bytes:
            """One wire attempt of the logical call; returns the RESULT
            payload.  Re-invoked by the retry policy (same logical id,
            fresh attempt number and re-computed remaining budget)."""
            payload = call.stamp(deadline, self.clock)
            self._attempts.inc()
            with trace.span(SPAN_CONNECT):
                channel = self._connect()
            try:
                with trace.span(SPAN_SEND):
                    channel.send(MessageType.CALL, payload)
                recv_start = self.clock()
                while True:
                    reply_type, reply = channel.recv()
                    if reply_type == MessageType.CALLBACK:
                        dec = XdrDecoder(reply)
                        cb_call_id = dec.unpack_uhyper()
                        progress = dec.unpack_double()
                        message = dec.unpack_string()
                        dec.done()
                        if on_callback is not None and cb_call_id == call_id:
                            on_callback(progress, message)
                        continue
                    break
                # The recv window covers server queueing + compute as
                # seen from the client; the breakdown derives transfer
                # as total - queue - compute, so the overlap is fine.
                trace.record(SPAN_RECV, recv_start, self.clock())
                if reply_type == MessageType.ERROR:
                    err = ErrorReply.decode(XdrDecoder(reply))
                    raise RemoteError(err.code, err.message)
                if reply_type == MessageType.BUSY:
                    busy = BusyReply.decode(XdrDecoder(reply))
                    raise ServerBusy(busy.reason,
                                     retry_after=busy.retry_after)
                if reply_type != MessageType.RESULT:
                    raise ProtocolError(
                        f"expected RESULT, got message {reply_type}"
                    )
            except BaseException as exc:
                if is_transient(exc) and not isinstance(exc, RemoteError):
                    self._faults_seen.inc()
                self._pool.discard(channel)
                raise
            self._release(channel)
            return reply

        try:
            with trace.span(SPAN_MARSHAL):
                call = _CallPayload(function, signature, call_id, args)
            if self.retry is not None and self.retry_calls:
                # Exactly-once: safe because the server dedups on
                # logical_id (DESIGN.md §3.5).
                reply = self.retry.run(
                    attempt,
                    on_retry=lambda _a, _e: self._retries.inc(),
                    deadline=deadline, clock=self.clock)
            else:
                # Historical at-most-once CALL: one shot only.
                reply = attempt()
            with trace.span(SPAN_UNMARSHAL):
                dec = XdrDecoder(reply)
                reply_id = dec.unpack_uhyper()
                if reply_id != call_id:
                    raise ProtocolError(
                        f"result for call {reply_id}, expected {call_id}"
                    )
                timestamps = JobTimestamps.decode(dec)
                out_payload = dec.unpack_opaque_view()
                dec.done()
                outputs = unmarshal_outputs(signature, out_payload)
            # Server-side phases, reconstructed from JobTimestamps.
            # Timestamps are in the server's clock ("server-wall"):
            # durations are comparable across clocks, absolute start/end
            # values are not (OBSERVABILITY.md, clock-injection rules).
            trace.record(SPAN_QUEUE, timestamps.enqueue, timestamps.dequeue,
                         clock="server-wall")
            trace.record(SPAN_COMPUTE, timestamps.dequeue,
                         timestamps.complete, clock="server-wall")
            complete_time = self.clock()
        except BaseException:
            trace.end(at=self.clock(), status="error")
            raise
        self._write_back(signature, args, outputs)
        self._call_seconds.observe(complete_time - submit_time,
                                   function=function)
        trace.end(at=complete_time, status="ok")
        record = CallRecord(
            function=function,
            call_id=call_id,
            submit_time=submit_time,
            complete_time=complete_time,
            server=timestamps,
            input_bytes=call.args_bytes,
            output_bytes=len(out_payload),
        )
        with self._records_lock:
            self.records.append(record)
        return outputs, record

    # -- two-phase RPC (§5.1) ------------------------------------------------

    def call_detached(self, function: str, *args: Any,
                      timeout: Optional[float] = None) -> "DetachedCall":
        """Phase one: upload arguments and get a ticket; no connection is
        held while the server computes ("remote argument transfer takes
        place in the first phase, whereupon the communication is
        terminated").

        ``timeout`` (default: the client's ``call_budget``) rides the
        wire header as the deadline budget; a retried submission (with
        ``retry_calls``) replays the same logical id, so a lost
        CALL_ACCEPTED yields the original ticket rather than a second
        queued job.
        """
        signature = self.get_signature(function)
        submit_time = self.clock()
        budget = self.call_budget if timeout is None else timeout
        deadline = None if budget is None else submit_time + budget
        call_id = next(_call_ids)
        call = _CallPayload(function, signature, call_id, args)

        def submit_once() -> bytes:
            return self._roundtrip(MessageType.CALL_DETACHED,
                                   call.stamp(deadline, self.clock),
                                   MessageType.CALL_ACCEPTED)

        if self.retry is not None and self.retry_calls:
            reply = self.retry.run(
                lambda: self._counted(submit_once),
                on_retry=lambda _a, _e: self._retries.inc(),
                deadline=deadline, clock=self.clock)
        else:
            reply = submit_once()
        dec = XdrDecoder(reply)
        reply_id = dec.unpack_uhyper()
        ticket = dec.unpack_uhyper()
        dec.done()
        if reply_id != call_id:
            raise ProtocolError(f"accept for call {reply_id}, "
                                f"expected {call_id}")
        return DetachedCall(client=self, function=function, args=args,
                            signature=signature, ticket=ticket,
                            call_id=call_id, submit_time=submit_time,
                            input_bytes=call.args_bytes)

    def fetch_detached(self, call: "DetachedCall",
                       timeout: Optional[float] = None,
                       poll_interval: float = 0.02) -> list[Any]:
        """Phase two: poll (over pooled connections) until the result is
        ready, then unmarshal and write back output arrays."""
        import time as _time

        deadline = None if timeout is None else self.clock() + timeout

        def poll_once() -> tuple[int, bytes]:
            enc = XdrEncoder()
            enc.pack_uhyper(call.ticket)
            channel = self._connect()
            try:
                channel.send(MessageType.FETCH_RESULT, enc.getvalue())
                reply_type, reply = channel.recv()
            except BaseException:
                self._pool.discard(channel)
                raise
            self._release(channel)
            return reply_type, reply

        while True:
            # Fetching by ticket is idempotent: the server keeps the
            # result until it is collected, so retry is safe here.
            reply_type, reply = self._idempotent(poll_once)
            if reply_type == MessageType.ERROR:
                err = ErrorReply.decode(XdrDecoder(reply))
                raise RemoteError(err.code, err.message)
            if reply_type == MessageType.RESULT_PENDING:
                if deadline is not None and self.clock() >= deadline:
                    # Deadline expired: tell the server to drop the job
                    # if it is still queued (best-effort) — no point
                    # computing a result nobody will fetch.
                    self.cancel_detached(call)
                    raise TimeoutError(
                        f"detached call {call.function} (ticket "
                        f"{call.ticket}) still pending"
                    )
                _time.sleep(poll_interval)
                continue
            if reply_type != MessageType.RESULT:
                raise ProtocolError(f"unexpected reply {reply_type} to fetch")
            dec = XdrDecoder(reply)
            ticket = dec.unpack_uhyper()
            if ticket != call.ticket:
                raise ProtocolError(
                    f"result for ticket {ticket}, expected {call.ticket}"
                )
            timestamps = JobTimestamps.decode(dec)
            out_payload = dec.unpack_opaque_view()
            dec.done()
            outputs = unmarshal_outputs(call.signature, out_payload)
            self._write_back(call.signature, call.args, outputs)
            record = CallRecord(
                function=call.function,
                call_id=call.call_id,
                submit_time=call.submit_time,
                complete_time=self.clock(),
                server=timestamps,
                input_bytes=call.input_bytes,
                output_bytes=len(out_payload),
            )
            call.record = record
            with self._records_lock:
                self.records.append(record)
            return outputs

    def cancel_detached(self, call: "DetachedCall") -> bool:
        """Ask the server to drop a still-queued detached call.

        Best-effort and idempotent: returns ``True`` when the server
        confirms it dropped the queued job (counted server-side in
        ``ninf_server_jobs_cancelled_total``), ``False`` when the job
        already ran, the ticket is unknown, or the server is
        unreachable.  Running jobs are never interrupted.
        """
        enc = XdrEncoder()
        enc.pack_uhyper(call.ticket)
        try:
            reply = self._roundtrip(MessageType.CANCEL, enc.getvalue(),
                                    MessageType.CANCEL_REPLY)
        except (OSError, ProtocolError, RemoteError):
            return False
        dec = XdrDecoder(reply)
        ticket = dec.unpack_uhyper()
        dropped = dec.unpack_bool()
        dec.done()
        return dropped and ticket == call.ticket

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

    @staticmethod
    def _write_back(signature: Signature, args: Sequence[Any],
                    outputs: list[Any]) -> None:
        """In-place update of caller-provided output arrays."""
        out_iter = iter(outputs)
        for spec, arg in zip(signature.args, args):
            if not spec.is_output:
                continue
            value = next(out_iter)
            if spec.is_array and isinstance(arg, np.ndarray):
                if arg.shape == value.shape:
                    np.copyto(arg, value, casting="unsafe")

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
