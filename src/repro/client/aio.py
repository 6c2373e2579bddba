"""The natively asynchronous Ninf client.

:class:`AsyncNinfClient` is :class:`~repro.client.NinfClient` rewritten
as coroutines over :class:`~repro.transport.AsyncConnectionPool`: same
two-stage RPC, same signature cache, same retry/dedup/deadline
semantics, same :class:`~repro.client.api.CallRecord` bookkeeping and
OBSERVABILITY.md span schema -- but ``await client.call(...)`` runs on
the caller's event loop with no bridge thread and no blocking socket,
so one process can keep thousands of calls in flight.

The sync :class:`~repro.client.NinfClient` remains the blocking facade
(its default ``transport="asyncio"`` drives
:class:`~repro.transport.FacadeChannel` connections on the shared
client loop); this class is for callers that already live in asyncio.

Loop affinity: all coroutine methods must run on one loop (the pool is
loop-affine).  ``close()`` is synchronous and thread-safe, matching
the channel contract.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.client.api import CallRecord, DetachedCall, _CallPayload, \
    _call_ids
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
from repro.protocol.errors import ProtocolError, RemoteError, ServerBusy, \
    TimeoutError
from repro.protocol.marshal import unmarshal_outputs
from repro.protocol.messages import (
    BusyReply,
    ErrorReply,
    JobTimestamps,
    LoadReply,
    MessageType,
)
from repro.transport import AsyncConnectionPool, RetryPolicy, is_transient
from repro.xdr import XdrDecoder, XdrEncoder

__all__ = ["AsyncNinfClient"]


class AsyncNinfClient:
    """Async client binding to one Ninf computational server.

    Construction parameters match :class:`~repro.client.NinfClient`
    (``host``/``port``/``timeout``/``pool``/``max_idle``/``retry``/
    ``retry_calls``/``call_budget``/``fault_plan``/``metrics``/
    ``tracer``/``clock``) with identical semantics -- see that class
    for the full parameter documentation.  The ``retry`` policy's
    backoff schedule is honoured with ``asyncio.sleep``, so a seeded
    policy replays the same schedule on either client.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0,
                 clock=None, pool: bool = True, max_idle: float = 60.0,
                 retry: Optional[RetryPolicy] = None, fault_plan=None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 retry_calls: bool = False,
                 call_budget: Optional[float] = None):
        import time

        self.host = host
        self.port = port
        self.timeout = timeout
        self.clock = clock or time.monotonic
        self.retry = retry
        self.retry_calls = retry_calls
        self.call_budget = call_budget
        self._signatures: dict[str, Signature] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._pool = AsyncConnectionPool(timeout=timeout, pool=pool,
                                         max_idle_seconds=max_idle,
                                         fault_plan=fault_plan,
                                         metrics=self.metrics)
        # Loop-affine (appended between awaits only); unlike the sync
        # client there is no cross-thread writer, so no lock.
        self.records: list[CallRecord] = []
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

    # -- observability -------------------------------------------------------

    @property
    def attempts(self) -> int:
        """Transport exchange attempts (see :class:`NinfClient`)."""
        return int(self._attempts.value())

    @property
    def retries(self) -> int:
        """Retries taken by retried operations (see :class:`NinfClient`)."""
        return int(self._retries.value())

    @property
    def faults_seen(self) -> int:
        """Transient transport errors observed (see :class:`NinfClient`)."""
        return int(self._faults_seen.value())

    async def fetch_stats(self, fmt: str = "json"):
        """Fetch the *server's* metrics snapshot via the ``STATS`` op."""
        import json

        enc = XdrEncoder()
        enc.pack_string(fmt)
        reply = await self._idempotent(
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

    # -- connection pool -----------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether connections are kept alive across calls."""
        return self._pool.pooling

    def close(self) -> None:
        """Close every pooled connection (idempotent, synchronous)."""
        self._pool.close()

    async def __aenter__(self) -> "AsyncNinfClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    # -- retry plumbing ------------------------------------------------------

    async def _roundtrip(self, msg_type: int, payload: bytes,
                         expect: int) -> bytes:
        """One pooled request/reply exchange; burns the channel on error."""
        async with self._pool.lease(self.host, self.port) as channel:
            _reply_type, reply = await channel.request(msg_type, payload,
                                                       expect=expect)
        return reply

    async def _counted(self, fn):
        """Run one exchange attempt, tracking attempts and faults seen."""
        self._attempts.inc()
        try:
            return await fn()
        except BaseException as exc:
            if is_transient(exc) and not isinstance(exc, RemoteError):
                self._faults_seen.inc()
            raise

    async def _retrying(self, fn, deadline: Optional[float] = None):
        """The async twin of ``RetryPolicy.run``: same classification,
        same attempt/retry counters, same jittered backoff schedule and
        ``retry_after`` stretch, but the sleeps are ``asyncio.sleep``
        so the loop stays live."""
        policy = self.retry
        attempt = 1
        while True:
            with policy._lock:
                policy.attempts += 1
            if policy._attempts_metric is not None:
                policy._attempts_metric.inc()
            try:
                return await fn()
            except BaseException as exc:
                if (not policy.classify(exc)
                        or attempt >= policy.max_attempts
                        or (deadline is not None
                            and self.clock() >= deadline)):
                    raise
                failure = exc
            with policy._lock:
                policy.retries += 1
            if policy._retries_metric is not None:
                policy._retries_metric.inc()
            self._retries.inc()
            delay = policy.backoff(attempt)
            hint = getattr(failure, "retry_after", 0.0)
            if hint:
                delay = max(delay, min(float(hint), policy.max_delay))
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - self.clock()))
            await asyncio.sleep(delay)
            attempt += 1

    async def _idempotent(self, fn):
        """Run a side-effect-free exchange under the retry policy."""
        if self.retry is None:
            return await self._counted(fn)
        return await self._retrying(lambda: self._counted(fn))

    # -- service queries -----------------------------------------------------

    async def ping(self) -> bool:
        """Liveness probe: True when the server answers PING."""
        try:
            await self._idempotent(
                lambda: self._roundtrip(MessageType.PING, b"",
                                        MessageType.PONG)
            )
            return True
        except (OSError, ProtocolError):
            return False

    async def list_functions(self) -> list[str]:
        """Names of every executable registered on the server."""
        reply = await self._idempotent(
            lambda: self._roundtrip(MessageType.LIST_REQUEST, b"",
                                    MessageType.LIST_REPLY)
        )
        dec = XdrDecoder(reply)
        return dec.unpack_array(dec.unpack_string)

    async def query_load(self) -> LoadReply:
        """The server-state snapshot the metaserver monitors."""
        reply = await self._idempotent(
            lambda: self._roundtrip(MessageType.LOAD_QUERY, b"",
                                    MessageType.LOAD_REPLY)
        )
        return LoadReply.decode(XdrDecoder(reply))

    async def get_signature(self, function: str) -> Signature:
        """Stage one of the two-stage RPC (cached per client)."""
        cached = self._signatures.get(function)
        if cached is not None:
            return cached
        enc = XdrEncoder()
        enc.pack_string(function)
        reply = await self._idempotent(
            lambda: self._roundtrip(MessageType.INTERFACE_REQUEST,
                                    enc.getvalue(),
                                    MessageType.INTERFACE_REPLY)
        )
        signature = Signature.from_wire(reply)
        self._signatures[function] = signature
        return signature

    # -- the call itself -----------------------------------------------------

    async def call(self, function: str, *args: Any,
                   on_callback: Optional[Callable[[float, str], None]] = None
                   ) -> list[Any]:
        """``Ninf_call``, awaitable: invoke ``function`` remotely.

        Output arrays passed by the caller are updated in place and
        outputs are returned in declaration order, exactly as in
        :meth:`NinfClient.call`.
        """
        outputs, _record = await self.call_with_record(
            function, *args, on_callback=on_callback)
        return outputs

    async def call_with_record(
        self, function: str, *args: Any,
        on_callback: Optional[Callable[[float, str], None]] = None,
        timeout: Optional[float] = None,
    ) -> tuple[list[Any], CallRecord]:
        """Like :meth:`call`, also returning the :class:`CallRecord`.

        Semantics (deadline budget on the wire header, span schema,
        ``retry_calls`` replaying the same logical id against the
        server's dedup cache) match
        :meth:`NinfClient.call_with_record` exactly.
        """
        signature = await self.get_signature(function)
        submit_time = self.clock()
        call_id = next(_call_ids)
        budget = self.call_budget if timeout is None else timeout
        deadline = None if budget is None else submit_time + budget
        trace = self.tracer.trace(SPAN_ROOT, start=submit_time,
                                  function=function, call_id=call_id,
                                  source="live")

        async def attempt() -> bytes:
            payload = call.stamp(deadline, self.clock)
            self._attempts.inc()
            with trace.span(SPAN_CONNECT):
                channel = await self._pool.checkout(self.host, self.port)
            try:
                with trace.span(SPAN_SEND):
                    await channel.send(MessageType.CALL, payload)
                recv_start = self.clock()
                while True:
                    reply_type, reply = await channel.recv()
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
            self._pool.checkin(channel)
            return reply

        try:
            with trace.span(SPAN_MARSHAL):
                call = _CallPayload(function, signature, call_id, args)
            if self.retry is not None and self.retry_calls:
                reply = await self._retrying(attempt, deadline=deadline)
            else:
                reply = await attempt()
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
        self.records.append(record)
        return outputs, record

    # -- two-phase RPC (§5.1) ------------------------------------------------

    async def call_detached(self, function: str, *args: Any,
                            timeout: Optional[float] = None) -> DetachedCall:
        """Phase one: upload arguments and get a ticket (see
        :meth:`NinfClient.call_detached`)."""
        signature = await self.get_signature(function)
        submit_time = self.clock()
        budget = self.call_budget if timeout is None else timeout
        deadline = None if budget is None else submit_time + budget
        call_id = next(_call_ids)
        call = _CallPayload(function, signature, call_id, args)

        async def submit_once() -> bytes:
            return await self._roundtrip(MessageType.CALL_DETACHED,
                                         call.stamp(deadline, self.clock),
                                         MessageType.CALL_ACCEPTED)

        if self.retry is not None and self.retry_calls:
            reply = await self._retrying(
                lambda: self._counted(submit_once), deadline=deadline)
        else:
            reply = await submit_once()
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

    async def fetch_detached(self, call: DetachedCall,
                             timeout: Optional[float] = None,
                             poll_interval: float = 0.02) -> list[Any]:
        """Phase two: poll until the result is ready, then unmarshal
        and write back output arrays (see
        :meth:`NinfClient.fetch_detached`)."""
        deadline = None if timeout is None else self.clock() + timeout

        async def poll_once() -> tuple[int, bytes]:
            enc = XdrEncoder()
            enc.pack_uhyper(call.ticket)
            channel = await self._pool.checkout(self.host, self.port)
            try:
                await channel.send(MessageType.FETCH_RESULT, enc.getvalue())
                reply_type, reply = await channel.recv()
            except BaseException:
                self._pool.discard(channel)
                raise
            self._pool.checkin(channel)
            return reply_type, reply

        while True:
            reply_type, reply = await self._idempotent(poll_once)
            if reply_type == MessageType.ERROR:
                err = ErrorReply.decode(XdrDecoder(reply))
                raise RemoteError(err.code, err.message)
            if reply_type == MessageType.RESULT_PENDING:
                if deadline is not None and self.clock() >= deadline:
                    await self.cancel_detached(call)
                    raise TimeoutError(
                        f"detached call {call.function} (ticket "
                        f"{call.ticket}) still pending"
                    )
                await asyncio.sleep(poll_interval)
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
            self.records.append(record)
            return outputs

    async def cancel_detached(self, call: DetachedCall) -> bool:
        """Ask the server to drop a still-queued detached call
        (best-effort and idempotent; see
        :meth:`NinfClient.cancel_detached`)."""
        enc = XdrEncoder()
        enc.pack_uhyper(call.ticket)
        try:
            reply = await self._roundtrip(MessageType.CANCEL, enc.getvalue(),
                                          MessageType.CANCEL_REPLY)
        except (OSError, ProtocolError, RemoteError):
            return False
        dec = XdrDecoder(reply)
        ticket = dec.unpack_uhyper()
        dropped = dec.unpack_bool()
        dec.done()
        return dropped and ticket == call.ticket

    @staticmethod
    def _write_back(signature: Signature, args, outputs: list[Any]) -> None:
        """In-place update of caller-provided output arrays."""
        from repro.client.api import NinfClient

        NinfClient._write_back(signature, args, outputs)
