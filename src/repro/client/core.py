"""The sans-IO client core: every client operation, written once.

Each operation (``ping``, ``list_functions``, ``query_load``,
``get_signature``, ``fetch_stats``, ``call_with_record``,
``call_detached``, ``fetch_detached``, ``cancel_detached``) is a plain
generator over one :class:`ClientState`.  An operation never touches a
socket or ``time.sleep``: it ``yield``\\ s one of five requests --
:class:`Checkout`, :class:`Send`, :class:`Recv`, :class:`Exchange`,
:class:`Sleep` -- and is resumed with the answer, or has the I/O error
thrown in.  :class:`~repro.client.NinfClient` performs the requests
with blocking sockets on the calling thread (DESIGN.md §3.6).  All wire
knowledge of the client -- payload layouts, reply classification,
retry, spans, :class:`CallRecord` bookkeeping -- lives here;
``checkin``/``discard`` never block and are called directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from os import urandom
from typing import Any, Callable, Generator, NamedTuple, Optional, Sequence

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
from repro.protocol.errors import ProtocolError, RemoteError, TimeoutError
from repro.protocol.marshal import marshal_inputs, unmarshal_outputs
from repro.protocol.messages import (
    CALL_HEADER,
    CallHeader,
    JobTimestamps,
    MessageType,
    checked_reply,
    pack,
    unpack,
)
from repro.transport.retry import RetryPolicy, is_transient
from repro.xdr import XdrEncoder
from repro.xdr.bulk import Payload

__all__ = ["CallRecord", "Checkout", "ClientState", "DetachedCall",
           "Exchange", "Recv", "Send", "Sleep"]

_call_ids = itertools.count(1)

#: The span scope of a call traced by no one.
_UNTRACED = nullcontext()

#: What an operation is to its driver: yields requests, returns a value.
Operation = Generator[Any, Any, Any]


# -- the requests an operation may yield ------------------------------------

class Checkout(NamedTuple):
    """An open channel to the client's server; answered with it."""


class Send(NamedTuple):
    """Write one frame on ``channel``; answered with ``None``."""

    channel: Any
    msg_type: int
    payload: Any


class Recv(NamedTuple):
    """Read one frame from ``channel``; answered ``(msg_type, payload)``."""

    channel: Any


class Exchange(NamedTuple):
    """One leased ``channel.request``: checkout, send, receive, checkin
    -- the channel is discarded on any error, ERROR/BUSY replies raise,
    and a reply other than ``expect`` (when given) is a
    :class:`ProtocolError`.  Answered ``(reply_type, reply)``."""

    msg_type: int
    payload: Any = b""
    expect: Optional[int] = None


class Sleep(NamedTuple):
    """Wait ``seconds``.  ``backoff`` marks a retry-policy delay, which
    the blocking driver hands to the policy's injectable ``sleep``."""

    seconds: float
    backoff: bool = False


# -- values -------------------------------------------------------------------

class _CallPayload:
    """One logical call's CALL / CALL_DETACHED payload, marshalled once:
    the arguments are packed straight into the payload's opaque tail
    (reserved once, filled in place), never built apart and copied in,
    and attempts differ only in ``attempt``/``budget``, which
    :meth:`stamp` rewrites in place.  Bulk arrays stay unwritten, held
    by reference as the payload's regions: every attempt converts them
    straight from the caller's arrays, into ring memory or through the
    sending thread's piece buffer onto a socket.  Argument
    errors raise here, before any dial.  Stamp only between sends
    (DESIGN.md §3.1).  ``logical_id`` stays ``""`` unless the client
    may send the call again (:func:`_resends_calls`)."""

    args_bytes: int     #: size of the marshalled argument block
    _header_end: int    #: offset of the args length word: the header's end

    def __init__(self, function: str, signature: Signature, call_id: int,
                 args: Sequence[Any], logical_id: str = "") -> None:
        def fill(enc: XdrEncoder) -> None:
            self._header_end = len(enc) - 4    # word just reserved
            marshal_inputs(signature, args, into=enc)
            self.args_bytes = len(enc) - self._header_end - 4

        self._payload = pack(
            MessageType.CALL,
            CallHeader(function=function, call_id=call_id,
                       logical_id=logical_id), fill)
        self._attempts = itertools.count(1)

    def stamp(self, deadline: Optional[float],
              clock: Callable[[], float]) -> memoryview | Payload:
        """The next attempt's payload: attempt number advanced, budget
        recomputed as what is left until ``deadline`` now."""
        remaining = (0.0 if deadline is None
                     else max(0.001, deadline - clock()))
        tail = CALL_HEADER.tail     # attempt + budget, as they sit on the wire
        payload = self._payload
        tail.pack_into(payload.head if isinstance(payload, Payload)
                       else payload, self._header_end - tail.size,
                       next(self._attempts), remaining)
        return payload


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


@dataclass
class DetachedCall:
    """Phase-one handle of a two-phase Ninf_call (§5.1)."""

    client: "ClientState"
    function: str
    args: tuple
    signature: Signature
    ticket: int
    call_id: int
    submit_time: float
    input_bytes: int
    record: Optional[CallRecord] = None

    def fetch(self, timeout: Optional[float] = None):
        """Collect the result through the client that made the call
        (its ``fetch_detached``: a list, or an awaitable of one)."""
        return self.client.fetch_detached(self, timeout=timeout)


# -- retry plumbing -----------------------------------------------------------

def _note_fault(state: ClientState, exc: BaseException) -> None:
    # Shed/shutdown replies are transient (retryable) but not transport
    # faults -- the wire worked fine.
    if is_transient(exc) and not isinstance(exc, RemoteError):
        state._faults_seen.inc()


def _counted(state: ClientState, request: Exchange) -> Operation:
    """One exchange attempt, tracking attempts and faults seen."""
    state._attempts.inc()
    try:
        return (yield request)
    except BaseException as exc:
        _note_fault(state, exc)
        raise


def _retrying(state: ClientState, attempt: Callable[[], Operation],
              deadline: Optional[float] = None) -> Operation:
    """``attempt()`` under the client's retry policy (one shot without a
    policy): :meth:`RetryPolicy.run` with the backoff as a :class:`Sleep`
    request -- same decisions, same counters, same seeded schedule."""
    policy, tries = state.retry, 1
    if policy is None:
        return (yield from attempt())
    while True:
        policy.count_attempt()
        try:
            return (yield from attempt())
        except BaseException as exc:
            delay = policy.retry_delay(tries, exc, deadline, state.clock)
        state._retries.inc()
        yield Sleep(delay, backoff=True)
        tries += 1


def _idempotent(state: ClientState, request: Exchange) -> Operation:
    """Run a side-effect-free exchange under the retry policy."""
    return _retrying(state, lambda: _counted(state, request))


def _resends_calls(state: ClientState) -> bool:
    """Whether a CALL / CALL_DETACHED may be sent again: a ``retry``
    policy and ``retry_calls`` (DESIGN.md §3.5).  The one rule behind
    both a call's :func:`_logical_id` and whether :func:`_retrying`
    drives its attempts (else its one attempt runs bare)."""
    return state.retry is not None and state.retry_calls


def _logical_id(resends: bool) -> str:
    """A fresh logical id for a call that may be sent again, so the
    server's dedup cache can replay the reply; ``""`` -- no dedup, the
    server keeps nothing -- for an at-most-once call."""
    return urandom(16).hex() if resends else ""


def _budget(state: ClientState, timeout: Optional[float],
            now: float) -> Optional[float]:
    """A logical call's absolute deadline on the client clock."""
    budget = state.call_budget if timeout is None else timeout
    return None if budget is None else now + budget


# -- service queries ----------------------------------------------------------

def ping(state: ClientState) -> Operation:
    """Liveness probe: True when the server answers PING."""
    try:
        yield from _idempotent(
            state, Exchange(MessageType.PING, expect=MessageType.PONG))
        return True
    except (OSError, ProtocolError):
        return False


def list_functions(state: ClientState) -> Operation:
    """Names of every executable registered on the server."""
    _type, reply = yield from _idempotent(
        state, Exchange(MessageType.LIST_REQUEST,
                        expect=MessageType.LIST_REPLY))
    (functions,) = unpack(MessageType.LIST_REPLY, reply)
    return list(functions)


def query_load(state: ClientState) -> Operation:
    """The server-state snapshot the metaserver monitors."""
    _type, reply = yield from _idempotent(
        state, Exchange(MessageType.LOAD_QUERY,
                        expect=MessageType.LOAD_REPLY))
    (load,) = unpack(MessageType.LOAD_REPLY, reply)
    return load


def get_signature(state: ClientState, function: str) -> Operation:
    """Stage one of the two-stage RPC (cached per client)."""
    cached = state._signatures.get(function)
    if cached is not None:
        return cached
    _type, reply = yield from _idempotent(
        state, Exchange(MessageType.INTERFACE_REQUEST,
                        pack(MessageType.INTERFACE_REQUEST, function),
                        expect=MessageType.INTERFACE_REPLY))
    (signature,) = unpack(MessageType.INTERFACE_REPLY, reply)
    state._signatures[function] = signature
    return signature


def fetch_stats(state: ClientState, fmt: str = "json") -> Operation:
    """The *server's* metrics snapshot via the ``STATS`` op.

    ``fmt="json"`` returns the decoded snapshot dict
    (:meth:`~repro.obs.MetricsRegistry.snapshot` shape); ``fmt="prom"``
    returns the Prometheus text exposition as a string.  The exchange
    is idempotent and rides the retry policy.
    """
    _type, reply = yield from _idempotent(
        state, Exchange(MessageType.STATS, pack(MessageType.STATS, fmt),
                        expect=MessageType.STATS_REPLY))
    reply_fmt, text = unpack(MessageType.STATS_REPLY, reply)
    return json.loads(text) if reply_fmt == "json" else text


# -- the call itself ----------------------------------------------------------

def _decode_result(reply_type: int, reply: Any, expected_id: int,
                   what: str) -> tuple[JobTimestamps, memoryview]:
    """Classify a terminal reply: ERROR and BUSY raise, anything but the
    RESULT for ``expected_id`` is a :class:`ProtocolError`; returns the
    server's timestamps and a view of the marshalled outputs."""
    reply = checked_reply(reply_type, reply, expect=MessageType.RESULT)
    reply_id, timestamps, out_payload = unpack(MessageType.RESULT, reply)
    if reply_id != expected_id:
        raise ProtocolError(
            f"result for {what} {reply_id}, expected {expected_id}")
    return timestamps, out_payload


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


def call_with_record(
    state: ClientState, function: str, *args: Any,
    on_callback: Optional[Callable[[float, str], None]] = None,
    timeout: Optional[float] = None,
) -> Operation:
    """``Ninf_call``: returns ``(outputs, CallRecord)``.

    Output arrays passed by the caller are updated in place
    (call-by-reference semantics of the C API); outputs are also
    returned as a list in declaration order.  ``on_callback`` receives
    ``(progress, message)`` events if the remote executable streams
    them (the IDL's client callback functions).

    With an enabled tracer the call emits the OBSERVABILITY.md span
    schema: a ``ninf.call`` root, phase children on the client clock,
    and ``call.queue`` / ``call.compute`` reconstructed from the
    server's :class:`JobTimestamps` (``clock="server-wall"``).

    ``timeout`` is this logical call's deadline budget (defaulting to
    the client's ``call_budget``): the remaining budget rides the wire
    header so the server can shed or expire the job, and it bounds the
    retry loop under ``retry_calls``, whose attempts share one
    ``call_id`` and ``logical_id`` (attempt number incremented) so the
    server's dedup cache replays a completed attempt, not recomputes.
    An at-most-once call (no ``retry_calls`` or no policy) is sent once
    with an empty ``logical_id``, so the server retains no reply.
    """
    signature = yield from get_signature(state, function)
    submit_time = state.clock()
    call_id = next(_call_ids)
    deadline = _budget(state, timeout, submit_time)
    # Without a tracer the phases cost no span: ``trace`` is None, each
    # span site enters the shared no-op scope and records nothing.
    tracer = state.tracer
    trace = tracer.trace(SPAN_ROOT, start=submit_time, function=function,
                         call_id=call_id, source="live") \
        if tracer.enabled else None

    def attempt() -> Operation:
        """One wire attempt of the logical call (same logical id, fresh
        attempt number and re-computed remaining budget)."""
        payload = call.stamp(deadline, state.clock)
        state._attempts.inc()
        with trace.span(SPAN_CONNECT) if trace else _UNTRACED:
            channel = yield Checkout()
        try:
            with trace.span(SPAN_SEND) if trace else _UNTRACED:
                yield Send(channel, MessageType.CALL, payload)
            recv_start = state.clock()
            while True:
                reply_type, reply = yield Recv(channel)
                if reply_type != MessageType.CALLBACK:
                    break
                cb_call_id, progress, message = unpack(
                    MessageType.CALLBACK, reply)
                if on_callback is not None and cb_call_id == call_id:
                    on_callback(progress, message)
            # The recv window covers server queueing + compute as seen
            # from the client; the breakdown derives transfer as
            # total - queue - compute, so the overlap is fine.
            if trace:
                trace.record(SPAN_RECV, recv_start, state.clock())
            # Checked before checkin: a stream that delivered another
            # call's RESULT is in an unknown state and must be burned.
            result = _decode_result(reply_type, reply, call_id, "call")
        except BaseException as exc:
            _note_fault(state, exc)
            state._pool.discard(channel)
            raise
        state._pool.checkin(channel)
        return result

    # Historical at-most-once CALL unless ``retry_calls`` with a
    # policy: then exactly-once, safe because the server dedups on
    # logical_id (DESIGN.md §3.5).
    resends = _resends_calls(state)
    try:
        with trace.span(SPAN_MARSHAL) if trace else _UNTRACED:
            call = _CallPayload(function, signature, call_id, args,
                                _logical_id(resends))
        timestamps, out_payload = yield from (
            _retrying(state, attempt, deadline) if resends else attempt())
        with trace.span(SPAN_UNMARSHAL) if trace else _UNTRACED:
            outputs = unmarshal_outputs(signature, out_payload)
        if trace:
            # Server-side phases, in the server's clock ("server-wall"):
            # durations are comparable across clocks, absolute start/end
            # values are not (OBSERVABILITY.md, clock-injection rules).
            trace.record(SPAN_QUEUE, timestamps.enqueue,
                         timestamps.dequeue, clock="server-wall")
            trace.record(SPAN_COMPUTE, timestamps.dequeue,
                         timestamps.complete, clock="server-wall")
        complete_time = state.clock()
    except BaseException:
        if trace:
            trace.end(at=state.clock(), status="error")
        raise
    _write_back(signature, args, outputs)
    timers = state._call_seconds_by_function  # bound once per function
    timer = timers.get(function) or timers.setdefault(
        function, state._call_seconds.labels(function=function))
    timer.observe(complete_time - submit_time)
    if trace:
        trace.end(at=complete_time, status="ok")
    record = CallRecord(function=function, call_id=call_id,
                        submit_time=submit_time,
                        complete_time=complete_time, server=timestamps,
                        input_bytes=call.args_bytes,
                        output_bytes=len(out_payload))
    state._remember(record)
    return outputs, record


# -- two-phase RPC (§5.1) -----------------------------------------------------

def call_detached(state: ClientState, function: str, *args: Any,
                  timeout: Optional[float] = None) -> Operation:
    """Phase one: upload arguments and get a ticket; no connection is
    held while the server computes ("remote argument transfer takes
    place in the first phase, whereupon the communication is
    terminated").  Returns a :class:`DetachedCall`.

    ``timeout`` (default: the client's ``call_budget``) rides the wire
    header as the deadline budget; a retried submission (with
    ``retry_calls``) replays the same logical id, so a lost
    CALL_ACCEPTED yields the original ticket rather than a second
    queued job; an at-most-once submission sends no logical id.
    """
    signature = yield from get_signature(state, function)
    submit_time = state.clock()
    deadline = _budget(state, timeout, submit_time)
    call_id = next(_call_ids)
    resends = _resends_calls(state)
    call = _CallPayload(function, signature, call_id, args,
                        _logical_id(resends))

    def submit() -> Operation:
        return _counted(state, Exchange(MessageType.CALL_DETACHED,
                                        call.stamp(deadline, state.clock),
                                        expect=MessageType.CALL_ACCEPTED))

    _type, reply = yield from (
        _retrying(state, submit, deadline) if resends else submit())
    reply_id, ticket = unpack(MessageType.CALL_ACCEPTED, reply)
    if reply_id != call_id:
        raise ProtocolError(f"accept for call {reply_id}, "
                            f"expected {call_id}")
    return DetachedCall(client=state, function=function, args=args,
                        signature=signature, ticket=ticket, call_id=call_id,
                        submit_time=submit_time, input_bytes=call.args_bytes)


def fetch_detached(state: ClientState, call: DetachedCall,
                   timeout: Optional[float] = None,
                   poll_interval: float = 0.02) -> Operation:
    """Phase two: poll (over pooled connections) until the result is
    ready, then unmarshal and write back output arrays.  A ticket still
    pending after ``timeout`` seconds is cancelled (best effort) and
    raises :class:`repro.protocol.errors.TimeoutError`."""
    deadline = None if timeout is None else state.clock() + timeout
    poll = Exchange(MessageType.FETCH_RESULT,
                    pack(MessageType.FETCH_RESULT, call.ticket))
    while True:
        # Fetching by ticket is idempotent: the server keeps the result
        # until it is collected, so retry is safe here.
        reply_type, reply = yield from _idempotent(state, poll)
        if reply_type != MessageType.RESULT_PENDING:
            break
        if deadline is not None and state.clock() >= deadline:
            # No point computing a result nobody will fetch: ask the
            # server to drop the job if it is still queued.
            yield from cancel_detached(state, call)
            raise TimeoutError(f"detached call {call.function} (ticket "
                               f"{call.ticket}) still pending")
        yield Sleep(poll_interval)
    timestamps, out_payload = _decode_result(reply_type, reply, call.ticket,
                                             "ticket")
    outputs = unmarshal_outputs(call.signature, out_payload)
    _write_back(call.signature, call.args, outputs)
    call.record = CallRecord(function=call.function, call_id=call.call_id,
                             submit_time=call.submit_time,
                             complete_time=state.clock(), server=timestamps,
                             input_bytes=call.input_bytes,
                             output_bytes=len(out_payload))
    state._remember(call.record)
    return outputs


def cancel_detached(state: ClientState, call: DetachedCall) -> Operation:
    """Ask the server to drop a still-queued detached call.

    Best-effort and idempotent: returns ``True`` when the server
    confirms it dropped the queued job (counted server-side in
    ``ninf_server_jobs_cancelled_total``), ``False`` when the job
    already ran, the ticket is unknown, or the server is unreachable.
    Running jobs are never interrupted.
    """
    try:
        _type, reply = yield Exchange(
            MessageType.CANCEL, pack(MessageType.CANCEL, call.ticket),
            expect=MessageType.CANCEL_REPLY)
    except (OSError, ProtocolError, RemoteError):
        return False
    ticket, dropped = unpack(MessageType.CANCEL_REPLY, reply)
    return dropped and ticket == call.ticket


# -- the client ---------------------------------------------------------------

def _driven(operation: Callable[..., Operation]) -> Callable[..., Any]:
    """The public method for an operation: run it on the client's
    driver (``_drive``) and return its result."""
    @functools.wraps(operation)
    def method(self: ClientState, *args: Any, **kwargs: Any) -> Any:
        return self._drive(operation(self, *args, **kwargs))
    return method


class ClientState:
    """What the operations work on -- the server's address, clock, retry
    settings, signature cache, tracer, counters and call records -- and
    the operations themselves as methods.
    :class:`~repro.client.NinfClient` subclasses it and adds the I/O:
    ``_pool``, the connection pool, and ``_drive``, which runs an
    operation by answering its requests from that pool."""

    _pool: Any
    _drive: Callable[[Operation], Any]

    ping = _driven(ping)
    list_functions = _driven(list_functions)
    query_load = _driven(query_load)
    get_signature = _driven(get_signature)
    fetch_stats = _driven(fetch_stats)
    call_with_record = _driven(call_with_record)
    call_detached = _driven(call_detached)
    fetch_detached = _driven(fetch_detached)
    cancel_detached = _driven(cancel_detached)

    def __init__(self, host: str, port: int, timeout: float,
                 clock: Optional[Callable[[], float]],
                 retry: Optional[RetryPolicy],
                 metrics: Optional[MetricsRegistry],
                 tracer: Optional[Tracer], retry_calls: bool,
                 call_budget: Optional[float]) -> None:
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
        # The most recent calls only, as BrokeredClient.records.
        self.records: deque[CallRecord] = deque(maxlen=1024)
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
        self._call_seconds_by_function: dict[str, Any] = {}

    @property
    def attempts(self) -> int:
        """Transport exchange attempts made by this client.

        Exact semantics: counts every exchange *started* -- each try of
        a retried idempotent operation (``ping``, ``get_signature``,
        ``list_functions``, ``query_load``, ``fetch_stats``,
        detached-result polling) and each try of a
        ``CALL``/``CALL_DETACHED`` (exactly one per call unless
        ``retry_calls`` opts CALL into the retry policy).  Like the
        other two counters it is per-client lifetime: monotonic from
        construction, *not* reset by ``with`` blocks, :meth:`close`, or
        pool recycling, and backed by :attr:`metrics`
        (``ninf_client_attempts_total``).
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
        never contributes).  ``ninf_client_retries_total``.
        """
        return int(self._retries.value())

    @property
    def faults_seen(self) -> int:
        """Transient transport errors this client has observed.

        Incremented when an exchange raises an error classified
        transient by :func:`~repro.transport.is_transient` *except*
        the server's own BUSY/shutdown replies (those are retryable but
        arrive on a healthy transport, so they are not faults), whether
        or not the operation was subsequently retried.
        ``ninf_client_faults_seen_total``.
        """
        return int(self._faults_seen.value())

    @property
    def pooled(self) -> bool:
        """Whether connections are kept alive across calls."""
        return self._pool.pooling

    def close(self) -> None:
        """Close every pooled connection (idempotent, never blocks)."""
        self._pool.close()

    def _remember(self, record: CallRecord) -> None:
        with self._records_lock:
            self.records.append(record)
