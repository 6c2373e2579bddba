"""The Ninf RPC semantics, independent of the serving transport.

:class:`NinfRpcServices` is everything that makes an endpoint a *Ninf
computational server* -- the two-stage interface request, CALL
execution through the PE-pool executor, exactly-once dedup admission,
load reporting, and the §5.1 two-phase detached calls -- written once
against the synchronous channel surface and mixed into both serving
bases:

- ``NinfServer(NinfRpcServices, Endpoint)`` -- thread per connection;
- ``AsyncNinfServer(NinfRpcServices, AsyncEndpoint)`` -- event loop;
  handlers run in the endpoint's thread pool against a
  :class:`~repro.transport.loopbridge.FacadeChannel`, so blocking
  admission (dedup waits) and cross-thread completion replies work
  unchanged.

The mixin assumes its host class provides the
:class:`~repro.transport.endpoint.Endpoint` surface: ``name``,
``metrics``, ``register_handler``, and the ``on_start``/``on_stop``
lifecycle hooks.
"""

from __future__ import annotations

import threading
import time

from repro.idl import IdlError
from repro.protocol.errors import RemoteError, ServerBusy, ServerShutdown
from repro.protocol.marshal import marshal_outputs, unmarshal_inputs
from repro.protocol.messages import (
    BusyReply,
    CallHeader,
    ErrorReply,
    JobTimestamps,
    LoadReply,
    MessageType,
    PROTOCOL_VERSION,
)
from repro.server.dedup import DedupCache
from repro.server.executor import Executor, Job
from repro.server.registry import Registry
from repro.server.scheduling import SchedulingPolicy, make_policy
from repro.transport import Channel
from repro.xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = ["NinfRpcServices"]


class NinfRpcServices:
    """RPC handlers + executor lifecycle shared by both server bases.

    Host classes call :meth:`_init_services` from ``__init__`` (after
    the endpoint base is initialised, so ``self.metrics`` and
    ``register_handler`` exist) and chain :meth:`on_start` /
    :meth:`on_stop` into their endpoint lifecycle.
    """

    def _init_services(self, registry: Registry, num_pes: int, mode: str,
                       policy: SchedulingPolicy | str, max_queued: int | None,
                       dedup_ttl: float, dedup_max_entries: int) -> None:
        if mode not in ("task", "data"):
            raise ValueError(f"mode must be 'task' or 'data', got {mode!r}")
        self.registry = registry
        self.num_pes = num_pes
        self.mode = mode
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.max_queued = max_queued
        self.executor: Executor | None = None
        # Exactly-once: completed logical calls stay replayable so a
        # retried CALL whose first attempt finished does not recompute.
        self.dedup = DedupCache(max_entries=dedup_max_entries,
                                ttl=dedup_ttl, metrics=self.metrics)
        self._start_time = 0.0
        self._load_decay: float = 60.0
        # EWMA state is updated from every LOAD_QUERY handler thread;
        # unguarded read-modify-write loses decay steps under load.
        self._load_lock = threading.Lock()
        self._load_value = 0.0
        self._load_stamp = 0.0
        # Two-phase RPC (§5.1): server-assigned tickets -> finished
        # results awaiting fetch (bounded; oldest evicted).
        self._ticket_counter = 0
        self._detached_lock = threading.Lock()
        self._detached: dict[int, bytes | None] = {}
        # Still-queued detached jobs by ticket, so CANCEL can drop them.
        self._detached_jobs: dict[int, Job] = {}
        self.max_detached_results = 256
        # Tombstones for evicted results (insertion-ordered, bounded):
        # a late FETCH distinguishes "your result was computed but aged
        # out" (result-evicted: retrying the call is the only recovery)
        # from a ticket this server never issued (unknown-ticket).
        self._detached_evicted: dict[int, None] = {}
        self.max_evicted_tombstones = 1024
        from repro.obs import names

        self._evicted_metric = self.metrics.counter(
            names.SERVER_DETACHED_EVICTED,
            "Finished detached results evicted before their FETCH arrived")
        # Execution trace (§5.1): per-call observations feeding
        # repro.metaserver.predictor for learned cost models.
        from repro.metaserver.predictor import ExecutionTrace

        self.execution_trace = ExecutionTrace()
        self.register_handler(MessageType.HELLO, self._handle_hello)
        self.register_handler(MessageType.LIST_REQUEST, self._handle_list)
        self.register_handler(MessageType.LOAD_QUERY, self._handle_load_query)
        self.register_handler(MessageType.INTERFACE_REQUEST,
                              self._handle_interface_request)
        self.register_handler(MessageType.CALL, self._handle_call)
        self.register_handler(MessageType.CALL_DETACHED,
                              self._handle_call_detached)
        self.register_handler(MessageType.FETCH_RESULT, self._handle_fetch)
        self.register_handler(MessageType.CANCEL, self._handle_cancel)

    # -- lifecycle ----------------------------------------------------------

    def on_start(self) -> None:
        """Spin up the PE-pool executor before accepting connections."""
        self.executor = Executor(num_pes=self.num_pes, policy=self.policy,
                                 metrics=self.metrics,
                                 max_queued=self.max_queued)
        self._start_time = time.monotonic()
        with self._load_lock:
            self._load_stamp = self._start_time

    def on_stop(self) -> None:
        """Drain the executor once the listener is down."""
        if self.executor is not None:
            self.executor.shutdown()

    # -- load accounting (Unix-style 1-minute EWMA) --------------------------

    def _sample_load(self) -> float:
        now = time.monotonic()
        level = self.executor.load() if self.executor else 0.0
        with self._load_lock:
            dt = now - self._load_stamp
            if dt > 0:
                import math

                decay = math.exp(-dt / self._load_decay)
                self._load_value = (self._load_value * decay
                                    + level * (1 - decay))
                self._load_stamp = now
            return self._load_value

    # -- RPC handlers --------------------------------------------------------

    def _handle_hello(self, channel: Channel, payload: bytes) -> None:
        enc = XdrEncoder()
        enc.pack_uint(PROTOCOL_VERSION)
        enc.pack_string(self.name)
        channel.send(MessageType.HELLO_REPLY, enc.getvalue())

    def _handle_list(self, channel: Channel, payload: bytes) -> None:
        enc = XdrEncoder()
        enc.pack_array(self.registry.names(), enc.pack_string)
        channel.send(MessageType.LIST_REPLY, enc.getvalue())

    def load_snapshot(self) -> LoadReply:
        """Current load state as a :class:`LoadReply`.

        Shared by the pull path (LOAD_QUERY) and the push path (the
        :class:`~repro.server.heartbeat.HeartbeatReporter` embeds one
        in every MS_HEARTBEAT), so both report identical numbers.
        """
        running = queued = completed = 0
        if self.executor is not None:
            running = self.executor.running
            queued = self.executor.queued
            completed = self.executor.completed
        return LoadReply(
            num_pes=self.num_pes,
            running=running,
            queued=queued,
            load_average=self._sample_load(),
            completed=completed,
        )

    def _handle_load_query(self, channel: Channel, payload: bytes) -> None:
        enc = XdrEncoder()
        self.load_snapshot().encode(enc)
        channel.send(MessageType.LOAD_REPLY, enc.getvalue())

    def _handle_interface_request(self, channel: Channel,
                                  payload: bytes) -> None:
        try:
            name = XdrDecoder(payload).unpack_string()
        except XdrError as exc:
            channel.send_error("bad-request", str(exc))
            return
        executable = self.registry.get(name)
        if executable is None:
            channel.send_error("no-such-function",
                               f"{name!r} is not registered on this server")
            return
        channel.send(MessageType.INTERFACE_REPLY,
                     executable.signature.to_wire())

    def _send_busy(self, channel: Channel, busy: ServerBusy) -> None:
        """Answer with a BUSY frame (shed/expired call; best-effort)."""
        enc = XdrEncoder()
        BusyReply(retry_after=busy.retry_after,
                  reason=busy.message).encode(enc)
        try:
            channel.send(MessageType.BUSY, enc.getvalue())
        except OSError:
            pass  # client went away; nothing to do

    @staticmethod
    def _send_reply(channel: Channel, reply: tuple[int, bytes]) -> None:
        """Send a prepared (type, payload) reply frame, best-effort."""
        reply_type, reply_payload = reply
        try:
            channel.send(reply_type, reply_payload)
        except OSError:
            pass  # client went away; nothing to do

    def _dedup_admit(self, channel: Channel, header: CallHeader):
        """Run a call's logical id through the dedup cache.

        Returns ``(handled, key, entry)``: when ``handled`` the reply
        (cached result, or BUSY while the first attempt still runs) has
        been sent and the caller must not execute; otherwise ``key`` is
        the dedup key to complete/abort (``None`` = client opted out)
        and this attempt owns execution.
        """
        key = header.logical_id or None
        if key is None:
            return False, None, None
        state, entry = self.dedup.begin(key)
        while state == "pending":
            # Another attempt of the same logical call is executing;
            # block on it rather than double-executing, bounded by this
            # attempt's own budget.
            finished = entry.done.wait(
                header.budget if header.budget > 0 else None)
            if not finished:
                self._send_busy(channel, ServerBusy(
                    "duplicate-pending",
                    retry_after=self.executor.estimated_wait()))
                return True, key, entry
            if entry.reply is not None:
                self._send_reply(channel, entry.reply)
                return True, key, entry
            # The owning attempt was shed/aborted: race to take over.
            state, entry = self.dedup.begin(key)
        if state == "done":
            self._send_reply(channel, entry.reply)
            return True, key, entry
        return False, key, entry

    def _handle_call(self, channel: Channel, payload: bytes) -> None:
        try:
            dec = XdrDecoder(payload)
            header = CallHeader.decode(dec)
            args_payload = dec.unpack_opaque_view()
            dec.done()
        except XdrError as exc:
            channel.send_error("bad-request", str(exc))
            return
        executable = self.registry.get(header.function)
        if executable is None:
            channel.send_error("no-such-function",
                               f"{header.function!r} is not registered")
            return
        try:
            values = unmarshal_inputs(executable.signature, args_payload)
        except (XdrError, IdlError) as exc:
            channel.send_error("bad-arguments", str(exc))
            return
        # Data-parallel mode: every call occupies the whole machine.
        if self.mode == "data":
            executable = _with_pes(executable, self.num_pes)
        handled, key, _entry = self._dedup_admit(channel, header)
        if handled:
            return
        # The budget is relative on the wire (clock-skew safe); pin it
        # to this server's monotonic clock at receipt.
        deadline = (self.executor.clock() + header.budget
                    if header.budget > 0 else None)

        def finish(reply_type: int, reply_payload: bytes,
                   cache: bool = True) -> None:
            if key is not None:
                if cache:
                    self.dedup.complete(key, (reply_type, reply_payload))
                else:
                    self.dedup.abort(key)
            self._send_reply(channel, (reply_type, reply_payload))

        def on_complete(job: Job) -> None:
            if isinstance(job.error, ServerBusy):
                # Expired in the queue: never ran, safe to retry.
                if key is not None:
                    self.dedup.abort(key)
                self._send_busy(channel, job.error)
                return
            if job.error is not None:
                if isinstance(job.error, RemoteError):
                    code, message = job.error.code, job.error.message
                else:
                    code, message = "execution-failed", str(job.error)
                enc = XdrEncoder()
                ErrorReply(code=code, message=message).encode(enc)
                # ServerShutdown never ran the job -- don't cache it,
                # a retry elsewhere should execute for real.
                finish(MessageType.ERROR, enc.getvalue(),
                       cache=not isinstance(job.error, ServerShutdown))
                return
            # Marshal outputs straight into the RESULT payload encoder
            # (begin/end_opaque), so large result arrays are written
            # once -- no separate out_payload bytes to re-copy.
            enc = XdrEncoder()
            enc.pack_uhyper(header.call_id)
            job.timestamps().encode(enc)
            token = enc.begin_opaque()
            try:
                marshal_outputs(executable.signature,
                                _merge_outputs(executable, job), into=enc)
            except (XdrError, IdlError) as exc:
                enc = XdrEncoder()
                ErrorReply(code="bad-result", message=str(exc)).encode(enc)
                finish(MessageType.ERROR, enc.getvalue())
                return
            out_len = len(enc) - token - 4
            enc.end_opaque(token)
            self._record_trace(executable, job,
                               len(args_payload) + out_len)
            finish(MessageType.RESULT, enc.getbuffer())

        def send_callback(progress: float, message: str) -> None:
            enc = XdrEncoder()
            enc.pack_uhyper(header.call_id)
            enc.pack_double(float(progress))
            enc.pack_string(str(message))
            try:
                channel.send(MessageType.CALLBACK, enc.getvalue())
            except OSError:
                pass  # client went away; progress is best-effort

        try:
            self.executor.submit(
                executable, values, on_complete=on_complete,
                callback=send_callback if executable.wants_callback else None,
                deadline=deadline,
            )
        except ServerBusy as busy:
            if key is not None:
                self.dedup.abort(key)
            self._send_busy(channel, busy)
            return
        except ServerShutdown as exc:
            if key is not None:
                self.dedup.abort(key)
            channel.send_error(exc.code, exc.message)
            return
        self._sample_load()

    def _record_trace(self, executable, job: Job, comm_bytes: int) -> None:
        """Append the §5.1 execution-trace observation for this call."""
        if job.predicted_cost is None:
            return
        from repro.metaserver.predictor import CallObservation

        timestamps = job.timestamps()
        self.execution_trace.record(CallObservation(
            function=executable.name,
            work=float(job.predicted_cost),
            comm_bytes=float(comm_bytes),
            service_seconds=timestamps.service,
            comm_seconds=0.0,  # transfer time is a client-side observable
        ))

    # -- two-phase RPC (§5.1) -------------------------------------------------

    def _handle_call_detached(self, channel: Channel, payload: bytes) -> None:
        """Phase one: accept arguments, reply with a ticket, disconnect-safe."""
        try:
            dec = XdrDecoder(payload)
            header = CallHeader.decode(dec)
            args_payload = dec.unpack_opaque_view()
            dec.done()
        except XdrError as exc:
            channel.send_error("bad-request", str(exc))
            return
        executable = self.registry.get(header.function)
        if executable is None:
            channel.send_error("no-such-function",
                               f"{header.function!r} is not registered")
            return
        try:
            values = unmarshal_inputs(executable.signature, args_payload)
        except (XdrError, IdlError) as exc:
            channel.send_error("bad-arguments", str(exc))
            return
        if self.mode == "data":
            executable = _with_pes(executable, self.num_pes)
        handled, key, _entry = self._dedup_admit(channel, header)
        if handled:
            # A retried CALL_DETACHED replays the original CALL_ACCEPTED
            # (same ticket), so the client's fetch loop keeps working.
            return
        deadline = (self.executor.clock() + header.budget
                    if header.budget > 0 else None)
        with self._detached_lock:
            self._ticket_counter += 1
            ticket = self._ticket_counter
            self._detached[ticket] = None  # pending

        def on_complete(job: Job) -> None:
            enc = XdrEncoder()
            if job.error is not None:
                code = (job.error.code if isinstance(job.error, RemoteError)
                        else "execution-failed")
                message = (job.error.message
                           if isinstance(job.error, RemoteError)
                           else str(job.error))
                enc.pack_bool(False)
                ErrorReply(code=code, message=message).encode(enc)
            else:
                enc.pack_bool(True)
                job.timestamps().encode(enc)
                token = enc.begin_opaque()
                try:
                    marshal_outputs(executable.signature,
                                    _merge_outputs(executable, job), into=enc)
                except (XdrError, IdlError) as exc:
                    enc = XdrEncoder()
                    enc.pack_bool(False)
                    ErrorReply(code="bad-result", message=str(exc)).encode(enc)
                else:
                    enc.end_opaque(token)
            evictions = 0
            with self._detached_lock:
                self._detached[ticket] = enc.getbuffer()
                self._detached_jobs.pop(ticket, None)
                # Bound the store: evict the oldest *finished* results,
                # leaving a tombstone so the owner's late FETCH gets a
                # distinct result-evicted error, not unknown-ticket.
                finished = [t for t, v in self._detached.items()
                            if v is not None]
                while len(finished) > self.max_detached_results:
                    evicted = finished.pop(0)
                    self._detached.pop(evicted, None)
                    self._detached_jobs.pop(evicted, None)
                    self._detached_evicted[evicted] = None
                    evictions += 1
                while len(self._detached_evicted) > \
                        self.max_evicted_tombstones:
                    oldest = next(iter(self._detached_evicted))
                    del self._detached_evicted[oldest]
            if evictions:
                self._evicted_metric.inc(evictions)

        try:
            job = self.executor.submit(executable, values,
                                       on_complete=on_complete,
                                       deadline=deadline)
        except ServerBusy as busy:
            with self._detached_lock:
                self._detached.pop(ticket, None)
            if key is not None:
                self.dedup.abort(key)
            self._send_busy(channel, busy)
            return
        except ServerShutdown as exc:
            with self._detached_lock:
                self._detached.pop(ticket, None)
            if key is not None:
                self.dedup.abort(key)
            channel.send_error(exc.code, exc.message)
            return
        with self._detached_lock:
            if not job.done.is_set():
                self._detached_jobs[ticket] = job
        reply = XdrEncoder()
        reply.pack_uhyper(header.call_id)
        reply.pack_uhyper(ticket)
        if key is not None:
            # Cache the acceptance itself: a retried attempt (lost
            # CALL_ACCEPTED) gets the same ticket, not a second job.
            self.dedup.complete(key, (MessageType.CALL_ACCEPTED,
                                      reply.getvalue()))
        channel.send(MessageType.CALL_ACCEPTED, reply.getvalue())

    def _handle_cancel(self, channel: Channel, payload: bytes) -> None:
        """Drop a still-queued detached job; running jobs finish.

        Idempotent: unknown or already-dispatched tickets answer
        ``dropped=False`` rather than erroring, so a client can fire
        CANCEL best-effort on its own deadline expiry.
        """
        try:
            dec = XdrDecoder(payload)
            ticket = dec.unpack_uhyper()
            dec.done()
        except XdrError as exc:
            channel.send_error("bad-request", str(exc))
            return
        with self._detached_lock:
            job = self._detached_jobs.get(ticket)
        dropped = self.executor.cancel(job) if job is not None else False
        enc = XdrEncoder()
        enc.pack_uhyper(ticket)
        enc.pack_bool(dropped)
        channel.send(MessageType.CANCEL_REPLY, enc.getvalue())

    def _handle_fetch(self, channel: Channel, payload: bytes) -> None:
        """Phase two: a (possibly new) connection collects the result."""
        try:
            dec = XdrDecoder(payload)
            ticket = dec.unpack_uhyper()
            dec.done()
        except XdrError as exc:
            channel.send_error("bad-request", str(exc))
            return
        with self._detached_lock:
            if ticket not in self._detached:
                known = False
                evicted = ticket in self._detached_evicted
                result = None
            else:
                known = True
                evicted = False
                result = self._detached[ticket]
                if result is not None:
                    del self._detached[ticket]
        if not known:
            if evicted:
                channel.send_error(
                    "result-evicted",
                    f"result for ticket {ticket} was evicted before it "
                    f"was fetched; re-issue the call")
            else:
                channel.send_error("unknown-ticket",
                                   f"no detached call with ticket {ticket}")
            return
        if result is None:
            enc = XdrEncoder()
            enc.pack_uhyper(ticket)
            channel.send(MessageType.RESULT_PENDING, enc.getvalue())
            return
        dec = XdrDecoder(result)
        ok = dec.unpack_bool()
        if not ok:
            err = ErrorReply.decode(dec)
            enc = XdrEncoder()
            err.encode(enc)
            channel.send(MessageType.ERROR, enc.getvalue())
            return
        timestamps = JobTimestamps.decode(dec)
        out_payload = dec.unpack_opaque_view()
        dec.done()
        enc = XdrEncoder()
        enc.pack_uhyper(ticket)
        timestamps.encode(enc)
        enc.pack_opaque(out_payload)
        channel.send(MessageType.RESULT, enc.getbuffer())


def _with_pes(executable, num_pes: int):
    """A view of the executable that demands all PEs (data-parallel)."""
    from repro.server.registry import NinfExecutable

    clone = NinfExecutable(executable.signature, executable.func,
                           pes_required=num_pes)
    return clone


def _merge_outputs(executable, job: Job) -> list:
    """Place computed outputs into a full positional list for marshalling."""
    values = list(job.values)
    for spec_index, output in zip(executable.signature.output_indices(),
                                  job.outputs):
        values[spec_index] = output
    return values
