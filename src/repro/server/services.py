"""The Ninf RPC semantics, independent of the serving transport.

:class:`NinfRpcServices` is everything that makes an endpoint a *Ninf
computational server* -- the two-stage interface request, CALL
execution through the PE-pool executor, exactly-once dedup admission,
load reporting, and the §5.1 two-phase detached calls -- written
against the endpoint handler contract (DESIGN.md §3.6: plain functions
that never block, replying through a best-effort ``conn.send``) and
composed with the endpoint as ``NinfServer(NinfRpcServices, Endpoint)``.
The handlers run on the endpoint's reactor thread; a PE completion
callback replies from its own PE thread.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.idl import IdlError
from repro.libs.openblas import openblas
from repro.protocol.errors import RemoteError, ServerBusy, ServerShutdown
from repro.protocol.marshal import marshal_outputs, unmarshal_inputs
from repro.protocol.messages import (
    BusyReply,
    CallHeader,
    ErrorReply,
    LoadReply,
    MessageType,
    PROTOCOL_VERSION,
    pack,
    unpack,
)
from repro.server.dedup import DedupCache, Reply
from repro.server.executor import Executor, Job
from repro.server.peworkers import WorkerExecutable, WorkerLost, WorkerPool
from repro.server.registry import NinfExecutable, Registry
from repro.server.scheduling import SchedulingPolicy, make_policy
from repro.transport import Connection
from repro.xdr import XdrEncoder, XdrError, bulk

__all__ = ["NinfRpcServices"]


@dataclass
class _Call:
    """One admitted CALL / CALL_DETACHED: what the shared prologue
    worked out before the attempt that owns execution starts."""

    header: CallHeader
    executable: NinfExecutable
    values: list[Any]
    pes: int                  #: PEs to claim (all of them in data mode)
    deadline: float | None    #: on the executor's clock, pinned at receipt
    key: str | None           #: dedup key; ``None`` = client opted out


class NinfRpcServices:
    """RPC handlers + executor lifecycle, mixed in *before* an endpoint
    driver: the constructor takes the server's parameters, hands the
    endpoint's on to the driver, and the :meth:`on_start` /
    :meth:`on_stop` hooks bracket the executor.

    Parameters
    ----------
    registry:
        The catalog of Ninf executables.
    host, port, name, fault_plan, metrics, backlog:
        The endpoint's: see :class:`~repro.transport.EndpointCore`.
        The executor publishes its queue/dispatch/execute metrics into
        ``metrics`` too (OBSERVABILITY.md).
    num_pes:
        PE slots for the executor (the J90 of the paper has 4).
    mode:
        ``"task"`` -- each call takes one PE (the paper's 1-PE version);
        ``"data"`` -- each call takes all PEs and calls serialize (the
        4-PE version).  The per-executable ``pes_required`` is overridden
        accordingly.
    policy:
        Scheduling policy name or instance (fcfs/sjf/fpfs/fpmpfs).
    max_queued:
        Executor queue bound (``None`` = unbounded, the historical
        behaviour).  Over-bound or deadline-unmeetable calls are shed
        with a ``BUSY`` reply instead of queued (DESIGN.md §3.5).
    dedup_ttl, dedup_max_entries:
        Exactly-once result cache tuning (:class:`DedupCache`): how
        long and how many completed logical calls stay replayable for
        retried attempts.
    """

    def __init__(self, registry: Registry, host: str = "127.0.0.1",
                 port: int = 0, num_pes: int = 1, mode: str = "task",
                 policy: SchedulingPolicy | str = "fcfs",
                 name: str = "ninf-server", fault_plan=None, metrics=None,
                 max_queued: int | None = None,
                 dedup_ttl: float = 300.0, dedup_max_entries: int = 1024,
                 backlog: int = 512):
        if mode not in ("task", "data"):
            raise ValueError(f"mode must be 'task' or 'data', got {mode!r}")
        super().__init__(host=host, port=port, name=name,
                         fault_plan=fault_plan, metrics=metrics,
                         backlog=backlog)
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
        # Two-phase RPC (§5.1): server-assigned tickets -> detached
        # results, pending until the job finishes, then held (fetched
        # or not, so a retried FETCH is answered again) until the
        # cache's entry or byte bound evicts them, oldest first.  A
        # ticket this server issued and no longer holds is
        # result-evicted (re-issuing the call is the only recovery);
        # any other is unknown-ticket.
        self._ticket_counter = 0
        self._detached_lock = threading.Lock()
        self.detached_results = DedupCache(max_entries=256, ttl=math.inf)
        # Still-queued detached jobs by ticket, so CANCEL can drop them.
        self._detached_jobs: dict[int, Job] = {}
        from repro.obs import names

        self._evicted_metric = self.metrics.counter(
            names.SERVER_DETACHED_EVICTED,
            "Finished detached results evicted from the bounded store, "
            "fetched or not")
        self._worker_deaths = self.metrics.counter(
            names.SERVER_PE_WORKER_DEATHS,
            "PE worker processes found dead, mid-call or idle")
        # Where each executable runs, decided in on_start: a BLAS kernel
        # capped on its PE thread, another CalcOrder one (or a kernel no
        # setter can cap) in a PE worker process, both at the PEs the
        # call claims, any other as registered; a name registered after
        # start is not in the map and runs from the registry.
        self._workers: WorkerPool | None = None
        self._placed: dict[str, NinfExecutable] = {}
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
        """Place every registered executable (DESIGN.md §3.6), forking
        the PE worker helper if one goes to a worker, then spin up the
        PE-pool executor, before accepting connections -- the fork
        comes before the server starts a thread of its own
        (``repro.server.peworkers``)."""
        binding = openblas()
        set_local = None if binding is None else binding.set_num_threads_local
        offload: dict[str, NinfExecutable] = {}
        for name in self.registry.names():
            executable = self.registry.get(name)
            kernel = getattr(executable.func, "blas_kernel", False)
            if kernel and set_local is not None:
                self._placed[name] = _CappedExecutable(
                    executable, set_local, self._pes_claimed(executable))
            elif kernel or executable.signature.calc_order:
                offload[name] = executable
            else:
                self._placed[name] = executable
        if offload:
            self._workers = WorkerPool(offload, self._worker_deaths)
            for name, executable in offload.items():
                self._placed[name] = WorkerExecutable(
                    executable, self._workers, self._pes_claimed(executable))
        self.executor = Executor(num_pes=self.num_pes, policy=self.policy,
                                 metrics=self.metrics,
                                 max_queued=self.max_queued)
        self._start_time = time.monotonic()
        with self._load_lock:
            self._load_stamp = self._start_time

    def on_stop(self) -> None:
        """Drain the executor once the listener is down, then end the
        PE worker processes."""
        if self.executor is not None:
            self.executor.shutdown()
        if self._workers is not None:
            self._workers.close()
            self._workers = None
        self._placed = {}

    # -- load accounting (Unix-style 1-minute EWMA) --------------------------

    def _sample_load(self) -> float:
        now = time.monotonic()
        level = self.executor.load() if self.executor else 0.0
        with self._load_lock:
            dt = now - self._load_stamp
            if dt > 0:
                decay = math.exp(-dt / self._load_decay)
                self._load_value = (self._load_value * decay
                                    + level * (1 - decay))
                self._load_stamp = now
            return self._load_value

    # -- RPC handlers --------------------------------------------------------

    def _handle_hello(self, conn: Connection, payload: bytes) -> None:
        conn.reply(MessageType.HELLO_REPLY, PROTOCOL_VERSION, self.name)

    def _handle_list(self, conn: Connection, payload: bytes) -> None:
        conn.reply(MessageType.LIST_REPLY, self.registry.names())

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

    def _handle_load_query(self, conn: Connection, payload: bytes) -> None:
        conn.reply(MessageType.LOAD_REPLY, self.load_snapshot())

    def _handle_interface_request(self, conn: Connection,
                                  payload: bytes) -> None:
        (name,) = unpack(MessageType.INTERFACE_REQUEST, payload)
        executable = self.registry.get(name)
        if executable is None:
            conn.send_error("no-such-function",
                            f"{name!r} is not registered on this server")
            return
        conn.reply(MessageType.INTERFACE_REPLY, executable.signature)

    def _send_busy(self, conn: Connection, busy: ServerBusy) -> None:
        """Answer with a BUSY frame (shed/expired call)."""
        conn.reply(MessageType.BUSY, BusyReply(retry_after=busy.retry_after,
                                               reason=busy.message))

    def _pes_claimed(self, executable: NinfExecutable) -> int:
        """PEs a call of ``executable`` claims; data-parallel mode: every
        call occupies the whole machine."""
        if self.mode == "data":
            return self.num_pes
        return min(executable.pes_required, self.num_pes)

    def _admit(self, conn: Connection, payload: bytes) -> _Call | None:
        """The CALL / CALL_DETACHED prologue: decode the header, look
        the function up, unmarshal, size the PE claim, pin the deadline.
        ``None``: the call was refused and answered."""
        header, args_payload = unpack(MessageType.CALL, payload)
        executable = (self._placed.get(header.function)
                      or self.registry.get(header.function))
        if executable is None:
            conn.send_error("no-such-function",
                            f"{header.function!r} is not registered")
            return None
        try:
            values = unmarshal_inputs(executable.signature, args_payload)
        except (XdrError, IdlError) as exc:
            conn.send_error("bad-arguments", str(exc))
            return None
        return _Call(
            header=header, executable=executable, values=values,
            pes=self._pes_claimed(executable),
            # The budget is relative on the wire (clock-skew safe); pin
            # it to this server's monotonic clock at receipt.
            deadline=(self.executor.clock() + header.budget
                      if header.budget > 0 else None),
            key=header.logical_id or None)

    def _owns_execution(self, conn: Connection, call: _Call,
                        start: Callable[[Connection, _Call], None]) -> bool:
        """Run the call's logical id through the dedup cache.

        ``True``: this attempt owns execution -- the caller starts it
        and must complete or abort ``call.key``.  Otherwise the reply is
        taken care of: a finished attempt's is replayed now, a running
        one's when it lands; and should that owner be shed instead, one
        of the attempts parked behind it takes over through ``start``
        (with a dead budget, ``Executor.submit`` sheds it in turn).
        """
        if call.key is None:
            return True

        def settled(reply: Reply | None) -> None:
            if reply is not None:
                conn.send(*reply)
            elif self._owns_execution(conn, call, start):
                start(conn, call)

        state, entry = self.dedup.begin(call.key, waiter=settled)
        if state == "done":
            conn.send(*entry.reply)
        return state == "new"

    def _submit(self, conn: Connection, call: _Call,
                on_complete: Callable[[Job], None],
                callback: Callable[[float, str], None] | None = None
                ) -> Job | None:
        """Queue an admitted call; a shed one is answered (BUSY, or the
        shutdown error), its dedup key released, and ``None`` returned."""
        try:
            return self.executor.submit(
                call.executable, call.values, on_complete=on_complete,
                callback=callback, deadline=call.deadline, pes=call.pes)
        except (ServerBusy, ServerShutdown) as refusal:
            if call.key is not None:
                self.dedup.abort(call.key)
            if isinstance(refusal, ServerBusy):
                self._send_busy(conn, refusal)
            else:
                conn.send_error(refusal.code, refusal.message)
            return None

    def _handle_call(self, conn: Connection, payload: bytes) -> None:
        call = self._admit(conn, payload)
        if call is not None and self._owns_execution(conn, call,
                                                     self._start_call):
            self._start_call(conn, call)

    def _start_call(self, conn: Connection, call: _Call) -> None:
        header, executable, key = call.header, call.executable, call.key

        def finish(reply_type: int, reply_payload: memoryview | bulk.Payload,
                   cache: bool = True) -> None:
            # Park before sending: the eviction the park triggers frees
            # an old reply before this one goes out.
            if key is not None:
                if cache:
                    self.dedup.complete(key, (reply_type, reply_payload))
                else:
                    self.dedup.abort(key)
            conn.send(reply_type, reply_payload)

        def on_complete(job: Job) -> None:
            if isinstance(job.error, ServerBusy):
                # Expired in the queue: never ran, safe to retry.
                if key is not None:
                    self.dedup.abort(key)
                self._send_busy(conn, job.error)
                return
            if job.error is not None:
                # ServerShutdown never ran the job, WorkerLost may not
                # have finished it -- don't cache either, a retry
                # should execute for real.
                finish(MessageType.ERROR,
                       pack(MessageType.ERROR, _error_reply(job.error)),
                       cache=not isinstance(job.error,
                                            (ServerShutdown, WorkerLost)))
                return
            try:
                reply = _result_payload(header.call_id, executable, job)
            except Exception as exc:  # whatever the executable returned
                finish(MessageType.ERROR, pack(
                    MessageType.ERROR,
                    ErrorReply(code="bad-result", message=str(exc))))
                return
            finish(MessageType.RESULT, reply)

        def send_callback(progress: float, message: str) -> None:
            conn.reply(MessageType.CALLBACK, header.call_id,
                       float(progress), str(message))

        if self._submit(
                conn, call, on_complete,
                send_callback if executable.wants_callback else None):
            self._sample_load()

    # -- two-phase RPC (§5.1) -------------------------------------------------

    def _handle_call_detached(self, conn: Connection, payload: bytes) -> None:
        """Phase one: accept arguments, reply with a ticket, disconnect-safe.

        A retried CALL_DETACHED replays the original CALL_ACCEPTED (same
        ticket) out of the dedup cache, so the client's fetch loop keeps
        working."""
        call = self._admit(conn, payload)
        if call is not None and self._owns_execution(conn, call,
                                                     self._start_detached):
            self._start_detached(conn, call)

    def _start_detached(self, conn: Connection, call: _Call) -> None:
        header, executable, key = call.header, call.executable, call.key
        with self._detached_lock:
            self._ticket_counter += 1
            ticket = self._ticket_counter
        self.detached_results.begin(ticket)

        def on_complete(job: Job) -> None:
            # What FETCH_RESULT will answer: the ERROR, or the RESULT
            # payload itself, built once with the ticket as its id.
            error = None if job.error is None else _error_reply(job.error)
            if error is None:
                try:
                    result = _result_payload(ticket, executable, job)
                except Exception as exc:  # whatever the executable returned
                    error = ErrorReply(code="bad-result", message=str(exc))
            outcome: Reply = ((MessageType.RESULT, result) if error is None
                              else (MessageType.ERROR,
                                    pack(MessageType.ERROR, error)))
            with self._detached_lock:
                self._detached_jobs.pop(ticket, None)
            evictions = self.detached_results.complete(ticket, outcome)
            if evictions:
                self._evicted_metric.inc(evictions)

        job = self._submit(conn, call, on_complete)
        if job is None:
            self.detached_results.abort(ticket)
            return
        with self._detached_lock:
            if not job.done.is_set():
                self._detached_jobs[ticket] = job
        reply = pack(MessageType.CALL_ACCEPTED, header.call_id, ticket)
        if key is not None:
            # Cache the acceptance itself: a retried attempt (lost
            # CALL_ACCEPTED) gets the same ticket, not a second job.
            self.dedup.complete(key, (MessageType.CALL_ACCEPTED, reply))
        conn.send(MessageType.CALL_ACCEPTED, reply)

    def _handle_cancel(self, conn: Connection, payload: bytes) -> None:
        """Drop a still-queued detached job; running jobs finish.

        Idempotent: unknown or already-dispatched tickets answer
        ``dropped=False`` rather than erroring, so a client can fire
        CANCEL best-effort on its own deadline expiry.
        """
        (ticket,) = unpack(MessageType.CANCEL, payload)
        with self._detached_lock:
            job = self._detached_jobs.get(ticket)
        dropped = self.executor.cancel(job) if job is not None else False
        conn.reply(MessageType.CANCEL_REPLY, ticket, dropped)

    def _handle_fetch(self, conn: Connection, payload: bytes) -> None:
        """Phase two: a (possibly new) connection collects the result.

        A fetched result stays held, so a FETCH retried after its reply
        was lost gets the same reply; once the store has let it go, the
        call did run and the answer is ``result-evicted``."""
        (ticket,) = unpack(MessageType.FETCH_RESULT, payload)
        state, reply = self.detached_results.replay(ticket)
        if reply is not None:
            conn.send(*reply)
        elif state == "pending":
            conn.reply(MessageType.RESULT_PENDING, ticket)
        elif 0 < ticket <= self._ticket_counter:
            conn.send_error("result-evicted",
                            f"result for ticket {ticket} is no longer "
                            f"held; re-issue the call")
        else:
            conn.send_error("unknown-ticket",
                            f"no detached call with ticket {ticket}")


class _CappedExecutable(NinfExecutable):
    """``executable`` as the executor sees it when it is a BLAS kernel
    (:func:`~repro.libs.openblas.blas_kernel`): :meth:`invoke` runs on
    the PE thread with the BLAS count at ``threads``.  On the pthreads
    OpenBLAS of NumPy's wheels the "local" setter sets the process's
    count, so the count is held, not set per call: the first of
    overlapping calls keeps the count it replaced, and the last one out
    puts it back.  A server's kernels all claim the same PEs (the mode
    decides), so overlapping calls agree on the cap."""

    _lock = threading.Lock()
    _running = 0   # GUARDED_BY(_lock)
    _replaced = 0  # GUARDED_BY(_lock)

    def __init__(self, executable: NinfExecutable,
                 set_local: Callable[[int], int], threads: int) -> None:
        super().__init__(executable.signature, executable.func,
                         pes_required=executable.pes_required)
        self._set_local, self._threads = set_local, threads

    def invoke(self, values: Sequence[Any],
               callback: Optional[Callable[[float, str], None]] = None
               ) -> list[Any]:
        """:meth:`NinfExecutable.invoke` under the cap."""
        held = _CappedExecutable
        with held._lock:
            replaced = self._set_local(self._threads)
            if held._running == 0:
                held._replaced = replaced
            held._running += 1
        try:
            return super().invoke(values, callback)
        finally:
            with held._lock:
                held._running -= 1
                if held._running == 0:
                    self._set_local(held._replaced)


def _error_reply(error: BaseException) -> ErrorReply:
    """A failed job's error as it goes on the wire."""
    if isinstance(error, RemoteError):
        return ErrorReply(code=error.code, message=error.message)
    return ErrorReply(code="execution-failed", message=str(error))


def _result_payload(reply_id: int, executable: NinfExecutable,
                    job: Job) -> memoryview | bulk.Payload:
    """A finished job's RESULT payload.

    The outputs are marshalled straight into the payload (its opaque
    tail is reserved once and filled in place).  A bulk output that is
    one of the call's own buffers -- a decoded argument or a ``mode_out``
    array, the same memory, whatever array object stands for it -- stays
    a region holding that array until a medium takes it: a ring converts
    it straight into ring memory, a socket through the sending thread's
    piece buffer.  Nothing else writes to those buffers once the job is
    done, so the dedup cache may replay them.  Any other output (a module
    global, a view the executable keeps, a fresh array) could change
    before a replay, so the payload is flattened now."""

    def fill(enc: XdrEncoder) -> None:
        marshal_outputs(executable.signature,
                        _merge_outputs(executable, job), into=enc)

    reply = pack(MessageType.RESULT, reply_id, job.timestamps(), fill)
    if isinstance(reply, bulk.Payload):
        owned = {_memory(value) for value in job.values
                 if isinstance(value, np.ndarray)}
        if any(_memory(region.array) not in owned
               for region in reply.regions):
            reply.flat()
    return reply


def _memory(array: np.ndarray) -> tuple[int, int]:
    """Where an array's bytes are: its data pointer and size."""
    return array.ctypes.data, array.nbytes


def _merge_outputs(executable, job: Job) -> list:
    """Place computed outputs into a full positional list for marshalling."""
    values = list(job.values)
    for spec_index, output in zip(executable.signature.output_indices(),
                                  job.outputs):
        values[spec_index] = output
    return values
