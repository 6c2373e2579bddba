"""The server's PE pool: queued jobs, policy-driven dispatch, timestamps.

Models the two execution styles the paper benchmarks:

- *task-parallel* ("1-PE"): each call claims one PE; up to ``num_pes``
  calls run concurrently.  A PE thread runs a BLAS kernel (``linpack``
  is LAPACK ``dgetrf`` / ``dgetrs``, ``dmmul`` a ``matmul``) itself:
  the kernel releases the GIL, so two run truly in parallel, with
  OpenBLAS capped at the PEs the call claimed.  A Python kernel with a
  ``CalcOrder`` (``ep``, ``dos``, ``mandel``) would hold the GIL, so
  its PE thread hands it to a PE worker process
  (:mod:`repro.server.peworkers`) and waits for it there (DESIGN.md
  §3.6).
- *data-parallel* ("4-PE"): each call claims all PEs, so calls
  serialize -- "the data-parallel version employs an optimally
  vectorized and parallelized version with simultaneous execution on 4
  PEs for each Ninf_call, invoked in sequence".

Every job records the paper's timestamps: enqueue (accepted), dequeue
(executable invoked), complete.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.protocol.errors import RemoteError, ServerBusy, ServerShutdown
from repro.protocol.messages import JobTimestamps
from repro.server.registry import ExecutionError, NinfExecutable
from repro.server.scheduling import FCFSPolicy, SchedulingPolicy

__all__ = ["Executor", "Job"]


@dataclass
class Job:
    """One accepted call moving through the queue.

    ``deadline`` is an absolute time on the executor's clock past which
    the job is worthless to the client; such jobs are expired instead
    of dequeued (DESIGN.md §3.5).
    """

    seq: int
    executable: NinfExecutable
    values: list[Any]
    pes_required: int
    predicted_cost: Optional[float]
    on_complete: Callable[["Job"], None]
    callback: Optional[Callable[[float, str], None]] = None
    deadline: Optional[float] = None
    enqueue_time: float = 0.0
    dequeue_time: float = 0.0
    complete_time: float = 0.0
    outputs: Optional[list[Any]] = None
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)

    def timestamps(self) -> JobTimestamps:
        """The paper's T_enqueue/T_dequeue/T_complete triple."""
        return JobTimestamps(
            enqueue=self.enqueue_time,
            dequeue=self.dequeue_time,
            complete=self.complete_time,
        )


class Executor:
    """Policy-driven job executor over ``num_pes`` long-lived PE threads.

    Each PE (``ninf-pe-<i>``) loops *select -> run -> complete*: under
    ``_lock`` it sweeps expired jobs, takes the job the policy picks and
    claims its ``pes_required`` PEs (data mode: all, so the other PE
    threads find nothing that fits), then runs it, returns the claim and
    calls ``on_complete``, all on one thread.  ``submit`` wakes one idle
    PE; a PE that takes or finishes a job wakes another only while work
    is pending.  ``ninf-expiry`` sleeps until the earliest queued
    deadline, so ``deadline-expired`` is answered on time while every PE
    is busy; only a deadline-bearing ``submit`` wakes it.

    When given a :class:`~repro.obs.MetricsRegistry` (``metrics``), the
    executor publishes the server-side half of the OBSERVABILITY.md
    breakdown: ``ninf_server_queue_depth`` (jobs awaiting a PE),
    ``ninf_server_dispatch_seconds`` (the paper's ``T_wait``:
    dequeue - enqueue), ``ninf_server_execute_seconds{function}`` (the
    service time: complete - dequeue), and
    ``ninf_server_calls_total{function,status}``.

    ``max_queued`` bounds the pending queue (``None`` — the default —
    preserves the historical unbounded behaviour): a submit that would
    exceed the bound, or whose deadline the estimated queue wait
    already overshoots, is *shed* with :class:`ServerBusy` instead of
    queued, counted in ``ninf_server_jobs_shed_total{reason}``.  Queued
    jobs whose deadline passes before a PE frees up are *expired*
    (``ninf_server_jobs_expired_total``), and queued jobs a client
    explicitly :meth:`cancel`\\ s are counted in
    ``ninf_server_jobs_cancelled_total``.  An ``on_complete`` that
    raises costs neither a PE nor the job's ``done``: it is counted in
    ``ninf_server_completion_errors_total`` and the thread carries on.
    """

    def __init__(self, num_pes: int = 1,
                 policy: Optional[SchedulingPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics=None,
                 max_queued: Optional[int] = None):
        if num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {num_pes}")
        if max_queued is not None and max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        self.num_pes = num_pes
        self.policy = policy or FCFSPolicy()
        self.clock = clock
        self.max_queued = max_queued
        self._queue_gauge = self._dispatch_hist = None
        self._execute_hist = self._calls_counter = None
        self._expired_counter = self._cancelled_counter = None
        self._shed_counter = self._completion_errors_counter = None
        if metrics is not None:
            from repro.obs import names

            self._queue_gauge = metrics.gauge(
                names.SERVER_QUEUE_DEPTH, "Jobs queued awaiting a PE")
            self._dispatch_hist = metrics.histogram(
                names.SERVER_DISPATCH_SECONDS,
                "Queue wait per job (T_dequeue - T_enqueue)")
            self._execute_hist = metrics.histogram(
                names.SERVER_EXECUTE_SECONDS,
                "Executable service time (T_complete - T_dequeue)",
                labelnames=("function",))
            self._calls_counter = metrics.counter(
                names.SERVER_CALLS, "Jobs run to completion",
                labelnames=("function", "status"))
            self._expired_counter = metrics.counter(
                names.SERVER_JOBS_EXPIRED,
                "Queued jobs dropped because their deadline passed")
            self._cancelled_counter = metrics.counter(
                names.SERVER_JOBS_CANCELLED,
                "Queued jobs dropped by a client CANCEL")
            self._shed_counter = metrics.counter(
                names.SERVER_JOBS_SHED,
                "Calls refused at admission instead of queued",
                labelnames=("reason",))
            self._completion_errors_counter = metrics.counter(
                names.SERVER_COMPLETION_ERRORS,
                "on_complete callbacks that raised (the job is still done)")
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)    # idle PEs wait here
        self._expiry = threading.Condition(self._lock)  # ninf-expiry does
        self._pending: list[Job] = []
        self._free_pes = num_pes
        self._running = 0
        self._seq = 0
        self._shutdown = False
        self._service_ewma = 0.0
        self.completed = 0
        self.failed = 0
        self.expired = 0
        self.cancelled = 0
        self.shed = 0
        self._threads = [
            threading.Thread(target=self._pe_loop, name=f"ninf-pe-{index}",
                             daemon=True)
            for index in range(num_pes)
        ]
        self._threads.append(threading.Thread(
            target=self._expiry_loop, name="ninf-expiry", daemon=True))
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, executable: NinfExecutable, values: list[Any],
               on_complete: Optional[Callable[[Job], None]] = None,
               callback: Optional[Callable[[float, str], None]] = None,
               deadline: Optional[float] = None,
               pes: Optional[int] = None) -> Job:
        """Accept a call; returns the queued Job (wait on ``job.done``).

        ``pes`` is the PE count to claim (default: the executable's
        ``pes_required``; a data-parallel server passes all of them).
        ``deadline`` is an absolute time on :attr:`clock`.  Admission
        control runs here: a full queue (``max_queued``) or a deadline
        the estimated queue wait already overshoots raises
        :class:`ServerBusy` carrying a retry-after hint, *before* the
        job consumes queue space.
        """
        pes = min(pes or executable.pes_required, self.num_pes)
        try:
            predicted = executable.signature.predicted_flops({
                spec.name: float(value)
                for spec, value in zip(executable.signature.args, values)
                if spec.is_input and not spec.is_array
                and isinstance(value, (int, float))
            })
        except Exception:
            predicted = None
        job = Job(
            seq=0,  # arrival order and time are decided under the lock
            executable=executable,
            values=values,
            pes_required=pes,
            predicted_cost=predicted,
            on_complete=on_complete or (lambda _job: None),
            callback=callback,
            deadline=deadline,
        )
        with self._lock:
            if self._shutdown:
                raise ServerShutdown("executor is shut down")
            if (self.max_queued is not None
                    and len(self._pending) >= self.max_queued
                    and self._free_pes < pes):
                self.shed += 1
                if self._shed_counter is not None:
                    self._shed_counter.inc(reason="queue-full")
                raise ServerBusy("queue-full",
                                 retry_after=self._estimated_wait_locked())
            if deadline is not None:
                wait = self._estimated_wait_locked()
                if self.clock() + wait >= deadline:
                    self.shed += 1
                    if self._shed_counter is not None:
                        self._shed_counter.inc(reason="deadline-unmeetable")
                    raise ServerBusy("deadline-unmeetable", retry_after=wait)
                self._expiry.notify()  # it may be the earliest now
            job.seq, job.enqueue_time = self._seq, self.clock()
            self._seq += 1
            self._pending.append(job)
            if self._queue_gauge is not None:
                self._queue_gauge.set(len(self._pending))
            self._work.notify()
        return job

    # -- introspection ------------------------------------------------------

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def running(self) -> int:
        with self._lock:
            return self._running

    def load(self) -> float:
        """Instantaneous runnable count (running + queued)."""
        with self._lock:
            return float(self._running + len(self._pending))

    def _estimated_wait_locked(self) -> float:
        """Rough queue wait for a newly arriving job, in seconds.

        Occupancy (queued + running, in units of "full server passes")
        times the EWMA service time.  Zero while the executor has never
        run anything — admission then never sheds on deadline grounds,
        which is the right cold-start bias.
        """
        if self._service_ewma <= 0.0:
            return 0.0
        occupancy = len(self._pending) + self._running
        if occupancy == 0 and self._free_pes > 0:
            return 0.0
        return self._service_ewma * occupancy / self.num_pes

    def estimated_wait(self) -> float:
        """Thread-safe :meth:`_estimated_wait_locked` (the BUSY hint)."""
        with self._lock:
            return self._estimated_wait_locked()

    # -- the PE and expiry threads --------------------------------------------

    def _take_expired_locked(self) -> list[Job]:
        """Unqueue the jobs whose deadline has passed, marked
        ``deadline-expired``: the client gave up, so they are answered
        BUSY (off the lock, by :meth:`_finish`) instead of computed."""
        now = self.clock()
        expired = [job for job in self._pending
                   if job.deadline is not None and job.deadline <= now]
        if expired:
            for dead in expired:
                self._pending.remove(dead)
            self.expired += len(expired)
            retry_after = self._estimated_wait_locked()
            for dead in expired:
                dead.error = ServerBusy("deadline-expired",
                                        retry_after=retry_after)
            if self._queue_gauge is not None:
                self._queue_gauge.set(len(self._pending))
                self._expired_counter.inc(len(expired))
        return expired

    def _finish(self, job: Job) -> None:
        """Settle ``job``: a raising ``on_complete`` is counted, not raised."""
        try:
            job.on_complete(job)
        except Exception:
            traceback.print_exc()
            if self._completion_errors_counter is not None:
                self._completion_errors_counter.inc()
        finally:
            job.done.set()

    def _pe_loop(self) -> None:
        while True:
            job: Optional[Job] = None
            with self._lock:
                while not (expired := self._take_expired_locked()):
                    index = self.policy.select(self._pending, self._free_pes)
                    if index is not None:
                        job = self._pending.pop(index)
                        if self._queue_gauge is not None:
                            self._queue_gauge.set(len(self._pending))
                        self._free_pes -= job.pes_required
                        self._running += 1
                        break
                    if self._shutdown:
                        return
                    self._work.wait()  # for a submit, or a PE with work over
                if self._pending:
                    self._work.notify()  # more may fit now: pass it on
            for dead in expired:
                self._finish(dead)
            if job is not None:
                self._run(job)

    def _expiry_loop(self) -> None:
        while True:
            with self._lock:
                while not (expired := self._take_expired_locked()):
                    if self._shutdown:
                        return
                    earliest = min(
                        (job.deadline for job in self._pending
                         if job.deadline is not None), default=float("inf"))
                    self._expiry.wait(min(earliest - self.clock(),
                                          threading.TIMEOUT_MAX))
                self._work.notify()  # the head of the line may have gone
            for dead in expired:
                self._finish(dead)

    def _run(self, job: Job) -> None:
        job.dequeue_time = self.clock()
        try:
            job.outputs = job.executable.invoke(job.values,
                                                callback=job.callback)
        except ExecutionError as exc:
            job.error = exc
        except Exception as exc:  # defensive: invoke wraps, but be safe
            job.error = ExecutionError(job.executable.name, exc)
        job.complete_time = self.clock()
        service = job.complete_time - job.dequeue_time
        if self._dispatch_hist is not None:
            self._dispatch_hist.observe(job.dequeue_time - job.enqueue_time)
            self._execute_hist.observe(service, function=job.executable.name)
            self._calls_counter.inc(
                function=job.executable.name,
                status="ok" if job.error is None else "error")
        with self._lock:
            self._free_pes += job.pes_required
            self._running -= 1
            if job.error is None:
                self.completed += 1
            else:
                self.failed += 1
            # EWMA of service time feeds the admission estimate; alpha
            # 0.3 tracks load shifts within a few calls.
            if self._service_ewma <= 0.0:
                self._service_ewma = service
            else:
                self._service_ewma += 0.3 * (service - self._service_ewma)
            if self._pending:
                self._work.notify()  # for the PE idle while we reply
        self._finish(job)

    # -- cancellation and shutdown ------------------------------------------

    def cancel(self, job: Job) -> bool:
        """Drop ``job`` if still queued; running jobs finish unimpeded.

        Returns whether the job was dropped.  A dropped job completes
        with a ``cancelled`` :class:`RemoteError` through the normal
        ``on_complete``/``done`` path, so waiters never hang.
        """
        with self._lock:
            try:
                self._pending.remove(job)
            except ValueError:
                return False  # already dispatched (or never queued here)
            self.cancelled += 1
            if self._queue_gauge is not None:
                self._queue_gauge.set(len(self._pending))
            self._work.notify()  # the head of the line may have gone
        if self._cancelled_counter is not None:
            self._cancelled_counter.inc()
        job.error = RemoteError("cancelled", "call cancelled by client")
        self._finish(job)
        return True

    def shutdown(self) -> None:
        """Stop dispatching; running jobs finish, queued jobs are dropped.

        Every dropped job is *completed* — ``on_complete`` fires and
        ``job.done`` is set with a :class:`ServerShutdown` error — so
        both local waiters and remote clients blocked on a reply learn
        their fate instead of hanging forever.  The threads are joined
        (5 s in all): an idle PE exits at once, a busy one after its job.
        """
        with self._lock:
            self._shutdown = True
            dropped, self._pending = self._pending, []
            self._work.notify_all()
            self._expiry.notify()
        for job in dropped:
            job.error = ServerShutdown()
            self._finish(job)
        give_up = time.monotonic() + 5.0
        for thread in self._threads:
            thread.join(timeout=max(0.0, give_up - time.monotonic()))
