"""The server's PE pool: queued jobs, policy-driven dispatch, timestamps.

Models the two execution styles the paper benchmarks:

- *task-parallel* ("1-PE"): each call claims one PE; up to ``num_pes``
  calls run concurrently (Python threads; the numeric kernels release
  the GIL inside NumPy).
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
    the job is worthless to the client; the dispatcher expires such
    jobs instead of dequeuing them (DESIGN.md §3.5).
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
    """Policy-driven job executor over a pool of ``num_pes`` PE slots.

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
    jobs whose deadline passes before a PE frees up are *expired* by
    the dispatcher (``ninf_server_jobs_expired_total``), and queued
    jobs a client explicitly :meth:`cancel`\\ s are counted in
    ``ninf_server_jobs_cancelled_total``.
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
        self._shed_counter = None
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
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
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
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="ninf-dispatcher", daemon=True
        )
        self._dispatcher.start()

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
            env = {}
            try:
                bound_env = {
                    spec.name: float(value)
                    for spec, value in zip(executable.signature.args, values)
                    if spec.is_input and not spec.is_array
                    and isinstance(value, (int, float))
                }
                env = bound_env
                predicted = executable.signature.predicted_flops(env)
            except Exception:
                predicted = None
            job = Job(
                seq=self._seq,
                executable=executable,
                values=values,
                pes_required=pes,
                predicted_cost=predicted,
                on_complete=on_complete or (lambda _job: None),
                callback=callback,
                deadline=deadline,
                enqueue_time=self.clock(),
            )
            self._seq += 1
            self._pending.append(job)
            if self._queue_gauge is not None:
                self._queue_gauge.set(len(self._pending))
            self._wakeup.notify_all()
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

    # -- dispatch -------------------------------------------------------------

    def _next_expiry_locked(self, now: float) -> Optional[float]:
        """Seconds until the earliest pending deadline (None = none)."""
        deadlines = [job.deadline for job in self._pending
                     if job.deadline is not None]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now)

    def _dispatch_loop(self) -> None:
        while True:
            job: Optional[Job] = None
            expired: list[Job] = []
            retry_after = 0.0
            with self._lock:
                while not self._shutdown:
                    now = self.clock()
                    expired = [j for j in self._pending
                               if j.deadline is not None and j.deadline <= now]
                    if expired:
                        # Refuse to dequeue worthless work: the client
                        # gave up, answer BUSY instead of computing.
                        for dead in expired:
                            self._pending.remove(dead)
                        self.expired += len(expired)
                        retry_after = self._estimated_wait_locked()
                        if self._queue_gauge is not None:
                            self._queue_gauge.set(len(self._pending))
                        break
                    index = self.policy.select(self._pending, self._free_pes)
                    if index is not None:
                        job = self._pending.pop(index)
                        if self._queue_gauge is not None:
                            self._queue_gauge.set(len(self._pending))
                        self._free_pes -= job.pes_required
                        self._running += 1
                        break
                    # Sleep until work arrives, a PE frees, or the
                    # earliest queued deadline needs expiring.
                    self._wakeup.wait(timeout=self._next_expiry_locked(now))
                if self._shutdown:
                    return
            if expired:
                if self._expired_counter is not None:
                    self._expired_counter.inc(len(expired))
                for dead in expired:
                    dead.error = ServerBusy("deadline-expired",
                                            retry_after=retry_after)
                    try:
                        dead.on_complete(dead)
                    finally:
                        dead.done.set()
                continue
            worker = threading.Thread(
                target=self._run_job, args=(job,),
                name=f"ninf-worker-{job.seq}", daemon=True,
            )
            worker.start()

    def _run_job(self, job: Job) -> None:
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
            self._execute_hist.observe(job.complete_time - job.dequeue_time,
                                       function=job.executable.name)
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
            self._wakeup.notify_all()
        try:
            job.on_complete(job)
        finally:
            job.done.set()

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
            self._wakeup.notify_all()
        if self._cancelled_counter is not None:
            self._cancelled_counter.inc()
        job.error = RemoteError("cancelled", "call cancelled by client")
        try:
            job.on_complete(job)
        finally:
            job.done.set()
        return True

    def shutdown(self) -> None:
        """Stop dispatching; running jobs finish, queued jobs are dropped.

        Every dropped job is *completed* — ``on_complete`` fires and
        ``job.done`` is set with a :class:`ServerShutdown` error — so
        both local waiters and remote clients blocked on a reply learn
        their fate instead of hanging forever.
        """
        with self._lock:
            self._shutdown = True
            dropped = self._pending
            self._pending = []
            self._wakeup.notify_all()
        for job in dropped:
            job.error = ServerShutdown()
            try:
                job.on_complete(job)
            finally:
                job.done.set()
        self._dispatcher.join(timeout=5.0)
