"""The server's PE pool: threads that run what the admission core admits.

Models the two execution styles the paper benchmarks: *task-parallel*
("1-PE"), where each call claims one PE and up to ``num_pes`` run at
once, and *data-parallel* ("4-PE"), where each call claims all PEs, so
calls serialize -- "the data-parallel version employs an optimally
vectorized and parallelized version with simultaneous execution on 4
PEs for each Ninf_call, invoked in sequence".  A call runs on its PE
thread, BLAS capped at the PEs it claimed, or -- a GIL-holding Python
kernel -- in a PE worker process the thread waits on (DESIGN.md §3.6).

Every queue and PE decision is the sans-IO
:class:`~repro.server.admission.AdmissionCore`'s, which the simulated
server drives too; this module keeps the threads, their hand-off slots, the
metrics and the call.  Every job records the paper's timestamps:
enqueue (accepted), dequeue (executable invoked), complete.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.obs import MetricsRegistry, names
from repro.protocol.errors import RemoteError, ServerBusy, ServerShutdown
from repro.protocol.messages import JobTimestamps
from repro.server.admission import AdmissionCore, Ticket
from repro.server.registry import ExecutionError, NinfExecutable
from repro.server.scheduling import SchedulingPolicy

__all__ = ["Executor", "Job"]


class _Done:
    """A one-shot event on one lock: :meth:`set` once, and every
    :meth:`wait` returns ``True`` from then on.  A job's ``done``; a
    ``threading.Event`` builds a ``Condition`` and two locks for it."""

    __slots__ = ("_gate", "_set")

    def __init__(self) -> None:
        self._gate = threading.Lock()
        self._gate.acquire()        # held until set
        self._set = False

    def set(self) -> None:
        """Open the gate; a second call does nothing."""
        if not self._set:
            self._set = True
            self._gate.release()

    def is_set(self) -> bool:
        return self._set

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until set or ``timeout`` seconds (``None``: no limit)
        have passed; whether it is set."""
        if self._set:
            return True
        if self._gate.acquire(timeout=-1 if timeout is None else min(
                max(timeout, 0.0), threading.TIMEOUT_MAX)):
            self._gate.release()    # the next waiter passes too
            return True
        return self._set


class _PE:
    """One PE thread's hand-off slot.  An idle PE blocks on ``wake``,
    which it holds while it has nothing to run; whoever hands it a job
    puts it in ``job`` and releases ``wake``.  Woken with no job, the
    PE exits."""

    __slots__ = ("wake", "job")

    def __init__(self) -> None:
        self.wake = threading.Lock()
        self.wake.acquire()
        self.job: Optional["Job"] = None


@dataclass(eq=False, kw_only=True)
class Job(Ticket):
    """One accepted call moving through the queue; past its
    ``deadline`` it is expired instead of dequeued (DESIGN.md §3.5)."""

    executable: NinfExecutable
    values: list[Any]
    on_complete: Callable[["Job"], None]
    callback: Optional[Callable[[float, str], None]] = None
    dequeue_time: float = 0.0
    complete_time: float = 0.0
    outputs: Optional[list[Any]] = None
    error: Optional[BaseException] = None
    done: _Done = field(default_factory=_Done)

    def timestamps(self) -> JobTimestamps:
        """The paper's T_enqueue/T_dequeue/T_complete triple."""
        return JobTimestamps(
            enqueue=self.enqueue_time,
            dequeue=self.dequeue_time,
            complete=self.complete_time,
        )


def _core_count(name: str) -> property:
    """A read-only view of one of the core's counts, under the lock."""
    def read(self: "Executor") -> int:
        with self._lock:
            return getattr(self._core, name)
    return property(read)


class Executor:
    """Policy-driven job executor over ``num_pes`` long-lived PE threads.

    A PE (``ninf-pe-<i>``) runs a job, returns its claim and calls
    ``on_complete``, all on one thread.  Every job is started by a hand-
    off made under ``_lock``: whoever changes what the core may start --
    ``submit``, a finishing PE, ``ninf-expiry``, ``cancel`` -- takes the
    jobs the core admits (their ``pes_required`` PEs claimed; data mode:
    all, so nothing else fits) and puts each in the slot of an idle PE,
    first idle first, releasing that PE's own wake lock.  The woken PE
    runs its job without taking ``_lock`` again.  A finishing PE returns
    its claim, sweeps expired jobs and hands pending work to idle PEs,
    then writes its own reply, and only then takes a job for itself (or
    goes idle): the other PEs start while it replies.  What its own
    expiry sweep lets start beyond its own job goes to idle PEs too.  ``ninf-expiry``
    sleeps until the earliest queued deadline, so ``deadline-expired``
    is answered on time while every PE is busy; only a deadline-bearing
    ``submit`` wakes it.

    Into its :class:`~repro.obs.MetricsRegistry` (``metrics``; a private
    one when ``None``) the executor publishes the server-side half of the
    OBSERVABILITY.md breakdown: ``ninf_server_queue_depth`` (jobs
    awaiting a PE),
    ``ninf_server_dispatch_seconds`` (the paper's ``T_wait``:
    dequeue - enqueue), ``ninf_server_execute_seconds{function}`` (the
    service time: complete - dequeue), and
    ``ninf_server_calls_total{function,status}``.

    ``policy`` and ``max_queued`` (``None``: unbounded) are the core's;
    ``ninf_server_jobs_shed_total{reason}``, ``..._expired_total`` and
    ``..._cancelled_total`` count its sheds, expiries and cancels.  An
    ``on_complete`` that raises costs neither a PE nor the job's
    ``done``: it is counted in ``ninf_server_completion_errors_total``
    and the thread carries on.
    """

    completed = _core_count("completed")
    failed = _core_count("failed")
    expired = _core_count("expired")
    cancelled = _core_count("cancelled")
    shed = _core_count("shed")
    running = _core_count("running")

    def __init__(self, num_pes: int = 1,
                 policy: Optional[SchedulingPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics=None,
                 max_queued: Optional[int] = None):
        self._core = AdmissionCore(num_pes, policy, clock, max_queued)
        self.num_pes = num_pes
        self.clock = clock
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue_gauge = metrics.gauge(
            names.SERVER_QUEUE_DEPTH, "Jobs queued awaiting a PE").labels()
        self._queue_gauge.set(0)
        self._queue_reported = 0  # what the gauge was last set to
        self._dispatch_hist = metrics.histogram(
            names.SERVER_DISPATCH_SECONDS,
            "Queue wait per job (T_dequeue - T_enqueue)").labels()
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
        # function -> its bound children: a finished job looks no
        # label up (see _bound).
        self._per_function: dict[str, tuple[Any, Any, Any]] = {}
        self._lock = threading.Lock()
        self._expiry = threading.Condition(self._lock)  # ninf-expiry waits
        # The PEs with nothing to run, in the order they went idle.
        self._idle: deque[_PE] = deque()
        self._threads = [
            threading.Thread(target=self._pe_loop, args=(_PE(),),
                             name=f"ninf-pe-{index}", daemon=True)
            for index in range(num_pes)]
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
        ``deadline`` is an absolute time on :attr:`clock`.  A call the
        core sheds raises :class:`ServerBusy` (with a retry-after hint)
        before it takes queue space.  A call the core starts at once
        goes straight to an idle PE.
        """
        pes = min(pes or executable.pes_required, self.num_pes)
        signature = executable.signature
        predicted = None
        if signature.calc_order:
            try:
                predicted = signature.predicted_flops({
                    spec.name: float(value)
                    for spec, value in zip(signature.args, values)
                    if spec.is_input and not spec.is_array
                    and isinstance(value, (int, float))
                })
            except Exception:
                pass
        job = Job(pes_required=pes, predicted_cost=predicted,
                  deadline=deadline, executable=executable, values=values,
                  on_complete=on_complete or (lambda _job: None),
                  callback=callback)
        with self._lock:
            try:
                self._core.offer(job)
            except ServerBusy as busy:
                self._shed_counter.inc(reason=busy.message)
                raise
            if deadline is not None:
                self._expiry.notify()  # it may be the earliest now
            self._hand_off_locked()
        return job

    # -- introspection ------------------------------------------------------

    @property
    def queued(self) -> int:
        with self._lock:
            return len(self._core.pending)

    def load(self) -> float:
        """Instantaneous runnable count (running + queued)."""
        with self._lock:
            return float(self._core.running + len(self._core.pending))

    def estimated_wait(self) -> float:
        """The core's queue-wait estimate of a new arrival (BUSY hint)."""
        with self._lock:
            return self._core.estimated_wait()

    def _queue_changed_locked(self) -> None:
        self._queue_reported = len(self._core.pending)
        self._queue_gauge.set(self._queue_reported)

    # -- hand-off, the PE and expiry threads ----------------------------------

    def _hand_off_locked(self) -> None:
        """Start what the core admits now on idle PEs, first idle first."""
        idle, pending = self._idle, self._core.pending
        while idle and pending:
            job = self._core.take()
            if job is None:
                break
            pe = idle.popleft()
            pe.job = job
            pe.wake.release()
        if len(pending) != self._queue_reported:
            self._queue_changed_locked()

    def _expire_locked(self) -> Sequence[Job]:
        """Unqueue the jobs whose deadline has passed, marked
        ``deadline-expired``: the client gave up, so they are answered
        BUSY (off the lock, by :meth:`_finish`) instead of computed."""
        if not self._core.pending:
            return ()
        expired = self._core.expire()
        if expired:
            retry_after = self._core.estimated_wait()
            for dead in expired:
                dead.error = ServerBusy("deadline-expired",
                                        retry_after=retry_after)
            self._queue_changed_locked()
            self._expired_counter.inc(len(expired))
        return expired

    def _finish(self, job: Job) -> None:
        """Settle ``job``: a raising ``on_complete`` is counted, not raised."""
        try:
            job.on_complete(job)
        except Exception:
            traceback.print_exc()
            self._completion_errors_counter.inc()
        finally:
            job.done.set()

    def _pe_loop(self, pe: _PE) -> None:
        while True:
            with self._lock:
                expired = self._expire_locked()
                job = self._core.take() if self._core.pending else None
                closed = self._core.closed
                if job is not None:
                    self._hand_off_locked()  # what an expiry let start
                elif not closed:
                    self._idle.append(pe)
            for dead in expired:
                self._finish(dead)
            if job is None:
                if closed:
                    return
                pe.wake.acquire()  # until a job is handed over, or shutdown
                job, pe.job = pe.job, None
                if job is None:
                    return
            self._run(job)

    def _expiry_loop(self) -> None:
        while True:
            with self._lock:
                while not (expired := self._expire_locked()):
                    if self._core.closed:
                        return
                    self._expiry.wait(min(
                        self._core.next_deadline() - self.clock(),
                        threading.TIMEOUT_MAX))
                self._hand_off_locked()  # the head of the line may have gone
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
        execute, ok, error = self._bound(job.executable.name)
        self._dispatch_hist.observe(job.dequeue_time - job.enqueue_time)
        execute.observe(service)
        (ok if job.error is None else error).inc()
        with self._lock:
            self._core.release(job, service, ok=job.error is None)
            expired = self._expire_locked()
            self._hand_off_locked()  # the other PEs start while we reply
        self._finish(job)
        for dead in expired:
            self._finish(dead)

    def _bound(self, function: str) -> tuple[Any, Any, Any]:
        """``function``'s execute, calls{ok} and calls{error} children
        (two PE threads binding a new name make the same series)."""
        children = self._per_function.get(function)
        if children is None:
            children = self._per_function[function] = (
                self._execute_hist.labels(function=function), *(
                    self._calls_counter.labels(function=function, status=s)
                    for s in ("ok", "error")))
        return children

    # -- cancellation and shutdown ------------------------------------------

    def cancel(self, job: Job) -> bool:
        """Drop ``job`` if still queued; running jobs finish unimpeded.

        Returns whether the job was dropped.  A dropped job completes
        with a ``cancelled`` :class:`RemoteError` through the normal
        ``on_complete``/``done`` path, so waiters never hang.
        """
        with self._lock:
            if not self._core.cancel(job):
                return False  # already dispatched (or never queued here)
            self._hand_off_locked()  # the head of the line may have gone
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
        (5 s in all): an idle PE is woken with no job and exits at once,
        a busy one after its job.
        """
        with self._lock:
            dropped = self._core.close()
            self._queue_changed_locked()
            while self._idle:
                self._idle.popleft().wake.release()
            self._expiry.notify()
        for job in dropped:
            job.error = ServerShutdown()
            self._finish(job)
        give_up = time.monotonic() + 5.0
        for thread in self._threads:
            thread.join(timeout=max(0.0, give_up - time.monotonic()))
