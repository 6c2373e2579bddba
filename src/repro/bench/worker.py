"""The ``ninf-bench rpc`` client worker process.

DiPerF's insight (PAPERS.md) is that the measuring clients must be
real, independent processes: threads inside the coordinator share its
GIL, so past a few thousand calls per second the *client* becomes the
bottleneck and the measured "saturation" is an artifact.  Each worker
here is a separate OS process (spawned, never forked -- the coordinator
runs its servers on background threads, and forking a threaded parent
is undefined behaviour) running a slice of the stage's closed-loop
clients, one thread each.

Protocol (all over ``multiprocessing`` queues, everything picklable):

- coordinator -> worker: one :class:`StageTask` per stage on the
  worker's private task queue, ``None`` to shut down;
- worker: builds one :class:`~repro.client.NinfClient` per assigned
  client id (own connection pool -- per-client connections, like
  DiPerF's independent clients) and a thread to drive it (a blocking
  call holds its thread, as a paper client's ``Ninf_call`` holds its
  process), warms the signature caches, posts
  ``("ready", worker_id)`` on the result queue, then blocks on the
  shared start event so every worker begins issuing together;
- worker -> coordinator: a :class:`WorkerStageReport` on the shared
  result queue -- per-outcome call counts, the latency histogram
  (cumulative buckets, coordinator-mergeable), per-client completed
  counts for Jain's fairness, and retry totals.  A crashed stage still
  reports, with ``failure`` carrying the traceback, so the coordinator
  never deadlocks on a dead worker.

Measurements ride :mod:`repro.obs`: each stage gets a fresh
:class:`~repro.obs.MetricsRegistry` holding the pinned bench metrics
(``ninf_bench_calls_total``/``ninf_bench_call_seconds``/
``ninf_bench_stage_clients`` -- see OBSERVABILITY.md), so the report is
a registry snapshot, not a hand-rolled dict.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.bench.analysis import BENCH_LATENCY_BUCKETS
from repro.obs import MetricsRegistry, names

__all__ = ["StageTask", "WorkerStageReport", "worker_main"]


@dataclass(frozen=True)
class StageTask:
    """One stage's marching orders for one worker."""

    stage_index: int
    servers: tuple[tuple[str, int], ...]
    client_ids: tuple[int, ...]
    duration_s: float
    think_s: float
    function: str
    args: tuple
    timeout: float = 30.0
    retry_calls: bool = False


@dataclass
class WorkerStageReport:
    """One worker's measurements for one stage."""

    worker_id: int
    stage_index: int
    ok: int = 0
    shed: int = 0
    error: int = 0
    retries: int = 0
    per_client_ok: dict = field(default_factory=dict)
    latency_bounds: tuple = ()
    latency_cumulative: tuple = ()
    latency_sum: float = 0.0
    wall_seconds: float = 0.0
    failure: Optional[str] = None  # traceback text when the stage crashed


def _client_loop(client, task: StageTask, deadline: float, ok, shed,
                 error, latency) -> int:
    """One closed-loop client: call, record, repeat until the deadline;
    returns the calls completed.

    A shed (BUSY) or transport error counts against its outcome bucket
    and the loop presses on -- the stage measures the service under
    load, it does not stop at the first refusal.
    """
    from repro.protocol.errors import ProtocolError, RemoteError, ServerBusy

    completed = 0
    while time.monotonic() < deadline:
        if task.think_s > 0:
            time.sleep(task.think_s)
            if time.monotonic() >= deadline:
                break
        t0 = time.perf_counter()
        try:
            client.call(task.function, *task.args)
        except ServerBusy:
            shed.inc()
            continue
        except (RemoteError, ProtocolError, OSError):
            error.inc()
            continue
        latency.observe(time.perf_counter() - t0)
        ok.inc()
        completed += 1
    return completed


def _prepare_stage(task: StageTask):
    """Build the stage's registry, instruments, and clients."""
    from repro.client import NinfClient
    from repro.transport import RetryPolicy

    registry = MetricsRegistry()
    calls = registry.counter(names.BENCH_CALLS, "Bench calls by outcome",
                             labelnames=("outcome",))
    latency = registry.histogram(names.BENCH_CALL_SECONDS,
                                 "Bench call latency (client-side)",
                                 buckets=BENCH_LATENCY_BUCKETS)
    registry.gauge(names.BENCH_STAGE_CLIENTS,
                   "Closed-loop clients this worker ran in the current "
                   "stage").set(len(task.client_ids))
    retries = registry.counter(
        names.CLIENT_RETRIES,
        "Retries taken by this client's idempotent operations")
    clients: list = []
    try:
        for client_id in task.client_ids:
            host, port = task.servers[client_id % len(task.servers)]
            retry = RetryPolicy(max_attempts=3) if task.retry_calls else None
            clients.append((client_id, NinfClient(
                host, port, timeout=task.timeout, metrics=registry,
                retry=retry, retry_calls=task.retry_calls)))
    except BaseException:
        for _cid, client in clients:
            client.close()
        raise
    return calls, latency, retries, clients


def _run_stage(worker_id: int, task: StageTask, result_queue,
               start_event) -> WorkerStageReport:
    calls, latency, retries_counter, clients = _prepare_stage(task)
    per_client_ok: dict = {}
    outcomes = [calls.labels(outcome=outcome)
                for outcome in ("ok", "shed", "error")]
    go = threading.Event()
    deadline = 0.0      # set before ``go``

    def drive(client_id, client) -> None:
        go.wait()
        completed = _client_loop(client, task, deadline, *outcomes, latency)
        if completed:
            per_client_ok[client_id] = completed

    threads = [threading.Thread(target=drive, args=client, daemon=True,
                                name=f"bench-client-{client[0]}")
               for client in clients]
    try:
        # Warm the signature caches and open each pool connection before
        # reporting ready, so stage timing measures calls, not handshakes.
        for _cid, client in clients:
            client.get_signature(task.function)
        for thread in threads:
            thread.start()
        # Rendezvous: tell the coordinator we are set, then wait for the
        # all-workers-ready start signal so the fleet begins together.
        result_queue.put(("ready", worker_id, task.stage_index))
        start_event.wait()
        t_start = time.perf_counter()
        deadline = time.monotonic() + task.duration_s
        go.set()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t_start
    finally:
        go.set()    # a failed warm-up releases the threads it started
        for _cid, client in clients:
            client.close()
    ok, shed, error = (int(calls.value(outcome=outcome))
                       for outcome in ("ok", "shed", "error"))
    snap = latency.snapshot()
    if snap["values"]:
        value = snap["values"][0]
        bounds, cumulative = tuple(value["bounds"]), tuple(value["buckets"])
        total = float(value["sum"])
    else:  # no completed call observed any latency
        bounds = tuple(BENCH_LATENCY_BUCKETS)
        cumulative = tuple([0] * (len(bounds) + 1))
        total = 0.0
    retries = int(retries_counter.value())
    return WorkerStageReport(
        worker_id=worker_id, stage_index=task.stage_index,
        ok=ok, shed=shed, error=error,
        retries=retries, per_client_ok=per_client_ok,
        latency_bounds=bounds, latency_cumulative=cumulative,
        latency_sum=total, wall_seconds=wall)


def worker_main(worker_id: int, task_queue, result_queue,
                start_event) -> None:
    """Process entry point: serve stage tasks until ``None`` arrives.

    A crashed stage still reports (with ``failure`` set), and the
    coordinator counts a failure report in place of the ready message,
    so a dying worker can never deadlock the run.
    """
    while True:
        task = task_queue.get()
        if task is None:
            return
        try:
            report = _run_stage(worker_id, task, result_queue,
                                start_event)
        except BaseException:
            import traceback

            report = WorkerStageReport(worker_id=worker_id,
                                       stage_index=task.stage_index,
                                       failure=traceback.format_exc())
        result_queue.put(report)
