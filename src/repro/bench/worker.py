"""The ``ninf-bench rpc`` client worker process.

DiPerF's insight (PAPERS.md) is that the measuring clients must be
real, independent processes: threads inside the coordinator share its
GIL, so past a few thousand calls per second the *client* becomes the
bottleneck and the measured "saturation" is an artifact.  Each worker
here is a separate OS process (spawned, never forked -- the coordinator
runs its servers on background threads, and forking a threaded parent
is undefined behaviour) running an asyncio loop with a slice of
the stage's closed-loop clients.

Protocol (all over ``multiprocessing`` queues, everything picklable):

- coordinator -> worker: one :class:`StageTask` per stage on the
  worker's private task queue, ``None`` to shut down;
- worker: builds one :class:`~repro.client.aio.AsyncNinfClient` per
  assigned client id (own connection pool -- per-client connections,
  like DiPerF's independent clients), warms the signature cache, posts
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

import asyncio
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


async def _client_loop(client, client_id: int, task: StageTask,
                       deadline: float, calls, latency,
                       per_client_ok: dict) -> None:
    """One closed-loop client: call, record, repeat until the deadline.

    A shed (BUSY) or transport error counts against its outcome bucket
    and the loop presses on -- the stage measures the service under
    load, it does not stop at the first refusal.
    """
    from repro.protocol.errors import ProtocolError, RemoteError, ServerBusy

    while time.monotonic() < deadline:
        if task.think_s > 0:
            await asyncio.sleep(task.think_s)
            if time.monotonic() >= deadline:
                break
        t0 = time.perf_counter()
        try:
            await client.call(task.function, *task.args)
        except ServerBusy:
            calls.inc(outcome="shed")
            continue
        except (RemoteError, ProtocolError, OSError, asyncio.TimeoutError):
            calls.inc(outcome="error")
            continue
        latency.observe(time.perf_counter() - t0)
        calls.inc(outcome="ok")
        per_client_ok[client_id] = per_client_ok.get(client_id, 0) + 1


def _prepare_stage(task: StageTask):
    """Build the stage's registry, instruments, and clients.

    Runs *off-loop* (``asyncio.to_thread``): registry lookups take the
    registry lock and client construction builds connection pools --
    none of which belongs on the event loop the stage is about to
    measure (``ninf-lint``'s async-blocking-reachability rule enforces
    this).  The coroutine only ever touches the returned instrument
    handles, whose ``inc``/``observe`` micro-ops are loop-safe.
    """
    from repro.client import AsyncNinfClient
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
            clients.append((client_id, AsyncNinfClient(
                host, port, timeout=task.timeout, metrics=registry,
                retry=retry, retry_calls=task.retry_calls)))
    except BaseException:
        for _cid, client in clients:
            client.close()
        raise
    return calls, latency, retries, clients


async def _run_stage_async(worker_id: int, task: StageTask, result_queue,
                           start_event) -> WorkerStageReport:
    calls, latency, retries_counter, clients = await asyncio.to_thread(
        _prepare_stage, task)
    per_client_ok: dict = {}
    try:
        # Warm the signature caches and open each pool connection before
        # reporting ready, so stage timing measures calls, not handshakes.
        await asyncio.gather(*(client.get_signature(task.function)
                               for _cid, client in clients))
        # Rendezvous: tell the coordinator we are set, then wait for the
        # all-workers-ready start signal so the fleet begins together.
        # Both the queue put and the event wait can block on their
        # multiprocessing pipes, so both go through the thread bridge.
        await asyncio.to_thread(result_queue.put,
                                ("ready", worker_id, task.stage_index))
        await asyncio.to_thread(start_event.wait)
        t_start = time.perf_counter()
        deadline = time.monotonic() + task.duration_s
        await asyncio.gather(*(
            _client_loop(client, client_id, task, deadline, calls,
                         latency, per_client_ok)
            for client_id, client in clients))
        wall = time.perf_counter() - t_start
    finally:
        for _cid, client in clients:
            client.close()
    outcomes = {outcome: int(calls.value(outcome=outcome))
                for outcome in ("ok", "shed", "error")}
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
        ok=outcomes["ok"], shed=outcomes["shed"], error=outcomes["error"],
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
            report = asyncio.run(
                _run_stage_async(worker_id, task, result_queue,
                                 start_event))
        except BaseException:
            import traceback

            report = WorkerStageReport(worker_id=worker_id,
                                       stage_index=task.stage_index,
                                       failure=traceback.format_exc())
        result_queue.put(report)
