"""``ninf-bench rpc`` -- the DiPerF-style distributed load coordinator.

The paper's own methodology is multi-client curves, not point samples,
and DiPerF (PAPERS.md) is the modern template: coordinated distributed
clients, a controlled load ramp, a detected saturation point, and a
per-client fairness figure.  This module is that harness for the live
stack:

1. start a :class:`~repro.server.NinfServer` fleet (loopback,
   ``--servers`` wide) with the bench ``spin`` function registered;
2. spawn ``--processes`` client *worker processes*
   (:mod:`repro.bench.worker`; multiprocessing so client-side GIL
   contention cannot masquerade as server saturation);
3. walk the :class:`~repro.bench.stages.StageSchedule`: each stage
   fans its closed-loop clients across the workers, rendezvouses, runs
   for the stage duration, and collects per-worker reports;
4. scrape every server's :mod:`repro.obs` registry over the ``STATS``
   wire op before and after each stage, so each row carries the
   *server's* call/shed deltas next to the harness's own counts -- the
   cross-check that catches double-counting in either layer;
5. detect the saturation knee over the goodput-vs-clients series
   (:func:`~repro.bench.analysis.detect_saturation`) and serialise the
   versioned ``BENCH_rpc.json`` (:mod:`repro.bench.schema`).

``--sim`` runs the identical schedule on the simulator instead
(:mod:`repro.simninf.stagedriver`) and emits the same report shape,
byte-deterministically -- the CI stand-in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.bench.analysis import (
    detect_saturation,
    jain_fairness,
    merge_cumulative_buckets,
    quantile_from_cumulative,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    dump_report,
    git_sha,
    machine_identity,
)
from repro.bench.stages import StageSchedule, build_ramp
from repro.bench.worker import StageTask, WorkerStageReport, worker_main
from repro.obs import names

__all__ = [
    "DEFAULT_SPIN_SECONDS",
    "MAX_CLIENTS_PER_WORKER",
    "StageRow",
    "cross_check_summary",
    "run_rpc_benchmark",
    "run_rpc_sim",
]

#: Server-side service time of one bench call.  Non-zero on purpose:
#: a pure noop saturates on the reactor alone at trivially small
#: concurrency, while a short fixed service time gives the ramp a
#: linear region and a knee the regression can find (DiPerF's shape).
DEFAULT_SPIN_SECONDS = 0.002

_SPIN_IDL = ('Define bench_spin(mode_in double seconds) '
             '"bench fixed-service-time op";')

#: How long past a stage's nominal duration the coordinator waits for
#: worker reports before declaring the run wedged.
_STAGE_GRACE_S = 120.0

#: Most closed-loop clients one worker process runs, one thread each (a
#: worker's clients share its one interpreter lock): a stage that would
#: put more on one worker is refused before anything starts.
MAX_CLIENTS_PER_WORKER = 256


def _bench_registry():
    import time as _time

    from repro.server import Registry

    registry = Registry()
    registry.register(_SPIN_IDL,
                      lambda seconds: _time.sleep(float(seconds)))
    return registry


@dataclass
class StageRow:
    """One measured operating point: the report's stage-table row."""

    index: int
    clients: int
    duration_s: float
    think_s: float
    calls_ok: int = 0
    calls_shed: int = 0
    calls_error: int = 0
    retries: int = 0
    wall_seconds: float = 0.0
    latency_ms: dict = field(default_factory=dict)
    fairness_jain: float = 1.0
    server_jobs_ok_delta: int = 0
    server_jobs_error_delta: int = 0
    server_sheds_delta: int = 0

    @property
    def goodput_per_s(self) -> float:
        return self.calls_ok / self.wall_seconds \
            if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON shape of one row of the report's ``stages`` table."""
        return {
            "index": self.index,
            "clients": self.clients,
            "duration_s": self.duration_s,
            "think_s": self.think_s,
            "calls_ok": self.calls_ok,
            "calls_shed": self.calls_shed,
            "calls_error": self.calls_error,
            "retries": self.retries,
            "wall_seconds": round(self.wall_seconds, 4),
            "goodput_per_s": round(self.goodput_per_s, 2),
            "latency_ms": self.latency_ms,
            "fairness_jain": round(self.fairness_jain, 4),
            "server": {
                "jobs_ok_delta": self.server_jobs_ok_delta,
                "jobs_error_delta": self.server_jobs_error_delta,
                "sheds_delta": self.server_sheds_delta,
            },
        }


def cross_check_summary(rows: Sequence[StageRow],
                        tolerance: float = 0.01) -> dict:
    """Whole-run harness-vs-server reconciliation.

    The harness's completed-call count and the servers' own ``ok`` job
    deltas must agree within ``tolerance`` (relative); same for sheds.
    A disagreement means one layer double-counts or drops -- exactly
    the bug class DiPerF's coordinated accounting exists to catch.
    """
    harness_ok = sum(row.calls_ok for row in rows)
    harness_shed = sum(row.calls_shed for row in rows)
    server_ok = sum(row.server_jobs_ok_delta for row in rows)
    server_shed = sum(row.server_sheds_delta for row in rows)

    def relative_gap(a: int, b: int) -> float:
        return abs(a - b) / max(1, b)

    ok_gap = relative_gap(harness_ok, server_ok)
    shed_gap = relative_gap(harness_shed, server_shed)
    return {
        "harness_calls_ok": harness_ok,
        "server_jobs_ok": server_ok,
        "ok_relative_gap": round(ok_gap, 6),
        "harness_calls_shed": harness_shed,
        "server_sheds": server_shed,
        "shed_relative_gap": round(shed_gap, 6),
        "tolerance": tolerance,
        "consistent": bool(ok_gap <= tolerance and shed_gap <= tolerance),
    }


def _stats_totals(snapshot: dict) -> tuple[int, int, int]:
    """(jobs ok, jobs error, sheds) out of one STATS snapshot."""
    ok = error = sheds = 0
    calls = snapshot.get(names.SERVER_CALLS, {})
    for value in calls.get("values", ()):
        status = value.get("labels", {}).get("status")
        if status == "ok":
            ok += int(value["value"])
        elif status == "error":
            error += int(value["value"])
    shed = snapshot.get(names.SERVER_JOBS_SHED, {})
    for value in shed.get("values", ()):
        sheds += int(value["value"])
    return ok, error, sheds


def _merge_stage(index: int, clients: int, duration_s: float,
                 think_s: float, client_ids: Sequence[int],
                 reports: Sequence[WorkerStageReport]) -> StageRow:
    """Fold the workers' reports into one stage row."""
    row = StageRow(index=index, clients=clients, duration_s=duration_s,
                   think_s=think_s)
    per_client: dict[int, int] = {cid: 0 for cid in client_ids}
    bounds: Optional[tuple] = None
    cumulative_parts = []
    walls = []
    for report in reports:
        row.calls_ok += report.ok
        row.calls_shed += report.shed
        row.calls_error += report.error
        row.retries += report.retries
        per_client.update(report.per_client_ok)
        if report.latency_cumulative:
            if bounds is None:
                bounds = report.latency_bounds
            elif bounds != report.latency_bounds:
                raise RuntimeError("workers disagree on latency buckets")
            cumulative_parts.append(report.latency_cumulative)
        walls.append(report.wall_seconds)
    row.wall_seconds = max(walls) if walls else 0.0
    if bounds is not None and cumulative_parts:
        merged = merge_cumulative_buckets(cumulative_parts)
        row.latency_ms = {
            f"p{int(q * 100)}": round(
                quantile_from_cumulative(bounds, merged, q) * 1000.0, 3)
            for q in (0.50, 0.95, 0.99)
        }
    else:
        row.latency_ms = {"p50": None, "p95": None, "p99": None}
    row.fairness_jain = jain_fairness(list(per_client.values()))
    return row


def _partition(client_ids: Sequence[int],
               processes: int) -> list[tuple[int, ...]]:
    """Deal the stage's client ids across the workers round-robin."""
    shares: list[list[int]] = [[] for _ in range(processes)]
    for position, client_id in enumerate(client_ids):
        shares[position % processes].append(client_id)
    return [tuple(share) for share in shares]


def _build_report(mode: str, schedule: StageSchedule, rows: list[StageRow],
                  config: dict, extra: Optional[dict] = None) -> dict:
    saturation = detect_saturation(
        [float(row.clients) for row in rows],
        [row.goodput_per_s for row in rows])
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "rpc",
        "mode": mode,
        "machine": machine_identity(sim=(mode == "sim")),
        "git_sha": git_sha(),
        "config": {"schedule": schedule.to_dict(), **config},
        "stages": [row.to_dict() for row in rows],
        "saturation": saturation.to_dict(),
        "cross_check": cross_check_summary(rows),
    }
    if extra:
        report.update(extra)
    return report


def run_rpc_benchmark(schedule: Optional[StageSchedule] = None,
                      processes: int = 4,
                      servers: int = 1,
                      num_pes: int = 4,
                      max_queued: Optional[int] = 128,
                      spin_seconds: float = DEFAULT_SPIN_SECONDS,
                      retry_calls: bool = False,
                      output: Optional[Path] = None,
                      log=print) -> dict:
    """Run the live multi-process load ramp; return (and write) the report.

    The server fleet and the coordinator live in this process; the
    clients live in ``processes`` spawned workers.  Loopback transport:
    like ``ninf-bench connections``, the numbers charge client and
    server cost to one machine, which is the honest configuration for
    a self-contained regression gate.
    """
    import multiprocessing

    from repro.bench.connections import raise_fd_limit
    from repro.client import NinfClient
    from repro.server import NinfServer

    if schedule is None:
        schedule = build_ramp()
    if processes < 1:
        raise ValueError(f"need at least one worker, got {processes}")
    if servers < 1:
        raise ValueError(f"need at least one server, got {servers}")
    per_worker = -(-schedule.max_clients // processes)
    if per_worker > MAX_CLIENTS_PER_WORKER:
        raise ValueError(
            f"{schedule.max_clients} clients over {processes} worker "
            f"processes puts {per_worker} on one, more than "
            f"{MAX_CLIENTS_PER_WORKER}: raise --processes to at least "
            f"{-(-schedule.max_clients // MAX_CLIENTS_PER_WORKER)}")
    fd_limit = raise_fd_limit(max(4096, 4 * schedule.max_clients))
    log(f"fd soft limit: {fd_limit}")

    context = multiprocessing.get_context("spawn")
    fleet = [NinfServer(_bench_registry(), num_pes=num_pes,
                        max_queued=max_queued, name=f"bench-server-{i}")
             for i in range(servers)]
    rows: list[StageRow] = []
    scrapers: list[NinfClient] = []
    workers: list = []
    task_queues: list = []
    result_queue = context.Queue()
    start_event = context.Event()
    try:
        for server in fleet:
            server.start()
        addresses = tuple(server.address for server in fleet)
        for host, port in addresses:
            scraper = NinfClient(host, port)
            scrapers.append(scraper)
        task_queues = [context.Queue() for _ in range(processes)]
        workers = [
            context.Process(target=worker_main,
                            args=(i, task_queues[i], result_queue,
                                  start_event),
                            daemon=True)
            for i in range(processes)
        ]
        for worker in workers:
            worker.start()

        next_client_id = 0
        for index, stage in enumerate(schedule):
            client_ids = tuple(range(next_client_id,
                                     next_client_id + stage.clients))
            next_client_id += stage.clients
            shares = _partition(client_ids, processes)
            before = [_stats_totals(scraper.fetch_stats("json"))
                      for scraper in scrapers]
            start_event.clear()
            for worker_index, share in enumerate(shares):
                task_queues[worker_index].put(StageTask(
                    stage_index=index, servers=addresses,
                    client_ids=share, duration_s=stage.duration_s,
                    think_s=stage.think_s, function="bench_spin",
                    args=(spin_seconds,), retry_calls=retry_calls))
            reports = _collect_stage(result_queue, start_event, processes,
                                     index, stage.duration_s)
            after = [_stats_totals(scraper.fetch_stats("json"))
                     for scraper in scrapers]
            row = _merge_stage(index, stage.clients, stage.duration_s,
                               stage.think_s, client_ids, reports)
            row.server_jobs_ok_delta = sum(
                a[0] - b[0] for a, b in zip(after, before))
            row.server_jobs_error_delta = sum(
                a[1] - b[1] for a, b in zip(after, before))
            row.server_sheds_delta = sum(
                a[2] - b[2] for a, b in zip(after, before))
            rows.append(row)
            log(f"stage {index}: {stage.clients} clients -> "
                f"{row.goodput_per_s:.1f} ok/s, "
                f"p95 {row.latency_ms.get('p95')} ms, "
                f"shed {row.calls_shed}, fairness "
                f"{row.fairness_jain:.3f}")
    finally:
        for queue in task_queues:
            queue.put(None)
        start_event.set()  # release any worker still parked at the gate
        for worker in workers:
            worker.join(timeout=30.0)
            if worker.is_alive():  # pragma: no cover - wedged worker
                worker.terminate()
        for scraper in scrapers:
            scraper.close()
        for server in fleet:
            server.stop()

    config = {
        "processes": processes,
        "servers": servers,
        "num_pes": num_pes,
        "max_queued": max_queued,
        "function": "bench_spin",
        "spin_seconds": spin_seconds,
        "retry_calls": retry_calls,
    }
    report = _build_report("live", schedule, rows, config,
                           extra={"timestamp": time.strftime(
                               "%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    if output is not None:
        dump_report(report, output)
        log(f"wrote {output}")
    return report


def _collect_stage(result_queue, start_event, processes: int,
                   stage_index: int,
                   duration_s: float) -> list[WorkerStageReport]:
    """Rendezvous + harvest: wait for every worker's ready message, fire
    the start gate, then gather every worker's stage report.

    A worker that crashes during setup sends its failure report instead
    of a ready message; the run aborts with the worker's traceback
    rather than hanging.
    """
    deadline = time.monotonic() + duration_s + _STAGE_GRACE_S
    ready = 0
    reports: list[WorkerStageReport] = []

    def take():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(
                f"stage {stage_index}: workers unresponsive "
                f"(got {ready} ready, {len(reports)} reports)")
        import queue as queue_mod

        try:
            return result_queue.get(timeout=remaining)
        except queue_mod.Empty:
            raise RuntimeError(
                f"stage {stage_index}: timed out waiting on workers "
                f"(got {ready} ready, {len(reports)} reports)") from None

    while ready < processes:
        message = take()
        if isinstance(message, WorkerStageReport):
            start_event.set()  # unblock the healthy workers before failing
            raise RuntimeError(
                f"stage {stage_index}: worker {message.worker_id} failed "
                f"during setup:\n{message.failure}")
        ready += 1
    start_event.set()
    while len(reports) < processes:
        message = take()
        if not isinstance(message, WorkerStageReport):
            continue  # stray ready from an aborted earlier stage
        if message.failure is not None:
            raise RuntimeError(
                f"stage {stage_index}: worker {message.worker_id} "
                f"failed:\n{message.failure}")
        reports.append(message)
    return reports


def run_rpc_sim(schedule: Optional[StageSchedule] = None,
                num_pes: int = 4,
                max_queued: Optional[int] = 8,
                service_seconds: float = 0.05,
                payload_bytes: float = 1024.0,
                output: Optional[Path] = None,
                log=print) -> dict:
    """Run the identical stage schedule on the simulator.

    Same report schema, same saturation/fairness/cross-check pipeline,
    but simulated time: seconds of modelled load cost milliseconds of
    wall clock, and a fixed seed makes the JSON byte-identical run to
    run -- which is what lets CI gate on it.
    """
    from repro.simninf.stagedriver import run_stage_schedule

    if schedule is None:
        schedule = build_ramp()
    sim_rows = run_stage_schedule(schedule, num_pes=num_pes,
                                  max_queued=max_queued,
                                  service_seconds=service_seconds,
                                  payload_bytes=payload_bytes)
    rows: list[StageRow] = []
    for index, (stage, sim_row) in enumerate(zip(schedule, sim_rows)):
        row = StageRow(index=index, clients=stage.clients,
                       duration_s=stage.duration_s, think_s=stage.think_s,
                       calls_ok=sim_row.ok, calls_shed=sim_row.shed,
                       calls_error=sim_row.failed,
                       retries=sim_row.retries,
                       wall_seconds=sim_row.elapsed_s,
                       latency_ms=sim_row.latency_ms,
                       fairness_jain=jain_fairness(sim_row.per_client_ok),
                       server_jobs_ok_delta=sim_row.server_jobs_delta,
                       server_sheds_delta=sim_row.server_sheds_delta)
        rows.append(row)
        log(f"stage {index}: {stage.clients} clients -> "
            f"{row.goodput_per_s:.1f} ok/s (sim)")
    config = {
        "num_pes": num_pes,
        "max_queued": max_queued,
        "function": "sim_spin",
        "service_seconds": service_seconds,
        "payload_bytes": payload_bytes,
    }
    report = _build_report("sim", schedule, rows, config)
    if output is not None:
        dump_report(report, output)
        log(f"wrote {output}")
    return report
