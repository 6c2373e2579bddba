"""One measured run of one workload: set-up, warm-up, five trials,
cross-checks.  Returns raw numbers; ``metrics.py`` turns them into the
named metrics.
"""

from __future__ import annotations

import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.client import NinfClient

import simtables
import stats
from catalog import HOST, TRIALS
from catalog import WORKLOADS as CATALOG
from harness import ServerProc, counter_total, shm_counts, shm_segments
from workloads import RpcWorkload

SETUPS = 5                     # setup_s is their median
MAX_FAILURES_PER_TRIAL = 100   # a broken server must not spin the loop
# The bounded rate and latency come from the run's best *window*: a
# client's consecutive calls until they add up to WINDOW_SECONDS and
# WINDOW_CALLS.  On a shared host interference only ever slows a window
# down, so the fastest one is the least disturbed; over ten runs its
# quartile spread was 9-20% where the median of five trials gave 22-31%.
WINDOW_SECONDS = 0.1
WINDOW_CALLS = 4


@dataclass
class Run:
    """Everything one run of one workload measured."""

    clients: int
    tail_pct: float
    setup_s: list = field(default_factory=list)        # one per set-up
    trial_rates: list = field(default_factory=list)    # calls/s, per trial
    # Per trial: every client's best window rate, summed; the lowest
    # median latency of a window.  The run reports its best trial.
    trial_best_rates: list = field(default_factory=list)
    trial_best_p50s: list = field(default_factory=list)
    latencies: list = field(default_factory=list)      # s, pooled
    attempted: int = 0
    ok: int = 0
    calls: int = 0                    # completed Ninf_calls (simulated ones
                                      # for sim_tables): the per-call divisor
    failed: int = 0
    problems: list = field(default_factory=list)       # failed checks
    wall_s: float = 0.0               # sum of trial wall times
    server_cpu_s: float = 0.0         # child CPU over the trials
    client_cpu_s: float = 0.0         # parent CPU minus prepare/verify
    peak_rss_mb: float = 0.0          # ru_maxrss of the child at shutdown
    rss_growth_kb: float = 0.0        # child VmRSS, end minus start of trials
    window_ns: tuple = (0, 0)         # first trial start, last trial end
    # (enqueue, dequeue, complete) of every ok call, server clock
    server_stamps: list = field(default_factory=list)
    stats_delta: dict = field(default_factory=dict)    # STATS, over trials
    child_report: Optional[dict] = None
    shm_leaked: int = 0
    units_per_call: dict = field(default_factory=dict)  # payload_bytes, flops
    sim: dict = field(default_factory=dict)             # sim_tables only

    def problem(self, message: str, count: int = 1) -> None:
        self.problems.append(message)
        self.failed += count


class _ClientLoop:
    """One closed-loop client: prepare, timed call, verify, repeat."""

    def __init__(self, workload: RpcWorkload, index: int, handle):
        self.workload, self.index, self.handle = workload, index, handle
        self.latencies: list = []
        self.stamps: list = []
        self.attempted = self.ok = self.failed = 0
        self.excluded_cpu = 0.0
        self.errors: list = []

    def run(self, deadline: float) -> None:
        workload, index, handle = self.workload, self.index, self.handle
        thread_cpu = time.thread_time
        while self.failed < MAX_FAILURES_PER_TRIAL:
            cpu0 = thread_cpu()
            args = workload.prepare(index)
            cpu1 = thread_cpu()
            start = time.perf_counter()
            if start >= deadline:
                break
            self.attempted += 1
            try:
                outputs, record = workload.invoke(handle, args)
            except Exception as exc:   # a failed call is a counted failure
                self.failed += 1
                self.errors.append(repr(exc))
                continue
            self.latencies.append(time.perf_counter() - start)
            cpu2 = thread_cpu()
            good = workload.verify(index, args, outputs)
            self.excluded_cpu += (cpu1 - cpu0) + (thread_cpu() - cpu2)
            if good:
                self.ok += 1
                server = record.server
                self.stamps.append(
                    (server.enqueue, server.dequeue, server.complete))
            else:
                self.failed += 1
                self.errors.append("wrong output")


def windows(latencies: list) -> list:
    """Cut one client's latencies, in call order, into windows of at
    least WINDOW_SECONDS and WINDOW_CALLS; a trial too short for one
    full window is a single window."""
    result, current, total = [], [], 0.0
    for latency in latencies:
        current.append(latency)
        total += latency
        if total >= WINDOW_SECONDS and len(current) >= WINDOW_CALLS:
            result.append(current)
            current, total = [], 0.0
    return result or [list(latencies)]


def _run_trial(workload: RpcWorkload, handles: list, seconds: float) -> list:
    """All clients of the workload for ``seconds``; at most
    ``workload.clients`` (<= nproc) requests are ever in flight."""
    loops = [_ClientLoop(workload, i, h) for i, h in enumerate(handles)]
    deadline = time.perf_counter() + seconds
    if len(loops) == 1:
        loops[0].run(deadline)
        return loops
    threads = [threading.Thread(target=loop.run, args=(deadline,),
                                name=f"perf-client-{loop.index}")
               for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return loops


def _start(workload: RpcWorkload, trace: bool):
    """Spawn the child, connect, make one verified call per client.
    Returns ``(child, handles, seconds from spawn to verified reply)``."""
    start = time.perf_counter()
    child = ServerProc(workload.stack, trace=trace, seed=workload.seed,
                       cpus=workload.cpus)
    handles = workload.connect(child.ports)
    for index, handle in enumerate(handles):
        args = workload.prepare(index)
        outputs, _record = workload.invoke(handle, args)
        if not workload.verify(index, args, outputs):
            raise RuntimeError(f"{workload.name}: first reply is wrong")
    return child, handles, time.perf_counter() - start


def _server_stats(controls: dict) -> dict:
    return {name: client.fetch_stats("json")
            for name, client in controls.items()}


def _stats_delta(before: dict, after: dict, function: str) -> dict:
    """What the servers' own metrics say happened between two STATS."""
    def total(snapshots, name, **labels):
        return sum(counter_total(s, name, **labels)
                   for s in snapshots.values())

    def histogram(name):
        # Bucket-wise sum over the compute servers (brokered has two).
        merged_bounds, merged = None, None
        for server, snapshot in after.items():
            values = snapshot.get(name, {}).get("values") or []
            if not values:
                continue
            old = (before[server].get(name, {}).get("values") or [None])[0]
            bounds, buckets = stats.histogram_delta(values[0], old)
            if merged is None:
                merged_bounds, merged = bounds, buckets
            else:
                merged = [a + b for a, b in zip(merged, buckets)]
        return merged_bounds, merged

    calls = "ninf_server_calls_total"
    return {
        "ok": int(total(after, calls, function=function, status="ok")
                  - total(before, calls, function=function, status="ok")),
        "shed": int(total(after, "ninf_server_jobs_shed_total")
                    - total(before, "ninf_server_jobs_shed_total")),
        "dispatch": histogram("ninf_server_dispatch_seconds"),
        "loop_lag": histogram("ninf_server_loop_lag_seconds"),
    }


def measure_rpc(workload: RpcWorkload, seconds: float, trace: bool = False,
                setups: int = SETUPS) -> Run:
    """Set up ``setups`` times (the last child is kept), warm up for a
    tenth of ``seconds``, run TRIALS trials of ``seconds / TRIALS``."""
    run = Run(workload.clients, workload.tail_pct,
              units_per_call={"payload_bytes": workload.payload_bytes,
                              "flops": workload.flops})
    segments_before = shm_segments()
    child = handles = None
    for _ in range(setups):
        if child is not None:
            workload.close(handles)
            child.shutdown()
        child, handles, took = _start(workload, trace)
        run.setup_s.append(took)
    controls = {name: NinfClient(HOST, child.ports[name])
                for name in workload.compute_servers}
    try:
        _run_trial(workload, handles, seconds / 10.0)          # warm-up
        before = _server_stats(controls)
        cpu_child0, cpu_self0 = child.cpu_seconds(), time.process_time()
        rss0 = child.rss_kb()
        excluded = 0.0
        window_start = time.perf_counter_ns()
        for _ in range(TRIALS):
            trial_start = time.perf_counter()
            loops = _run_trial(workload, handles, seconds / TRIALS)
            run.wall_s += time.perf_counter() - trial_start
            cut = [[w for w in windows(loop.latencies) if w] for loop in loops]
            if all(cut):   # a client whose every call failed has no window
                run.trial_best_rates.append(sum(
                    max(len(w) / sum(w) for w in client) for client in cut))
                run.trial_best_p50s.append(min(
                    statistics.median(w) for client in cut for w in client))
            run.trial_rates.append(sum(
                len(loop.latencies) / sum(loop.latencies)
                for loop in loops if loop.latencies))
            for loop in loops:
                run.latencies.extend(loop.latencies)
                run.server_stamps.extend(loop.stamps)
                run.attempted += loop.attempted
                run.ok += loop.ok
                run.failed += loop.failed
                run.problems.extend(loop.errors[:3])
                excluded += loop.excluded_cpu
        run.window_ns = (window_start, time.perf_counter_ns())
        if not run.trial_best_rates:
            raise RuntimeError(f"{workload.name}: no trial in which every "
                               f"client completed a call: {run.problems}")
        run.calls = len(run.latencies)
        run.client_cpu_s = time.process_time() - cpu_self0 - excluded
        run.server_cpu_s = child.cpu_seconds() - cpu_child0
        run.rss_growth_kb = child.rss_kb() - rss0
        run.stats_delta = _stats_delta(before, _server_stats(controls),
                                       workload.function)
    finally:
        for client in controls.values():
            client.close()
        workload.close(handles)
        run.child_report = child.shutdown()
    run.peak_rss_mb = run.child_report["ru_maxrss_kb"] / 1024.0
    # Segments still in /dev/shm, plus those the child's resource tracker
    # reported (and removed) at its shutdown: a leak either way.
    run.shm_leaked = (len(shm_segments() - segments_before)
                      + run.child_report["tracker_leaks"])

    # DiPerF's cross-check: the harness's count against the service's own.
    if run.stats_delta["ok"] != run.ok:
        run.problem(f"harness counted {run.ok} ok calls, the server's "
                    f"ninf_server_calls_total says {run.stats_delta['ok']}",
                    abs(run.stats_delta["ok"] - run.ok) or 1)
    if run.stats_delta["shed"]:
        run.problem(f"server shed {run.stats_delta['shed']} calls")
    upgrades, fallbacks = shm_counts(run.child_report)
    if (upgrades, fallbacks) != (workload.shm_upgrades, 0):
        # Every call counts as failed: the run did not use the channel
        # the workload is there to measure.
        run.problem(f"expected {workload.shm_upgrades} shm upgrade(s) and no "
                    f"fallback, the servers report {upgrades} and "
                    f"{fallbacks}", run.attempted)
    return run


def sim_pass(seed: int) -> dict:
    """Regenerate the six tables once: per table wall seconds, events
    executed and Ninf_calls simulated."""
    tables = {}
    for name, driver in simtables.TABLES.items():
        start = time.perf_counter()
        result = driver(seed=seed)
        wall = time.perf_counter() - start
        events, calls = simtables.table_totals(result)
        tables[name] = {"wall_s": wall, "events": events, "calls": calls}
    return tables


def measure_sim(seed: int, seconds: float, setups: int = SETUPS) -> Run:
    """Full passes over the six tables until ``seconds`` have elapsed.

    Set-up is a fresh interpreter importing ``repro.experiments`` and
    regenerating Table 5 (``serverproc --stack sim``), checked against
    this process's own Table 5 totals.
    """
    run = Run(1, CATALOG["sim_tables"]["tail_pct"])
    reference = None
    for _ in range(setups):
        start = time.perf_counter()
        child = ServerProc("sim", seed=seed,
                           cpus=CATALOG["sim_tables"]["cpus"])
        run.setup_s.append(time.perf_counter() - start)
        child.shutdown()
        if reference is None:
            events, calls = simtables.table_totals(
                simtables.TABLES["table5"](seed=seed))
            reference = {"events": events, "calls": calls}
        if child.ports != reference:
            run.problem(f"set-up child computed {child.ports}, "
                        f"this process {reference}")
    sim_pass(seed)                                              # warm-up
    passes = []
    cpu0 = time.process_time()
    window_start = time.perf_counter_ns()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(sim_pass(seed))
    run.window_ns = (window_start, time.perf_counter_ns())
    run.server_cpu_s = time.process_time() - cpu0
    run.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    for tables in passes:
        wall = sum(t["wall_s"] for t in tables.values())
        calls = sum(t["calls"] for t in tables.values())
        run.wall_s += wall
        run.calls += calls
        run.trial_rates.append(calls / wall)
        run.attempted += len(tables)
        for name, table in tables.items():
            # Latency of a simulated call: the table's wall time per call.
            run.latencies.append(table["wall_s"] / table["calls"])
            if (table["events"], table["calls"]) != (
                    first[name]["events"], first[name]["calls"]):
                run.problem(f"{name}: totals differ between passes")
            else:
                run.ok += 1
    if seed == simtables.GOLDEN_SEED:
        for name, want in simtables.load_golden().items():
            got = {k: first[name][k] for k in ("events", "calls")}
            if got != want:
                run.problem(f"{name}: {got} at seed {seed}, golden {want}")
    # The window of this workload is one table regeneration (0.04-0.4 s),
    # and a table's best is over the passes so far: the k-th entry is what
    # a run of k passes would report, the last one what this run reports.
    for done in range(1, len(passes) + 1):
        best_wall = {name: min(p[name]["wall_s"] for p in passes[:done])
                     for name in first}
        run.trial_best_rates.append(sum(t["calls"] for t in first.values())
                                    / sum(best_wall.values()))
        run.trial_best_p50s.append(statistics.median(
            best_wall[name] / first[name]["calls"] for name in first))
    run.sim = {
        "passes": len(passes),
        "events_per_pass": sum(t["events"] for t in first.values()),
        "calls_per_pass": sum(t["calls"] for t in first.values()),
        "table_wall_ms": {
            name: 1e3 * statistics.median(p[name]["wall_s"] for p in passes)
            for name in first},
    }
    return run
