"""Run a ``ninf-bench rpc`` stage schedule on the simulator.

This is the deterministic half of the harness: the same
:class:`~repro.bench.stages.StageSchedule` the live coordinator walks
with real processes is replayed here as discrete-event cells, one
fresh :class:`~repro.sim.engine.Simulator` per stage.  Fresh-per-stage
keeps stages independent operating points (like the live run, where
every stage builds new clients) and makes the whole sweep a pure
function of ``(schedule, server knobs)`` -- the byte-determinism the
CI perf gate relies on.

The server model is the paper's J90 cell (``mode="task"``: concurrent
calls processor-share the PE pool) with a synthetic fixed-cost call,
so the goodput-vs-clients curve has the same linear-then-knee shape
DiPerF expects from the live ramp: linear while clients < effective
capacity, flat (or shedding) past it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.model.machines import machine
from repro.model.network import lan_catalog
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.simninf.calls import CallSpec
from repro.simninf.client import WorkloadClient, drain
from repro.simninf.server import SimNinfServer

__all__ = ["SimStageRow", "bench_call_spec", "run_stage_schedule"]


@dataclass
class SimStageRow:
    """What one simulated stage measured (consumed by
    :func:`repro.bench.rpc.run_rpc_sim`)."""

    ok: int = 0
    shed: int = 0
    failed: int = 0
    retries: int = 0
    elapsed_s: float = 0.0
    latency_ms: dict = field(default_factory=dict)
    per_client_ok: list = field(default_factory=list)
    server_jobs_delta: int = 0
    server_sheds_delta: int = 0


def bench_call_spec(service_seconds: float = 0.05,
                    payload_bytes: float = 1024.0) -> CallSpec:
    """The synthetic fixed-service-time call the sim stages issue --
    the simulator's analogue of the live harness's ``bench_spin``."""
    return CallSpec(
        name="sim_spin",
        input_bytes=payload_bytes,
        output_bytes=payload_bytes,
        comp_seconds_1pe=service_seconds,
        comp_seconds_allpe=service_seconds,
        work_units=0.0,
    )


def _run_stage(clients: int, duration_s: float, think_s: float,
               seed: int, spec: CallSpec, num_pes: int,
               max_queued: Optional[int]) -> SimStageRow:
    """One stage = one self-contained multi-client sim cell."""
    sim = Simulator()
    network = Network(sim)
    server_spec = replace(machine("j90"), num_pes=num_pes)
    server = SimNinfServer(sim, network, server_spec, mode="task",
                           max_queued=max_queued)
    catalog = lan_catalog(server_spec)
    client_spec = machine("alpha")
    workload = [
        WorkloadClient(sim, i, server,
                       catalog.route_for(client_spec, i), spec,
                       s=think_s, p=1.0, horizon=duration_s, seed=seed,
                       pooled=True)
        for i in range(clients)
    ]
    drain(sim, workload, duration_s)

    row = SimStageRow()
    latencies = []
    for cl in workload:
        row.per_client_ok.append(len(cl.records))
        row.ok += len(cl.records)
        row.shed += cl.shed_seen
        row.failed += cl.failed_calls
        row.retries += cl.retries
        latencies.extend(r.complete_time - r.submit_time
                         for r in cl.records)
    row.elapsed_s = sim.now
    if latencies:
        p50, p95, p99 = np.percentile(latencies, (50, 95, 99))
        row.latency_ms = {"p50": round(float(p50) * 1000.0, 3),
                          "p95": round(float(p95) * 1000.0, 3),
                          "p99": round(float(p99) * 1000.0, 3)}
    else:
        row.latency_ms = {"p50": None, "p95": None, "p99": None}
    # Fresh server per stage, so totals are this stage's deltas.
    row.server_jobs_delta = server.calls_completed
    row.server_sheds_delta = server.shed
    return row


def run_stage_schedule(schedule, num_pes: int = 4,
                       max_queued: Optional[int] = 8,
                       service_seconds: float = 0.05,
                       payload_bytes: float = 1024.0) -> list[SimStageRow]:
    """Replay ``schedule`` stage by stage; returns one row per stage.

    Deterministic: per-stage seeds derive from ``schedule.seed`` and
    the stage index, and nothing reads a wall clock.
    """
    spec = bench_call_spec(service_seconds, payload_bytes)
    return [
        _run_stage(stage.clients, stage.duration_s, stage.think_s,
                   seed=schedule.seed + index, spec=spec,
                   num_pes=num_pes, max_queued=max_queued)
        for index, stage in enumerate(schedule)
    ]
