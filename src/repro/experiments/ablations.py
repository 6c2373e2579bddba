"""Ablations for the design choices the paper discusses (§5).

- :func:`sjf_vs_fcfs` -- §5.2: "By predicting the computation and
  communication time of a Ninf_call task using IDL and server trace
  information, we could perform Shortest-Job-First (SJF) scheduling,
  improving the response time and utilization considerably."  We run a
  mixed workload (small and large Linpack calls) through the simulated
  server with FCFS vs SJF admission and compare small-call latency.
- :func:`scheduler_comparison_wan` -- §4.2.2/§6: load-only placement
  (NetSolve-style) vs bandwidth-aware placement when one server is
  close (LAN) and one is far (WAN).  The paper: load-based "might
  partially work for LAN situations, but would not scale to WAN".
- :func:`fpfs_vs_fcfs_packing` -- §5.3: with mixed-width jobs on a
  multiprocessor, FCFS head-of-line blocking idles PEs that FPFS uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.model.machines import machine
from repro.model.network import lan_catalog, singlesite_wan_catalog
from repro.server.scheduling import (
    FCFSPolicy,
    FPFSPolicy,
    SchedulingPolicy,
    SJFPolicy,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.simninf.calls import CallSpec, SimCallRecord, linpack_spec
from repro.simninf.server import SimNinfServer

__all__ = [
    "PolicyOutcome",
    "PlacementOutcome",
    "fpfs_vs_fcfs_packing",
    "scheduler_comparison_wan",
    "sjf_vs_fcfs",
]


@dataclass(frozen=True)
class PolicyOutcome:
    """Latency statistics of one admission policy run."""

    policy: str
    mean_elapsed_small: float
    mean_elapsed_large: float
    mean_wait_small: float
    makespan: float


def _run_policy_mix(policy: SchedulingPolicy,
                    arrivals: Sequence[tuple[float, CallSpec, bool]]
                    ) -> PolicyOutcome:
    """Replay ``(delay, call, is_small)`` arrivals on the sim J90."""
    sim = Simulator()
    network = Network(sim)
    server = SimNinfServer(sim, network, machine("j90"), mode="task",
                           policy=policy)
    catalog = lan_catalog(machine("j90"))
    records: list[tuple[bool, SimCallRecord]] = []

    def one(delay: float, spec: CallSpec, is_small: bool, index: int):
        yield sim.timeout(delay)
        record = SimCallRecord(spec=spec, client_id=index, submit_time=sim.now)
        route = catalog.route_for(machine("alpha"), index)
        yield from server.execute_call(record, route)
        records.append((is_small, record))

    for index, (delay, spec, is_small) in enumerate(arrivals):
        sim.process(one(delay, spec, is_small, index))
    sim.run()
    small_records = [r for s, r in records if s]
    large_records = [r for s, r in records if not s]
    return PolicyOutcome(
        policy=policy.name,
        mean_elapsed_small=float(np.mean([r.elapsed for r in small_records])),
        mean_elapsed_large=float(np.mean([r.elapsed for r in large_records])),
        mean_wait_small=float(np.mean([r.wait for r in small_records])),
        makespan=max(r.complete_time for _, r in records),
    )


def sjf_vs_fcfs(num_bursts: int = 6, seed: int = 7
                ) -> dict[str, PolicyOutcome]:
    """Mixed small/large Linpack bursts under FCFS vs SJF admission.

    Each burst delivers a batch of large (n=1400) calls -- more than the
    execution slots -- just before a batch of small (n=300) calls, so
    large work is still queued when the small calls arrive; FCFS makes
    the small calls wait behind it, SJF lets them jump ahead (§5.2).
    """
    j90 = machine("j90")
    small = linpack_spec(j90, 300)
    large = linpack_spec(j90, 1400)
    rng = np.random.default_rng(seed)
    arrivals: list[tuple[float, CallSpec, bool]] = []
    for burst in range(num_bursts):
        base = burst * 120.0
        for _ in range(8):
            arrivals.append((base + rng.uniform(0.0, 0.5), large, False))
        for _ in range(6):
            arrivals.append((base + 0.6 + rng.uniform(0.0, 0.5), small, True))
    return {
        "fcfs": _run_policy_mix(FCFSPolicy(), arrivals),
        "sjf": _run_policy_mix(SJFPolicy(), arrivals),
    }


def fpfs_vs_fcfs_packing(seed: int = 11) -> dict[str, PolicyOutcome]:
    """Mixed-width jobs on the 4-PE J90: wide (4-PE) + narrow (1-PE).

    The §5.3 scenario: a wide SPMD job arrives while two PEs are busy
    with long narrow jobs.  FCFS holds the queue for the wide job,
    idling the two free PEs that the later short narrow jobs could use;
    FPFS backfills them.  The measurable effect is short-narrow-job
    latency (and makespan).
    """
    j90 = machine("j90")
    short_narrow = linpack_spec(j90, 300).with_pes(1)
    wide = linpack_spec(j90, 1200).with_pes(4)
    long_narrow = linpack_spec(j90, 1400).with_pes(1)
    rng = np.random.default_rng(seed)
    arrivals: list[tuple[float, CallSpec, bool]] = []
    for burst in range(5):
        base = burst * 120.0
        for _ in range(2):  # two long narrow jobs occupy two slots
            arrivals.append((base, long_narrow, False))
        arrivals.append((base + 0.3, wide, False))  # wide blocks FCFS
        for _ in range(6):  # short narrow jobs that FPFS can backfill
            arrivals.append((base + 0.6 + rng.uniform(0.0, 0.5),
                             short_narrow, True))

    return {"fcfs": _run_policy_mix(FCFSPolicy(), arrivals),
            "fpfs": _run_policy_mix(FPFSPolicy(), arrivals)}


@dataclass(frozen=True)
class PlacementOutcome:
    """Result of one metaserver placement policy in the WAN scenario."""

    policy: str
    mean_elapsed: float
    near_fraction: float  # fraction of calls placed on the near server


def scheduler_comparison_wan(n: int = 1000, calls: int = 24,
                             near_load: int = 2) -> dict[str, PlacementOutcome]:
    """Load-based vs bandwidth-aware placement, one near + one far server.

    The near server is on the LAN (fast link) but carries ``near_load``
    resident tasks; the far server is idle but behind the 0.13 MB/s WAN
    path.  Load-based placement prefers the idle far server and pays
    the transfer; bandwidth-aware placement predicts total completion
    time and keeps communication-heavy calls near -- the §4.2.2 lesson.
    """
    j90 = machine("j90")
    spec = linpack_spec(j90, n)

    def run(policy: str) -> PlacementOutcome:
        sim = Simulator()
        network = Network(sim)
        near = SimNinfServer(sim, network, j90, mode="data")
        far = SimNinfServer(sim, network, j90, mode="data")
        lan = lan_catalog(j90)
        wan = singlesite_wan_catalog(j90)
        # Background load on the near server.
        for _ in range(near_load):
            sim.process(near.machine.run(1e9, max_pes=1.0))

        comm_time_near = spec.comm_bytes / 2.4e6
        comm_time_far = spec.comm_bytes / 0.13e6
        records: list[SimCallRecord] = []
        placed_near = 0

        def one(index: int, delay: float):
            nonlocal placed_near
            yield sim.timeout(delay)
            if policy == "load":
                # NetSolve-style: least runnable per PE.
                near_score = near.machine.cpu.active_jobs / j90.num_pes
                far_score = far.machine.cpu.active_jobs / j90.num_pes
                use_near = near_score <= far_score
            else:
                # Bandwidth-aware: predicted comm + contended compute.
                t_near = comm_time_near + spec.comp_seconds_allpe * (
                    1 + near.machine.cpu.active_jobs)
                t_far = comm_time_far + spec.comp_seconds_allpe * (
                    1 + far.machine.cpu.active_jobs)
                use_near = t_near <= t_far
            server = near if use_near else far
            route = (lan.route_for(machine("alpha"), index) if use_near
                     else wan.route_for_site("ochau", index))
            if use_near:
                placed_near += 1
            record = SimCallRecord(spec=spec, client_id=index,
                                   submit_time=sim.now)
            yield from server.execute_call(record, route)
            records.append(record)

        for index in range(calls):
            sim.process(one(index, index * 4.0))
        sim.run()
        return PlacementOutcome(
            policy=policy,
            mean_elapsed=float(np.mean([r.elapsed for r in records])),
            near_fraction=placed_near / calls,
        )

    return {"load": run("load"), "bandwidth": run("bandwidth")}
