"""Overload & failover ablations: the DESIGN.md §3.5 resilience story.

Two questions the paper's steady-state tables never ask:

1. **What happens past saturation?**  The 1997 server fork-on-arrival
   accepts every call, so offered load beyond PE capacity turns into an
   unbounded processor-share pile-up -- every client's latency grows
   without limit and nobody meets a deadline.  Admission control
   (``max_queued``) sheds the excess at the door with a retry-after
   hint instead; :func:`overload_ablation` sweeps offered load and
   compares goodput (on-time completions per second) and p95 elapsed
   for the two disciplines.

2. **What happens when servers die?**  :func:`failover_ablation` kills
   a fraction of an n-server fleet mid-run and compares availability
   (call success rate) for bare clients bound to one server against
   clients that fail over to backup servers -- the simulated analogue
   of the live :class:`~repro.metaserver.BrokeredClient` re-picking
   through the metaserver with a circuit breaker.

Both sweeps are fully seeded: the same arguments reproduce the same
tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.experiments.common import (
    DEFAULT_HORIZON,
    ISSUE_PROBABILITY,
    THINK_INTERVAL_S,
    run_multiclient_cell,
)
from repro.model.machines import machine
from repro.model.network import lan_catalog
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.simninf.calls import SimCallRecord, linpack_spec
from repro.simninf.client import WorkloadClient, drain
from repro.simninf.server import SimNinfServer

__all__ = [
    "FailoverCell",
    "OverloadCell",
    "failover_ablation",
    "format_failover",
    "format_overload",
    "overload_ablation",
]


@dataclass(frozen=True)
class OverloadCell:
    """One (offered load, queue discipline) point of the overload sweep."""

    load_factor: float
    max_queued: Optional[int]
    clients: int
    calls_issued: int
    calls_completed: int
    calls_shed: int
    calls_failed: int
    late_calls: int
    goodput: float  # on-time completions per second
    success_rate: float
    mean_elapsed: float
    p95_elapsed: float

    @property
    def bounded(self) -> bool:
        return self.max_queued is not None


def _percentiles(records: Sequence[SimCallRecord]) -> tuple[float, float]:
    elapsed = [r.elapsed for r in records]
    if not elapsed:
        return 0.0, 0.0
    return float(np.mean(elapsed)), float(np.percentile(elapsed, 95))


def overload_ablation(
    load_factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    max_queued: int = 2,
    retry_attempts: int = 3,
    server_name: str = "j90",
    n: int = 600,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 1997,
    deadline_multiple: float = 6.0,
) -> list[OverloadCell]:
    """Sweep offered load with unbounded vs bounded admission.

    ``load_factor`` is offered load relative to PE capacity: the client
    count is sized so the fleet's aggregate issue rate (``p/s`` per
    client) is ``load_factor x num_pes / T_service``.  Each load point
    runs twice: ``max_queued=None`` (the 1997 accept-everything server)
    and the bounded queue, whose shed clients honour the retry-after
    hint up to ``retry_attempts`` times.  A call is "on time" when its
    elapsed stays under ``deadline_multiple`` times the one-PE service
    time; goodput counts only those.
    """
    server = machine(server_name)
    client = machine("alpha")
    spec = linpack_spec(server, n)
    service = spec.comp_seconds_1pe
    per_client_rate = ISSUE_PROBABILITY / THINK_INTERVAL_S
    capacity = server.num_pes / service  # calls/s the PE pool absorbs
    deadline = deadline_multiple * service
    cells: list[OverloadCell] = []
    for load in load_factors:
        c = max(1, round(load * capacity / per_client_rate))
        for bound in (None, max_queued):
            catalog = lan_catalog(server)  # fresh links per cell

            def route_factory(net, i, _catalog=catalog, _client=client):
                return _catalog.route_for(_client, i)

            result = run_multiclient_cell(
                server, route_factory, spec, c, mode="task", n=n,
                horizon=horizon, seed=seed, max_queued=bound,
                retry_attempts=retry_attempts, call_deadline=deadline,
            )
            mean_elapsed, p95 = _percentiles(result.records)
            on_time = len(result.records) - result.late_calls
            cells.append(OverloadCell(
                load_factor=load,
                max_queued=bound,
                clients=c,
                calls_issued=result.calls_issued,
                calls_completed=len(result.records),
                calls_shed=result.shed_seen,
                calls_failed=result.failed_calls,
                late_calls=result.late_calls,
                goodput=on_time / horizon,
                success_rate=result.success_rate,
                mean_elapsed=mean_elapsed,
                p95_elapsed=p95,
            ))
    return cells


def format_overload(cells: Sequence[OverloadCell]) -> str:
    """Markdown table of the sweep (the EXPERIMENTS.md rendering)."""
    lines = [
        "| load | queue | clients | issued | completed | shed | late | "
        "goodput (/s) | p95 elapsed (s) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for cell in cells:
        queue = (f"bounded({cell.max_queued})" if cell.bounded
                 else "unbounded")
        lines.append(
            f"| {cell.load_factor:.1f}x | {queue} | {cell.clients} "
            f"| {cell.calls_issued} | {cell.calls_completed} "
            f"| {cell.calls_shed} | {cell.late_calls} "
            f"| {cell.goodput:.2f} | {cell.p95_elapsed:.2f} |"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class FailoverCell:
    """One (kill fraction, failover on/off) point of the failover sweep."""

    kill_fraction: float
    failover: bool
    servers: int
    servers_killed: int
    calls_issued: int
    calls_completed: int
    calls_failed: int
    failovers: int
    availability: float
    mean_elapsed: float
    p95_elapsed: float


def failover_ablation(
    kill_fractions: Sequence[float] = (0.0, 0.25, 0.5),
    n_servers: int = 4,
    c: int = 8,
    server_name: str = "j90",
    n: int = 600,
    horizon: float = 120.0,
    kill_at: Optional[float] = None,
    seed: int = 1997,
    retry_attempts: int = 3,
) -> list[FailoverCell]:
    """Kill a fraction of the fleet mid-run, with and without failover.

    Clients are spread round-robin over ``n_servers``; at ``kill_at``
    (default a third into the run) the first ``kill_fraction x
    n_servers`` servers go down.  Bare clients stay bound to their
    (possibly dead) primary; failover clients walk the remaining fleet
    in round-robin order, the simulated analogue of the live
    metaserver re-pick + circuit breaker.
    """
    server_spec = machine(server_name)
    client_spec = machine("alpha")
    spec = linpack_spec(server_spec, n)
    when = horizon / 3.0 if kill_at is None else kill_at
    cells: list[FailoverCell] = []
    for fraction in kill_fractions:
        n_kill = round(fraction * n_servers)
        for failover in (False, True):
            sim = Simulator()
            network = Network(sim)
            fleet: list[tuple[SimNinfServer, object]] = []
            for _ in range(n_servers):
                catalog = lan_catalog(server_spec)  # per-server NIC
                fleet.append((
                    SimNinfServer(sim, network, server_spec, mode="task"),
                    catalog,
                ))
            clients = []
            for i in range(c):
                # Client i's candidate order: its primary first, then
                # the rest of the fleet round-robin.
                order = []
                for j in range(n_servers):
                    srv, catalog = fleet[(i + j) % n_servers]
                    order.append((srv, catalog.route_for(client_spec, i)))
                primary_server, primary_route = order[0]
                backups = order[1:] if failover else []
                clients.append(WorkloadClient(
                    sim, i, primary_server, primary_route, spec,
                    horizon=horizon, seed=seed, backups=backups,
                    retry_attempts=retry_attempts,
                ))

            if n_kill:
                def reaper(_sim=sim, _fleet=fleet, _kill=n_kill,
                           _when=when):
                    yield _sim.timeout(_when)
                    for srv, _catalog in _fleet[:_kill]:
                        srv.kill()

                sim.process(reaper(), name="reaper")
            drain(sim, clients, horizon)
            records: list[SimCallRecord] = []
            for cl in clients:
                records.extend(cl.records)
            failed = sum(cl.failed_calls for cl in clients)
            issued = len(records) + failed
            mean_elapsed, p95 = _percentiles(records)
            cells.append(FailoverCell(
                kill_fraction=fraction,
                failover=failover,
                servers=n_servers,
                servers_killed=n_kill,
                calls_issued=issued,
                calls_completed=len(records),
                calls_failed=failed,
                failovers=sum(cl.failovers for cl in clients),
                availability=(1.0 if issued == 0
                              else len(records) / issued),
                mean_elapsed=mean_elapsed,
                p95_elapsed=p95,
            ))
    return cells


def format_failover(cells: Sequence[FailoverCell]) -> str:
    """Markdown table of the sweep (the EXPERIMENTS.md rendering)."""
    lines = [
        "| killed | failover | issued | completed | failovers | "
        "availability | p95 elapsed (s) |",
        "|---|---|---|---|---|---|---|",
    ]
    for cell in cells:
        lines.append(
            f"| {cell.servers_killed}/{cell.servers} "
            f"| {'on' if cell.failover else 'off'} | {cell.calls_issued} "
            f"| {cell.calls_completed} | {cell.failovers} "
            f"| {100 * cell.availability:.1f}% | {cell.p95_elapsed:.2f} |"
        )
    return "\n".join(lines)
