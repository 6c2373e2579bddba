"""Shared scenario machinery for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.model.machines import MachineSpec
from repro.sim.engine import Simulator
from repro.sim.network import Network, Route
from repro.simninf.calls import CallSpec, SimCallRecord
from repro.simninf.client import WorkloadClient, drain
from repro.simninf.metrics import LoadSampler, TableRow, aggregate
from repro.simninf.server import SimNinfServer

__all__ = ["MulticlientResult", "run_multiclient_cell", "run_one_call"]

# The paper's workload constants (§4.1).
THINK_INTERVAL_S = 3.0
ISSUE_PROBABILITY = 0.5
DEFAULT_HORIZON = 300.0


@dataclass
class MulticlientResult:
    """Everything measured in one (n, c) cell."""

    row: TableRow
    records: list[SimCallRecord]
    server: SimNinfServer
    per_client_counts: list[int] = field(default_factory=list)
    # Availability accounting under injected faults (fault_rate > 0):
    # completed = len(records); issued = completed + failed_calls.
    call_attempts: int = 0
    faults_seen: int = 0
    retries: int = 0
    failed_calls: int = 0
    # Resilience accounting (DESIGN.md §3.5).
    shed_seen: int = 0
    late_calls: int = 0
    failovers: int = 0

    @property
    def calls_issued(self) -> int:
        return len(self.records) + self.failed_calls

    @property
    def success_rate(self) -> float:
        issued = self.calls_issued
        return 1.0 if issued == 0 else len(self.records) / issued


def run_multiclient_cell(
    server_spec: MachineSpec,
    route_factory: Callable[[Network, int], Route],
    spec: CallSpec,
    c: int,
    mode: str = "task",
    n: Optional[int] = None,
    horizon: float = DEFAULT_HORIZON,
    seed: int = 1997,
    s: float = THINK_INTERVAL_S,
    p: float = ISSUE_PROBABILITY,
    switch_overhead: float = 0.0,
    site_of: Optional[Callable[[int], str]] = None,
    pooled: bool = False,
    pooled_setup: float = 0.0,
    t_setup: Optional[float] = None,
    fault_rate: float = 0.0,
    retry_attempts: int = 1,
    fault_cost: Optional[float] = None,
    max_queued: Optional[int] = None,
    call_deadline: Optional[float] = None,
    tracer=None,
) -> MulticlientResult:
    """Run one multi-client benchmark cell and aggregate the table row.

    ``route_factory(network, client_index)`` returns the route client
    ``i`` uses -- this is where LAN vs single-site WAN vs multi-site WAN
    topologies differ.  ``pooled=True`` gives every client a keep-alive
    connection (later calls pay only ``pooled_setup`` of the per-call
    setup cost) -- the transport-layer connection-reuse ablation;
    ``t_setup`` overrides the server's per-call setup cost outright.
    ``fault_rate``/``retry_attempts``/``fault_cost`` drive the
    availability ablation: each call attempt fails with ``fault_rate``
    probability and clients retry up to ``retry_attempts`` times (see
    :class:`~repro.simninf.client.WorkloadClient`).  ``max_queued``
    bounds the server's admission queue (excess calls are shed with a
    retry-after hint) and ``call_deadline`` counts completed calls that
    blew the per-call budget -- the DESIGN.md §3.5 overload ablation.
    ``tracer`` hands the server a :class:`~repro.obs.Tracer` so every
    simulated call emits the OBSERVABILITY.md span schema (build it
    with the sim clock; :func:`repro.experiments.breakdown.sim_breakdown`
    shows how).
    """
    if c < 1:
        raise ValueError(f"need at least one client, got {c}")
    sim = Simulator()
    network = Network(sim)
    server_kwargs = {} if t_setup is None else {"t_setup": t_setup}
    server = SimNinfServer(sim, network, server_spec, mode=mode,
                           switch_overhead=switch_overhead, tracer=tracer,
                           max_queued=max_queued, **server_kwargs)
    stats = server.machine.stats_window()
    LoadSampler(sim, server.machine, stats, interval=2.0)
    clients = []
    for i in range(c):
        route = route_factory(network, i)
        site = site_of(i) if site_of is not None else "lan"
        clients.append(
            WorkloadClient(sim, i, server, route, spec, s=s, p=p,
                           horizon=horizon, seed=seed, site=site,
                           pooled=pooled, pooled_setup=pooled_setup,
                           fault_rate=fault_rate,
                           retry_attempts=retry_attempts,
                           fault_cost=fault_cost,
                           call_deadline=call_deadline)
        )
    drain(sim, clients, horizon)
    records: list[SimCallRecord] = []
    for client in clients:
        records.extend(client.records)
    records.sort(key=lambda r: r.submit_time)
    row = aggregate(records, n, c, stats)
    return MulticlientResult(
        row=row,
        records=records,
        server=server,
        per_client_counts=[len(cl.records) for cl in clients],
        call_attempts=sum(cl.call_attempts for cl in clients),
        faults_seen=sum(cl.faults_seen for cl in clients),
        retries=sum(cl.retries for cl in clients),
        failed_calls=sum(cl.failed_calls for cl in clients),
        shed_seen=sum(cl.shed_seen for cl in clients),
        late_calls=sum(cl.late_calls for cl in clients),
        failovers=sum(cl.failovers for cl in clients),
    )


def run_one_call(server_spec: MachineSpec,
                 route_factory: Callable[[Network, int], Route],
                 spec: CallSpec, mode: str = "task") -> SimCallRecord:
    """Fire a single uncontended call and return its record (Figs 3-5)."""
    sim = Simulator()
    network = Network(sim)
    server = SimNinfServer(sim, network, server_spec, mode=mode)
    route = route_factory(network, 0)
    done: list[SimCallRecord] = []

    def body():
        record = SimCallRecord(spec=spec, client_id=0, submit_time=sim.now)
        yield from server.execute_call(record, route)
        done.append(record)

    sim.process(body())
    sim.run()
    (record,) = done
    return record
