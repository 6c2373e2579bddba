"""Declarative scenario API for the global-computing simulator.

The paper's stated purpose for the simulator: "we could readily test
different client network topologies under various communication and
other parameters."  This module is that front door -- describe servers,
sites, client groups and workloads as data; run; get table rows back.

>>> scenario = Scenario(
...     servers=[ServerSpec("etl-j90", machine="j90", mode="data")],
...     sites=[SiteSpec("ochau", bandwidth=0.17e6, latency=0.015,
...                     stream_ceiling=0.13e6)],
...     clients=[ClientGroup(site="ochau", count=4, server="etl-j90",
...                          workload=Workload("linpack", n=1000))],
...     horizon=1200.0)
>>> result = scenario.run(seed=1)
>>> result.rows["etl-j90"].performance.mean    # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.model.machines import MachineSpec, machine
from repro.model.network import ftp_throughput
from repro.model.perf import DEFAULT_T_COMM0
from repro.server.scheduling import make_policy
from repro.sim.engine import Simulator
from repro.sim.network import Link, Network, Route
from repro.simninf.calls import CallSpec, SimCallRecord, ep_spec, linpack_spec
from repro.simninf.client import WorkloadClient, drain
from repro.simninf.metrics import LoadSampler, TableRow, aggregate
from repro.simninf.server import SimNinfServer

__all__ = ["ClientGroup", "Scenario", "ScenarioResult", "ServerSpec",
           "SiteSpec", "Workload"]


@dataclass(frozen=True)
class ServerSpec:
    """One computational server in the scenario."""

    name: str
    machine: str = "j90"             # catalog name
    mode: str = "task"               # task- or data-parallel
    nic_bandwidth: float = 12e6      # server attachment, bytes/s
    policy: Optional[str] = None     # admission policy (None = 1997 FCFS fork)
    t_setup: Optional[float] = None  # per-call setup cost (None = T_comm0)


@dataclass(frozen=True)
class SiteSpec:
    """A client site: shared uplink toward the servers."""

    name: str
    bandwidth: float                 # shared uplink, bytes/s
    latency: float = 0.0
    stream_ceiling: Optional[float] = None  # per-connection TCP limit


@dataclass(frozen=True)
class Workload:
    """What each client of a group calls repeatedly."""

    kind: str                        # "linpack" | "ep" | "custom"
    n: int = 600                     # Linpack order / EP log2 pairs
    spec: Optional[CallSpec] = None  # for kind="custom"

    def build(self, server_machine: MachineSpec) -> CallSpec:
        """Materialize the CallSpec against the target machine."""
        if self.kind == "linpack":
            return linpack_spec(server_machine, self.n)
        if self.kind == "ep":
            return ep_spec(server_machine, m=self.n)
        if self.kind == "custom":
            if self.spec is None:
                raise ValueError("custom workload needs an explicit spec")
            return self.spec
        raise ValueError(f"unknown workload kind {self.kind!r}")


@dataclass(frozen=True)
class ClientGroup:
    """``count`` identical clients at a site, calling one server.

    ``pooled=False`` is the paper's connection-per-call client; ``True``
    models transport-layer connection reuse (only the first call pays
    the full setup cost, later calls pay ``pooled_setup``).
    """

    site: str
    count: int
    server: str
    workload: Workload
    client_machine: str = "alpha"
    s: float = 3.0                  # the paper's think interval
    p: float = 0.5                  # issue probability
    pooled: bool = False            # keep-alive connection reuse
    pooled_setup: float = 0.0       # residual setup cost when pooled


@dataclass
class ScenarioResult:
    """Aggregated outcome: one table row per server + raw records."""

    rows: dict[str, TableRow]
    records: dict[str, list[SimCallRecord]]
    per_site_throughput: dict[str, float] = field(default_factory=dict)

    def total_calls(self) -> int:
        """Completed calls across every server."""
        return sum(row.times for row in self.rows.values())


class Scenario:
    """A runnable simulator configuration."""

    def __init__(self, servers: list[ServerSpec], sites: list[SiteSpec],
                 clients: list[ClientGroup], horizon: float = 600.0):
        if not servers:
            raise ValueError("a scenario needs at least one server")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.servers = {s.name: s for s in servers}
        self.sites = {s.name: s for s in sites}
        self.clients = clients
        self.horizon = horizon
        if len(self.servers) != len(servers):
            raise ValueError("duplicate server names")
        if len(self.sites) != len(sites):
            raise ValueError("duplicate site names")
        for group in clients:
            if group.server not in self.servers:
                raise ValueError(f"client group references unknown server "
                                 f"{group.server!r}")
            if group.site not in self.sites and group.site != "lan":
                raise ValueError(f"client group references unknown site "
                                 f"{group.site!r}")
            if group.count < 1:
                raise ValueError("client groups need count >= 1")

    def run(self, seed: int = 1997) -> ScenarioResult:
        """Build the simulation, run to drain, aggregate per server."""
        sim = Simulator()
        network = Network(sim)
        sim_servers: dict[str, SimNinfServer] = {}
        nics: dict[str, Link] = {}
        stats = {}
        for name, spec in self.servers.items():
            sim_servers[name] = SimNinfServer(
                sim, network, machine(spec.machine), mode=spec.mode,
                policy=make_policy(spec.policy) if spec.policy else None,
                t_setup=(DEFAULT_T_COMM0 if spec.t_setup is None
                         else spec.t_setup))
            nics[name] = Link(f"{name}-nic", spec.nic_bandwidth, 0.0005)
            stats[name] = sim_servers[name].machine.stats_window()
            LoadSampler(sim, sim_servers[name].machine, stats[name])

        site_links = {
            name: Link(f"{name}-uplink", site.bandwidth, site.latency)
            for name, site in self.sites.items()
        }

        all_clients: dict[str, list[WorkloadClient]] = {
            name: [] for name in self.servers
        }
        client_id = 0
        for group in self.clients:
            server_spec = self.servers[group.server]
            server_machine = machine(server_spec.machine)
            call_spec = group.workload.build(server_machine)
            for _ in range(group.count):
                links = []
                if group.site == "lan":
                    bandwidth = ftp_throughput(group.client_machine,
                                               server_spec.machine)
                    links.append(Link(f"access{client_id}", bandwidth,
                                      0.0005))
                else:
                    site = self.sites[group.site]
                    if site.stream_ceiling is not None:
                        links.append(Link(f"stream{client_id}",
                                          site.stream_ceiling, 0.0))
                    links.append(site_links[group.site])
                links.append(nics[group.server])
                route = Route(links, name=f"c{client_id}->{group.server}")
                all_clients[group.server].append(
                    WorkloadClient(sim, client_id, sim_servers[group.server],
                                   route, call_spec, s=group.s, p=group.p,
                                   horizon=self.horizon, seed=seed,
                                   site=group.site, pooled=group.pooled,
                                   pooled_setup=group.pooled_setup)
                )
                client_id += 1

        drain(sim, [c for group in all_clients.values() for c in group],
              self.horizon)

        rows: dict[str, TableRow] = {}
        records: dict[str, list[SimCallRecord]] = {}
        for name in self.servers:
            server_records = []
            for client in all_clients[name]:
                server_records.extend(client.records)
            server_records.sort(key=lambda r: r.submit_time)
            records[name] = server_records
            rows[name] = aggregate(server_records, n=None,
                                   c=len(all_clients[name]),
                                   stats=stats[name])
        result = ScenarioResult(rows=rows, records=records)
        by_site: dict[str, list[float]] = {}
        for server_records in records.values():
            for record in server_records:
                by_site.setdefault(record.site, []).append(record.throughput)
        result.per_site_throughput = {
            site: sum(v) / len(v) for site, v in by_site.items() if v
        }
        return result
