#!/usr/bin/env python
"""Custom topologies on the Ninf simulator: the declarative Scenario API.

The paper's conclusion motivates the simulator so one "could readily
test different client network topologies under various communication
and other parameters."  This example asks a question the paper could
not afford to measure: *where should a lab put its clients if the
supercomputer center offers both a campus link and a WAN link, and the
server may be busy?*

Run: python examples/custom_topology.py
"""

from repro.simninf.scenario import (
    ClientGroup,
    Scenario,
    ServerSpec,
    SiteSpec,
    Workload,
)


def run_case(title, scenario, seed=7):
    result = scenario.run(seed=seed)
    print(f"--- {title}")
    for name, row in sorted(result.rows.items()):
        print(f"    {name}: mean {row.performance.mean/1e6:6.2f} Mflops "
              f"over {row.times} calls, cpu {row.cpu_utilization:5.1f}%, "
              f"load {row.load_average:5.2f}")
    for site, throughput in sorted(result.per_site_throughput.items()):
        print(f"    site {site}: {throughput/1e6:.3f} MB/s per call")
    print()
    return result


def main() -> None:
    n = 1000
    print("Question: 8 clients, one J90 — campus LAN vs WAN vs split?\n")

    run_case("all 8 clients on the campus LAN", Scenario(
        servers=[ServerSpec("j90", machine="j90", mode="data")],
        sites=[],
        clients=[ClientGroup(site="lan", count=8, server="j90",
                             workload=Workload("linpack", n=n))],
        horizon=600.0,
    ))

    run_case("all 8 clients behind one 0.17 MB/s WAN uplink", Scenario(
        servers=[ServerSpec("j90", machine="j90", mode="data")],
        sites=[SiteSpec("remote", bandwidth=0.17e6, latency=0.015,
                        stream_ceiling=0.13e6)],
        clients=[ClientGroup(site="remote", count=8, server="j90",
                             workload=Workload("linpack", n=n))],
        horizon=2400.0,
    ))

    run_case("split: 4 campus + 4 behind the WAN (same server)", Scenario(
        servers=[ServerSpec("j90", machine="j90", mode="data")],
        sites=[SiteSpec("remote", bandwidth=0.17e6, latency=0.015,
                        stream_ceiling=0.13e6)],
        clients=[
            ClientGroup(site="lan", count=4, server="j90",
                        workload=Workload("linpack", n=n)),
            ClientGroup(site="remote", count=4, server="j90",
                        workload=Workload("linpack", n=n)),
        ],
        horizon=2400.0,
    ))

    print("What-if: an SJF admission queue on a second, busier server")
    run_case("two servers, EP + Linpack mixed, SJF on server-b", Scenario(
        servers=[
            ServerSpec("server-a", machine="j90", mode="data"),
            ServerSpec("server-b", machine="j90", mode="task",
                       policy="sjf"),
        ],
        sites=[],
        clients=[
            ClientGroup(site="lan", count=4, server="server-a",
                        workload=Workload("linpack", n=1400)),
            ClientGroup(site="lan", count=4, server="server-b",
                        workload=Workload("linpack", n=300)),
            ClientGroup(site="lan", count=2, server="server-b",
                        workload=Workload("ep", n=22)),
        ],
        horizon=600.0,
    ))

    print("Conclusion (matches §4.2.2): the campus clients' performance is "
          "set by the\nserver; the WAN clients' by their uplink — and "
          "mixing them barely perturbs\nthe campus side, because the WAN "
          "group cannot push enough bytes to matter.")


if __name__ == "__main__":
    main()
