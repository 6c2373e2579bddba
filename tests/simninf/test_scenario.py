"""Tests for the declarative scenario API."""

import pytest

from repro.simninf.scenario import (
    ClientGroup,
    Scenario,
    ServerSpec,
    SiteSpec,
    Workload,
)


def lan_scenario(count=2, horizon=120.0, **server_kwargs):
    return Scenario(
        servers=[ServerSpec("etl-j90", machine="j90", mode="data",
                            **server_kwargs)],
        sites=[],
        clients=[ClientGroup(site="lan", count=count, server="etl-j90",
                             workload=Workload("linpack", n=600))],
        horizon=horizon,
    )


def test_lan_scenario_runs():
    result = lan_scenario().run(seed=3)
    row = result.rows["etl-j90"]
    assert row.times > 5
    assert row.performance.mean > 50e6  # ~86 Mflops for n=600 data-parallel
    assert result.total_calls() == row.times


def test_scenario_deterministic():
    a = lan_scenario().run(seed=5).rows["etl-j90"]
    b = lan_scenario().run(seed=5).rows["etl-j90"]
    assert a == b
    c = lan_scenario().run(seed=6).rows["etl-j90"]
    assert a != c


def test_wan_scenario_site_throughput():
    scenario = Scenario(
        servers=[ServerSpec("etl-j90", machine="j90", mode="data")],
        sites=[SiteSpec("ochau", bandwidth=0.17e6, latency=0.015,
                        stream_ceiling=0.13e6)],
        clients=[ClientGroup(site="ochau", count=4, server="etl-j90",
                             workload=Workload("linpack", n=600))],
        horizon=900.0,
    )
    result = scenario.run(seed=1)
    # Fair sharing: per-client throughput ~ uplink/4.
    assert 0.17e6 / 6 < result.per_site_throughput["ochau"] < 0.17e6 / 2.5


def test_two_servers_two_sites():
    scenario = Scenario(
        servers=[ServerSpec("near", machine="j90", mode="data"),
                 ServerSpec("far", machine="j90", mode="data")],
        sites=[SiteSpec("campus", bandwidth=2.5e6),
               SiteSpec("remote", bandwidth=0.17e6,
                        stream_ceiling=0.13e6)],
        clients=[
            ClientGroup(site="campus", count=2, server="near",
                        workload=Workload("linpack", n=600)),
            ClientGroup(site="remote", count=2, server="far",
                        workload=Workload("linpack", n=600)),
        ],
        horizon=600.0,
    )
    result = scenario.run(seed=9)
    near = result.rows["near"]
    far = result.rows["far"]
    # Campus clients dramatically outperform WAN clients.
    assert near.performance.mean > 5 * far.performance.mean
    assert near.times > far.times


def test_ep_workload():
    scenario = Scenario(
        servers=[ServerSpec("j90", machine="j90", mode="task")],
        sites=[],
        clients=[ClientGroup(site="lan", count=4, server="j90",
                             workload=Workload("ep", n=20))],
        horizon=200.0,
    )
    result = scenario.run()
    row = result.rows["j90"]
    assert row.times >= 4
    # Four EP tasks on four PEs: ~full utilization while running.
    assert row.cpu_utilization > 30.0


def test_custom_workload_spec():
    from repro.simninf.calls import CallSpec

    custom = CallSpec(name="render-tile", input_bytes=1e4,
                      output_bytes=2e6, comp_seconds_1pe=2.0,
                      comp_seconds_allpe=0.5, work_units=1e9)
    scenario = Scenario(
        servers=[ServerSpec("j90")],
        sites=[],
        clients=[ClientGroup(site="lan", count=2, server="j90",
                             workload=Workload("custom", spec=custom))],
        horizon=120.0,
    )
    result = scenario.run()
    assert result.rows["j90"].times > 0


def test_admission_policy_in_scenario():
    scenario = lan_scenario(count=6, policy="sjf")
    result = scenario.run()
    assert result.rows["etl-j90"].times > 0


def test_scenario_validation():
    server = ServerSpec("s")
    group_ok = ClientGroup(site="lan", count=1, server="s",
                           workload=Workload("linpack"))
    with pytest.raises(ValueError, match="at least one server"):
        Scenario(servers=[], sites=[], clients=[])
    with pytest.raises(ValueError, match="horizon"):
        Scenario(servers=[server], sites=[], clients=[group_ok], horizon=0)
    with pytest.raises(ValueError, match="unknown server"):
        Scenario(servers=[server], sites=[],
                 clients=[ClientGroup(site="lan", count=1, server="nope",
                                      workload=Workload("linpack"))])
    with pytest.raises(ValueError, match="unknown site"):
        Scenario(servers=[server], sites=[],
                 clients=[ClientGroup(site="mars", count=1, server="s",
                                      workload=Workload("linpack"))])
    with pytest.raises(ValueError, match="count"):
        Scenario(servers=[server], sites=[],
                 clients=[ClientGroup(site="lan", count=0, server="s",
                                      workload=Workload("linpack"))])
    with pytest.raises(ValueError, match="duplicate server"):
        Scenario(servers=[server, ServerSpec("s")], sites=[],
                 clients=[group_ok])


def test_workload_validation():
    with pytest.raises(ValueError, match="custom workload"):
        Workload("custom").build(None)
    with pytest.raises(ValueError, match="unknown workload"):
        Workload("raytracing").build(None)
