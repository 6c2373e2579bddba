"""Unit tests for the max-min fair flow network."""

import math

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Flow, Link, Network, Route


def run_transfers(sim, net, specs):
    """specs: list of (route, nbytes, start_delay); returns dict idx -> flow."""
    results = {}

    def client(i, route, nbytes, delay):
        yield sim.timeout(delay)
        flow = yield net.transfer(route, nbytes)
        results[i] = flow

    for i, (route, nbytes, delay) in enumerate(specs):
        sim.process(client(i, route, nbytes, delay))
    sim.run()
    return results


def test_single_flow_full_bandwidth():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    route = Route([link])
    results = run_transfers(sim, net, [(route, 2e6, 0.0)])
    assert results[0].finish_time == pytest.approx(2.0)
    assert results[0].mean_throughput == pytest.approx(1e6)


def test_latency_adds_to_completion():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6, latency=0.5)
    route = Route([link])
    results = run_transfers(sim, net, [(route, 1e6, 0.0)])
    assert results[0].finish_time == pytest.approx(1.5)


def test_zero_byte_transfer_takes_latency_only():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6, latency=0.25)
    route = Route([link])
    results = run_transfers(sim, net, [(route, 0.0, 0.0)])
    assert results[0].finish_time == pytest.approx(0.25)


def test_two_flows_share_bottleneck_equally():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    route = Route([link])
    results = run_transfers(sim, net, [(route, 1e6, 0.0), (route, 1e6, 0.0)])
    # Each at 0.5 MB/s -> both finish at t=2.
    assert results[0].finish_time == pytest.approx(2.0)
    assert results[1].finish_time == pytest.approx(2.0)


def test_flow_departure_frees_bandwidth():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    route = Route([link])
    results = run_transfers(sim, net, [(route, 1e6, 0.0), (route, 3e6, 0.0)])
    # Shared until t=2 (small flow done: 1e6 at .5), big has 2e6 left at full
    assert results[0].finish_time == pytest.approx(2.0)
    assert results[1].finish_time == pytest.approx(4.0)


def test_wan_fair_share_one_over_c():
    """The paper's single-site WAN law: c clients on a 0.17 MB/s uplink
    each see ~0.17/c MB/s."""
    for c in (1, 2, 4, 8, 16):
        sim = Simulator()
        net = Network(sim)
        uplink = Link("ochau-etl", capacity=0.17e6)
        route = Route([uplink])
        size = 1e6
        results = run_transfers(sim, net, [(route, size, 0.0)] * c)
        for flow in results.values():
            assert flow.mean_throughput == pytest.approx(0.17e6 / c, rel=1e-6)


def test_multi_link_route_bottleneck():
    sim = Simulator()
    net = Network(sim)
    fast = Link("fast", capacity=10e6)
    slow = Link("slow", capacity=1e6)
    route = Route([fast, slow])
    results = run_transfers(sim, net, [(route, 1e6, 0.0)])
    assert results[0].finish_time == pytest.approx(1.0)


def test_multisite_aggregate_bandwidth():
    """Flows from different sites over different uplinks do not contend
    (aggregate >> single-site), matching Fig 10's observation."""
    sim = Simulator()
    net = Network(sim)
    server_access = Link("etl-access", capacity=2e6)
    routes = [Route([Link(f"site{i}", capacity=0.17e6), server_access])
              for i in range(4)]
    specs = [(r, 0.17e6, 0.0) for r in routes]
    results = run_transfers(sim, net, specs)
    # Each site-limited at 0.17: all finish at ~1s; aggregate = 0.68 MB/s.
    for flow in results.values():
        assert flow.finish_time == pytest.approx(1.0)


def test_shared_backbone_contends():
    sim = Simulator()
    net = Network(sim)
    backbone = Link("backbone", capacity=0.2e6)
    routes = [Route([Link(f"acc{i}", capacity=1e6), backbone]) for i in range(2)]
    results = run_transfers(sim, net, [(r, 0.1e6, 0.0) for r in routes])
    for flow in results.values():
        assert flow.finish_time == pytest.approx(1.0)  # 0.1 MB at 0.1 MB/s


def test_max_min_fairness_asymmetric():
    """One flow limited by its own slow access link; the other takes the
    rest of the shared link (max-min, not proportional)."""
    sim = Simulator()
    net = Network(sim)
    shared = Link("shared", capacity=1e6)
    slow_access = Link("slow", capacity=0.25e6)
    r_slow = Route([slow_access, shared])
    r_fast = Route([shared])
    results = run_transfers(sim, net, [(r_slow, 0.25e6, 0.0), (r_fast, 1.5e6, 0.0)])
    # slow flow: 0.25 MB/s -> 1s.  fast flow: 0.75 for 1s, then 1.0 -> 1.75s total
    assert results[0].finish_time == pytest.approx(1.0)
    assert results[1].finish_time == pytest.approx(1.75)


def test_weighted_flows():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=3e6)

    results = {}

    def client(i, weight, nbytes):
        flow = yield net.transfer(Route([link]), nbytes, weight=weight)
        results[i] = flow

    sim.process(client(0, 2.0, 2e6))
    sim.process(client(1, 1.0, 1e6))
    sim.run()
    assert results[0].finish_time == pytest.approx(1.0)
    assert results[1].finish_time == pytest.approx(1.0)


def test_link_utilization():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    run = run_transfers(sim, net, [(Route([link]), 1e6, 0.0)])
    sim.run(until=2.0)
    assert link.utilization(sim.now) == pytest.approx(0.5, abs=0.02)
    assert link.bytes_carried == pytest.approx(1e6)


def test_invalid_args():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    with pytest.raises(ValueError):
        Link("bad", capacity=0.0)
    with pytest.raises(ValueError):
        Link("bad", capacity=1.0, latency=-1.0)
    with pytest.raises(ValueError):
        Route([])
    with pytest.raises(ValueError):
        net.transfer(Route([link]), -5.0)
    with pytest.raises(ValueError):
        net.transfer(Route([link]), 10.0, weight=0.0)
    with pytest.raises(ValueError):
        net.transfer(Route([link]), math.nan)


def test_route_properties():
    a = Link("a", capacity=2e6, latency=0.1)
    b = Link("b", capacity=1e6, latency=0.2)
    route = Route([a, b], name="ab")
    assert route.latency == pytest.approx(0.3)
    assert route.bottleneck_capacity == 1e6
    assert route.name == "ab"


def test_completed_flow_count_and_active():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    run_transfers(sim, net, [(Route([link]), 1e6, 0.0)] * 3)
    assert net.completed_flows == 3
    assert net.active_flows == 0


def test_staggered_arrivals_rates_adjust():
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity=1e6)
    route = Route([link])
    results = run_transfers(sim, net, [(route, 2e6, 0.0), (route, 2e6, 1.0)])
    # f0: 1s alone (1e6), then shares: 1e6 left at .5 -> finishes t=3.
    # f1: 2e6 at .5 from t=1..3 (1e6 done), then alone -> t=4.
    assert results[0].finish_time == pytest.approx(3.0)
    assert results[1].finish_time == pytest.approx(4.0)
