"""Property-based tests for the simulation substrate (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, Timeout
from repro.sim.machine import LoadAverage
from repro.sim.network import Link, Network, Route
from repro.sim.resources import ProcessorSharingServer, _waterfill


# ----------------------------------------------------------- waterfill


@st.composite
def waterfill_instances(draw):
    n = draw(st.integers(1, 8))
    entries = []
    for i in range(n):
        weight = draw(st.floats(0.1, 10.0))
        cap = draw(st.floats(0.01, 100.0))
        entries.append((f"k{i}", weight, cap))
    capacity = draw(st.floats(0.1, 100.0))
    return capacity, entries


@given(waterfill_instances())
def test_waterfill_feasible_and_capped(instance):
    capacity, entries = instance
    rates = _waterfill(capacity, entries)
    assert sum(rates.values()) <= capacity + 1e-6
    for key, _w, cap in entries:
        assert rates[key] <= cap + 1e-9


@given(waterfill_instances())
def test_waterfill_work_conserving(instance):
    """Either the full capacity is allocated or every job is capped."""
    capacity, entries = instance
    rates = _waterfill(capacity, entries)
    total = sum(rates.values())
    all_capped = all(abs(rates[k] - cap) < 1e-9 or rates[k] == 0.0
                     for k, _w, cap in entries)
    assert total >= capacity - 1e-6 or all_capped


@given(waterfill_instances())
def test_waterfill_no_negative_rates(instance):
    capacity, entries = instance
    rates = _waterfill(capacity, entries)
    assert all(rate >= 0.0 for rate in rates.values())


# ------------------------------------------------------ max-min fairness


@st.composite
def network_instances(draw):
    """Random small topology: L links, F flows over random link subsets."""
    num_links = draw(st.integers(1, 4))
    capacities = [draw(st.floats(0.5, 20.0)) for _ in range(num_links)]
    num_flows = draw(st.integers(1, 6))
    flow_links = []
    for _ in range(num_flows):
        subset = draw(st.sets(st.integers(0, num_links - 1), min_size=1))
        flow_links.append(sorted(subset))
    sizes = [draw(st.floats(0.5, 50.0)) for _ in range(num_flows)]
    return capacities, flow_links, sizes


@settings(max_examples=60, deadline=None)
@given(network_instances())
def test_maxmin_capacity_respected_at_all_times(instance):
    capacities, flow_links, sizes = instance
    sim = Simulator()
    net = Network(sim)
    links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]
    flows_done = []

    def client(route, size):
        flow = yield net.transfer(route, size)
        flows_done.append(flow)

    for subset, size in zip(flow_links, sizes):
        sim.process(client(Route([links[i] for i in subset]), size))

    # Step the simulation, checking the invariant after every event.
    sim.run(until=0.0)
    while sim.step():
        per_link: dict = {}
        for flow in net._flows:
            rate = flow.rate
            assert rate >= -1e-9
            for link in flow.route.links:
                per_link[link] = per_link.get(link, 0.0) + rate
        for link, total in per_link.items():
            assert total <= link.capacity * (1 + 1e-9)
    assert len(flows_done) == len(sizes)


@settings(max_examples=60, deadline=None)
@given(network_instances())
def test_all_bytes_eventually_delivered(instance):
    capacities, flow_links, sizes = instance
    sim = Simulator()
    net = Network(sim)
    links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]
    done = []

    def client(route, size):
        flow = yield net.transfer(route, size)
        done.append(flow)

    for subset, size in zip(flow_links, sizes):
        sim.process(client(Route([links[i] for i in subset]), size))
    sim.run()
    assert len(done) == len(sizes)
    for flow, size in zip(sorted(done, key=lambda f: f.start_time),
                          sizes):
        assert flow.remaining == 0.0
        assert flow.finish_time is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.floats(0.5, 10.0), st.floats(0.5, 30.0))
def test_equal_flows_finish_simultaneously(num_flows, capacity, size):
    """Identical flows on one link are treated identically (fairness)."""
    sim = Simulator()
    net = Network(sim)
    link = Link("l", capacity * 1e6)
    finishes = []

    def client():
        flow = yield net.transfer(Route([link]), size * 1e6)
        finishes.append(flow.finish_time)

    for _ in range(num_flows):
        sim.process(client())
    sim.run()
    assert max(finishes) - min(finishes) < 1e-6
    # Aggregate respects the pipe exactly: makespan = F*size/capacity.
    expected = num_flows * size / capacity
    assert math.isclose(max(finishes), expected, rel_tol=1e-6)


# --------------------------------------------------- processor sharing


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=6),
       st.floats(0.5, 8.0))
def test_ps_total_work_conserved(works, capacity):
    """Makespan of simultaneous jobs == total work / capacity when no
    job is rate-capped (work conservation)."""
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=capacity)
    finishes = []

    def runner(work):
        yield ps.submit(work)
        finishes.append(sim.now)

    for work in works:
        sim.process(runner(work))
    sim.run()
    assert math.isclose(max(finishes), sum(works) / capacity, rel_tol=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.1, 20.0), min_size=2, max_size=6))
def test_ps_smaller_jobs_finish_no_later(works):
    """Under equal sharing, a job with less work never finishes after
    one with more."""
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=1.0)
    finish_by_work = []

    def runner(work):
        yield ps.submit(work)
        finish_by_work.append((work, sim.now))

    for work in works:
        sim.process(runner(work))
    sim.run()
    finish_by_work.sort()
    times = [t for _w, t in finish_by_work]
    assert times == sorted(times)


# -------------------------------------------------------- load average


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 30.0), st.integers(0, 10)),
                min_size=1, max_size=8))
def test_load_average_bounded_by_extremes(schedule):
    """The EWMA never leaves the [min level, max level] envelope."""
    sim = Simulator()
    la = LoadAverage(sim, tau=10.0)
    levels = [0.0]

    def driver():
        for delay, level in schedule:
            yield Timeout(sim, delay)
            la.set_level(float(level))
            levels.append(float(level))

    sim.process(driver())
    sim.run()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert min(levels) - 1e-9 <= la.value <= max(levels) + 1e-9
