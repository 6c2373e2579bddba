"""Unit tests for resources: the FCFS Resource and the PS server."""

import math

import pytest

from repro.sim.engine import Simulator, Timeout
from repro.sim.resources import ProcessorSharingServer, Resource, _waterfill


# ---------------------------------------------------------------- Resource


def test_resource_grants_up_to_capacity_then_queues():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def user(name, hold):
        req = res.request()
        yield req
        log.append(("start", name, sim.now))
        yield Timeout(sim, hold)
        res.release(req)
        log.append(("end", name, sim.now))

    sim.process(user("a", 3.0))
    sim.process(user("b", 3.0))
    sim.process(user("c", 3.0))
    sim.run()
    starts = [(n, t) for kind, n, t in log if kind == "start"]
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 3.0)]


def test_resource_fcfs_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(name, arrive):
        yield Timeout(sim, arrive)
        req = res.request()
        yield req
        order.append(name)
        yield Timeout(sim, 10.0)
        res.release(req)

    for i, arrive in enumerate([0.0, 1.0, 2.0, 3.0]):
        sim.process(user(f"u{i}", arrive))
    sim.run()
    assert order == ["u0", "u1", "u2", "u3"]


def test_resource_unyielded_claim_keeps_its_place():
    """A claim made but not yet yielded keeps its place: a later
    arrival that yields first still waits behind it."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []
    early = res.request()

    def late():
        req = res.request()
        yield req
        order.append(("late", sim.now))
        res.release(req)

    def slow_starter():
        yield Timeout(sim, 2.0)
        yield early
        order.append(("early", sim.now))
        yield Timeout(sim, 1.0)
        res.release(early)

    sim.process(late())
    sim.process(slow_starter())
    sim.run()
    assert order == [("early", 2.0), ("late", 3.0)]


def test_resource_release_without_grant_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


# ------------------------------------------------- ProcessorSharingServer


def test_ps_single_job_runs_at_full_capacity():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=4.0)
    finish = []

    def runner():
        yield ps.submit(work=8.0)
        finish.append(sim.now)

    sim.process(runner())
    sim.run()
    assert finish == [2.0]  # 8 units at rate 4


def test_ps_equal_share_two_jobs():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=2.0)
    finish = {}

    def runner(name, work):
        yield ps.submit(work=work)
        finish[name] = sim.now

    sim.process(runner("a", 10.0))
    sim.process(runner("b", 10.0))
    sim.run()
    # Both share rate 1 each -> finish at t=10 simultaneously.
    assert finish == {"a": 10.0, "b": 10.0}


def test_ps_max_rate_cap_limits_single_job():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=4.0)
    finish = []

    def runner():
        yield ps.submit(work=8.0, max_rate=1.0)
        finish.append(sim.now)

    sim.process(runner())
    sim.run()
    assert finish == [8.0]  # capped at 1 unit/s despite capacity 4


def test_ps_cap_surplus_redistributed():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=4.0)
    finish = {}

    def runner(name, work, cap):
        yield ps.submit(work=work, max_rate=cap)
        finish[name] = sim.now

    # capped gets 1, uncapped gets the remaining 3.
    sim.process(runner("capped", 10.0, 1.0))
    sim.process(runner("uncapped", 30.0, math.inf))
    sim.run()
    assert finish["capped"] == pytest.approx(10.0)
    assert finish["uncapped"] == pytest.approx(10.0)


def test_ps_five_unit_capped_jobs_on_four_pes():
    """The task-parallel Ninf case: 5 tasks, 4 PEs -> each runs at 0.8."""
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=4.0)
    finish = []

    def runner():
        yield ps.submit(work=8.0, max_rate=1.0)
        finish.append(sim.now)

    for _ in range(5):
        sim.process(runner())
    sim.run()
    assert all(t == pytest.approx(10.0) for t in finish)  # 8 / 0.8


def test_ps_dynamic_rate_change_midstream():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=1.0)
    finish = {}

    def early():
        yield ps.submit(work=10.0)
        finish["early"] = sim.now

    def late():
        yield Timeout(sim, 5.0)
        yield ps.submit(work=10.0)
        finish["late"] = sim.now

    sim.process(early())
    sim.process(late())
    sim.run()
    # early: 5s alone (5 done) + shares until its remaining 5 at rate .5 -> 10s more = t=15
    assert finish["early"] == pytest.approx(15.0)
    # late: 10s at .5 for 10s (5 done by 15), then alone at 1.0 -> t=20
    assert finish["late"] == pytest.approx(20.0)


def test_ps_zero_work_completes_immediately():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=1.0)
    finish = []

    def runner():
        yield ps.submit(work=0.0)
        finish.append(sim.now)

    sim.process(runner())
    sim.run()
    assert finish == [0.0]


def test_ps_invalid_args():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=1.0)
    with pytest.raises(ValueError):
        ps.submit(work=-1.0)
    with pytest.raises(ValueError):
        ps.submit(work=1.0, weight=0.0)
    with pytest.raises(ValueError):
        ProcessorSharingServer(sim, capacity=0.0)


def test_ps_weighted_sharing():
    sim = Simulator()
    ps = ProcessorSharingServer(sim, capacity=3.0)
    finish = {}

    def runner(name, work, weight):
        yield ps.submit(work=work, weight=weight)
        finish[name] = sim.now

    sim.process(runner("heavy", 20.0, 2.0))  # rate 2
    sim.process(runner("light", 10.0, 1.0))  # rate 1
    sim.run()
    assert finish["heavy"] == pytest.approx(10.0)
    assert finish["light"] == pytest.approx(10.0)


# --------------------------------------------------------------- waterfill


def test_waterfill_no_caps_equal_split():
    rates = _waterfill(4.0, [("a", 1.0, math.inf), ("b", 1.0, math.inf)])
    assert rates == {"a": 2.0, "b": 2.0}


def test_waterfill_cap_redistributes():
    rates = _waterfill(4.0, [("a", 1.0, 0.5), ("b", 1.0, math.inf)])
    assert rates["a"] == 0.5
    assert rates["b"] == pytest.approx(3.5)


def test_waterfill_all_capped_leaves_slack():
    rates = _waterfill(10.0, [("a", 1.0, 1.0), ("b", 1.0, 2.0)])
    assert rates == {"a": 1.0, "b": 2.0}


def test_waterfill_conserves_capacity():
    entries = [(f"k{i}", 1.0 + i * 0.5, 1.0 + i) for i in range(5)]
    rates = _waterfill(6.0, entries)
    assert sum(rates.values()) <= 6.0 + 1e-9
    assert all(rates[k] <= cap + 1e-9 for k, _, cap in entries)
