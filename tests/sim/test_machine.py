"""Unit tests for the machine model: PEs, load average, utilization."""

import math

import pytest

from repro.sim.engine import Simulator, Timeout
from repro.sim.machine import LoadAverage, Machine


# ------------------------------------------------------------ LoadAverage


def test_load_average_decays_toward_level():
    sim = Simulator()
    la = LoadAverage(sim, tau=60.0)
    la.set_level(4.0)
    sim.schedule(60.0, lambda: None)
    sim.run()
    # After one time constant: 4 * (1 - e^-1) ~ 2.53
    assert la.value == pytest.approx(4.0 * (1 - math.exp(-1)), rel=1e-6)


def test_load_average_steady_state_equals_level():
    sim = Simulator()
    la = LoadAverage(sim, tau=10.0)
    la.set_level(3.0)
    sim.schedule(1000.0, lambda: None)
    sim.run()
    assert la.value == pytest.approx(3.0, rel=1e-6)


def test_load_average_adjust_and_peak():
    sim = Simulator()
    la = LoadAverage(sim, tau=1.0)
    la.adjust(+5)
    sim.schedule(50.0, lambda: None)
    sim.run()
    la.adjust(-5)
    assert la.level == 0
    assert la.peak == pytest.approx(5.0, rel=1e-3)


def test_load_average_invalid_tau():
    sim = Simulator()
    with pytest.raises(ValueError):
        LoadAverage(sim, tau=0.0)


# ---------------------------------------------------------------- Machine


def test_single_task_runs_at_one_pe():
    sim = Simulator()
    m = Machine(sim, "j90", num_pes=4)
    finish = []

    def proc():
        yield from m.run(work=10.0, max_pes=1.0)
        finish.append(sim.now)

    sim.process(proc())
    sim.run()
    assert finish == [10.0]


def test_data_parallel_task_uses_all_pes():
    sim = Simulator()
    m = Machine(sim, "j90", num_pes=4)
    finish = []

    def proc():
        yield from m.run(work=40.0, max_pes=4.0)
        finish.append(sim.now)

    sim.process(proc())
    sim.run()
    assert finish == [10.0]  # 40 PE-seconds at 4 PE/s


def test_oversubscribed_task_parallel_time_slices():
    sim = Simulator()
    m = Machine(sim, "j90", num_pes=4)
    finish = []

    def proc():
        yield from m.run(work=8.0, max_pes=1.0)
        finish.append(sim.now)

    for _ in range(8):
        sim.process(proc())
    sim.run()
    # 8 tasks on 4 PEs -> each at rate 0.5 -> 16s.
    assert all(t == pytest.approx(16.0) for t in finish)


def test_run_serialized_fcfs_queue_wait():
    sim = Simulator()
    m = Machine(sim, "j90", num_pes=4)
    results = []

    def proc(name):
        queue_wait, task = yield from m.run_serialized(work=40.0)
        results.append((name, queue_wait, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert results[0] == ("a", 0.0, 10.0)
    name, wait, t = results[1]
    assert name == "b" and wait == pytest.approx(10.0) and t == pytest.approx(20.0)


def test_cpu_utilization_window():
    sim = Simulator()
    m = Machine(sim, "m", num_pes=4)

    def proc():
        yield from m.run(work=10.0, max_pes=1.0)

    stats = m.stats_window()
    sim.process(proc())
    sim.run(until=10.0)
    # 1 of 4 PEs busy the whole window -> 25%.
    assert stats.cpu_utilization == pytest.approx(25.0, abs=0.5)


def test_utilization_saturates_at_100():
    sim = Simulator()
    m = Machine(sim, "m", num_pes=2)

    def proc():
        yield from m.run(work=10.0, max_pes=1.0)

    stats = m.stats_window()
    for _ in range(4):
        sim.process(proc())
    sim.run(until=20.0)
    assert stats.cpu_utilization == pytest.approx(100.0, abs=0.5)


def test_load_average_reflects_running_threads():
    sim = Simulator()
    m = Machine(sim, "m", num_pes=4, load_tau=1.0)

    def proc():
        yield from m.run(work=100.0, max_pes=1.0)

    for _ in range(8):
        sim.process(proc())
    sim.run(until=20.0)
    # 8 runnable single-threaded tasks; tau=1 so converged.
    assert m.load_average.value == pytest.approx(8.0, rel=0.01)


def test_serialized_queued_tasks_contribute_one_thread():
    sim = Simulator()
    m = Machine(sim, "m", num_pes=4, load_tau=0.5)

    def proc():
        yield from m.run_serialized(work=400.0)

    for _ in range(3):
        sim.process(proc())
    sim.run(until=20.0)
    # Running DP task: 4 threads; two queued: 1 each -> level 6.
    assert m.load_average.level == pytest.approx(6.0)


def test_switch_overhead_applied_when_oversubscribed():
    sim = Simulator()
    m = Machine(sim, "smp", num_pes=1, switch_overhead=2.0)
    finish = {}

    def proc(name, delay):
        yield Timeout(sim, delay)
        yield from m.run(work=10.0, max_pes=1.0)
        finish[name] = sim.now

    sim.process(proc("first", 0.0))
    sim.process(proc("second", 1.0))
    sim.run()
    # First task: no overhead. Second arrives while busy: work 12.
    total_work = 10.0 + 12.0
    assert max(finish.values()) == pytest.approx(total_work)


def test_invalid_num_pes():
    sim = Simulator()
    with pytest.raises(ValueError):
        Machine(sim, "bad", num_pes=0)


def test_run_returns_task_record():
    sim = Simulator()
    m = Machine(sim, "m", num_pes=1)
    records = []

    def proc():
        task = yield from m.run(work=3.0)
        records.append(task)

    sim.process(proc())
    sim.run()
    (task,) = records
    assert task.start_time == 0.0
    assert task.finish_time == 3.0
    assert task.work == 3.0
