"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import (
    AllOf,
    Signal,
    SimTimeError,
    Simulator,
    Timeout,
)


def test_schedule_and_run_orders_by_time():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    log = []
    for i in range(10):
        sim.schedule(1.0, log.append, i)
    sim.run()
    assert log == list(range(10))


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimTimeError):
        sim.schedule_at(0.5, lambda: None)


def test_schedule_nan_raises():
    sim = Simulator()
    with pytest.raises(SimTimeError):
        sim.schedule(math.nan, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    log = []
    handle = sim.schedule(1.0, log.append, "x")
    sim.schedule(1.0, log.append, "y")
    handle.cancel()
    sim.run()
    assert log == ["y"]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "a")
    sim.schedule(5.0, log.append, "b")
    sim.run(until=3.0)
    assert log == ["a"]
    assert sim.now == 3.0
    sim.run()
    assert log == ["a", "b"]


def test_run_until_boundary_inclusive():
    sim = Simulator()
    log = []
    sim.schedule(3.0, log.append, "a")
    sim.run(until=3.0)
    assert log == ["a"]


def test_process_timeout_sequence():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield Timeout(sim, 1.5)
        times.append(sim.now)
        yield Timeout(sim, 2.5)
        times.append(sim.now)

    sim.process(proc())
    sim.run()
    assert times == [0.0, 1.5, 4.0]


def test_process_return_value_propagates_to_waiter():
    sim = Simulator()
    result = []

    def child():
        yield Timeout(sim, 1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        result.append(value)

    sim.process(parent())
    sim.run()
    assert result == [42]


def test_timeout_value():
    sim = Simulator()
    got = []

    def proc():
        v = yield Timeout(sim, 1.0, value="payload")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_raises():
    sim = Simulator()
    with pytest.raises(SimTimeError):
        Timeout(sim, -1.0)


def test_signal_wakes_multiple_waiters():
    sim = Simulator()
    sig = Signal(sim)
    got = []

    def waiter(name):
        value = yield sig
        got.append((name, value, sim.now))

    sim.process(waiter("a"))
    sim.process(waiter("b"))

    def firer():
        yield Timeout(sim, 2.0)
        sig.fire("go")

    sim.process(firer())
    sim.run()
    assert got == [("a", "go", 2.0), ("b", "go", 2.0)]


def test_signal_late_subscriber_resumes_immediately():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire("early")
    got = []

    def waiter():
        v = yield sig
        got.append((v, sim.now))

    sim.process(waiter())
    sim.run()
    assert got == [("early", 0.0)]


def test_signal_double_fire_raises():
    sim = Simulator()
    sig = Signal(sim)
    sig.fire()
    with pytest.raises(RuntimeError):
        sig.fire()


def test_signal_fail_raises_in_waiter():
    sim = Simulator()
    sig = Signal(sim)
    caught = []

    def waiter():
        try:
            yield sig
        except ValueError as e:
            caught.append(str(e))

    sim.process(waiter())

    def failer():
        yield Timeout(sim, 1.0)
        sig.fail(ValueError("boom"))

    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield Timeout(sim, 1.0)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as e:
            caught.append(str(e))

    sim.process(parent())
    sim.run()
    assert caught == ["child failed"]


def test_unwaited_process_exception_escapes_run():
    sim = Simulator()

    def bad():
        yield Timeout(sim, 1.0)
        raise RuntimeError("unobserved")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_process_yield_non_awaitable_is_type_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_allof_collects_all_values_in_order():
    sim = Simulator()
    got = []

    def proc():
        values = yield AllOf([Timeout(sim, 3.0, "c"), Timeout(sim, 1.0, "a")])
        got.append((values, sim.now))

    sim.process(proc())
    sim.run()
    assert got == [(["c", "a"], 3.0)]


def test_allof_empty_completes_immediately():
    sim = Simulator()
    got = []

    def proc():
        values = yield AllOf([])
        got.append((values, sim.now))

    sim.process(proc())
    sim.run()
    assert got == [([], 0.0)]


def test_determinism_same_structure_same_trace():
    def build_and_run():
        sim = Simulator()
        trace = []

        def worker(name, period, count):
            for _ in range(count):
                yield Timeout(sim, period)
                trace.append((sim.now, name))

        for i, period in enumerate([0.7, 1.3, 0.7, 2.9]):
            sim.process(worker(f"w{i}", period, 20))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


def test_event_count_increments():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.event_count == 5


def test_nested_process_spawn_inside_callback():
    sim = Simulator()
    log = []

    def child():
        yield Timeout(sim, 1.0)
        log.append(sim.now)

    def spawn():
        sim.process(child())

    sim.schedule(2.0, spawn)
    sim.run()
    assert log == [3.0]


def test_run_not_reentrant():
    sim = Simulator()

    def proc():
        with pytest.raises(RuntimeError):
            sim.run()
        yield Timeout(sim, 1.0)

    sim.process(proc())
    sim.run()
