"""Simulated resilience path: shedding, failover, deadlines, and
schedule determinism with the knobs off."""

import numpy as np

from repro.model.machines import machine
from repro.sim.engine import Simulator
from repro.sim.network import Link, Network, Route
from repro.simninf.calls import CallSpec, SimCallRecord
from repro.simninf.client import WorkloadClient
from repro.simninf.server import SimNinfServer


def spec(comp=1.0):
    return CallSpec(name="t", input_bytes=1e3, output_bytes=1e3,
                    comp_seconds_1pe=comp, comp_seconds_allpe=comp / 4,
                    work_units=1e6)


def make_server(sim, **kwargs):
    net = Network(sim)
    kwargs.setdefault("mode", "data")  # capacity 1: easy to saturate
    return SimNinfServer(sim, net, machine("j90"), **kwargs), net


def overlapping_calls(server, sim, delays, call_spec=None):
    """Fire one call per delay; returns records in arrival order."""
    call_spec = call_spec or spec()
    records = []

    def one(delay, index):
        yield sim.timeout(delay)
        record = SimCallRecord(spec=call_spec, client_id=index,
                               submit_time=sim.now)
        yield from server.execute_call(record, Route([Link(f"l{index}", 10e6)]))
        records.append((index, record))

    for index, delay in enumerate(delays):
        sim.process(one(delay, index))
    sim.run()
    records.sort()
    return [r for _i, r in records]


# ------------------------------------------------------------- shedding


def test_over_bound_arrival_is_shed_with_hint():
    sim = Simulator()
    server, _net = make_server(sim, max_queued=0)
    first, second = overlapping_calls(server, sim, [0.0, 0.3])
    assert first.outcome == "ok"
    assert second.outcome == "shed"
    assert second.retry_after > 0.0
    assert server.shed == 1
    assert server.calls_completed == 1


def test_default_accepts_everything():
    sim = Simulator()
    server, _net = make_server(sim)
    records = overlapping_calls(server, sim, [0.0, 0.1, 0.2, 0.3])
    assert [r.outcome for r in records] == ["ok"] * 4
    assert server.shed == 0


def test_queue_slots_admit_up_to_bound():
    sim = Simulator()
    server, _net = make_server(sim, max_queued=2)
    records = overlapping_calls(server, sim, [0.0, 0.1, 0.2, 0.3])
    outcomes = [r.outcome for r in records]
    assert outcomes == ["ok", "ok", "ok", "shed"]
    assert server.shed == 1


# ------------------------------------------------------------- failover


def test_dead_primary_fails_over_to_backup():
    sim = Simulator()
    primary, _ = make_server(sim)
    backup, _ = make_server(sim)
    primary.kill()
    client = WorkloadClient(sim, 0, primary, Route([Link("p", 10e6)]),
                            spec(comp=0.1), s=1.0, p=1.0, horizon=20.0,
                            seed=1, retry_attempts=2,
                            backups=[(backup, Route([Link("b", 10e6)]))])
    sim.run()
    assert client.records  # calls still complete
    assert client.failed_calls == 0
    assert client.failovers == len(client.records)
    assert backup.calls_completed == len(client.records)
    assert primary.calls_completed == 0


def test_dead_primary_without_backup_fails_calls():
    sim = Simulator()
    primary, _ = make_server(sim)
    primary.kill()
    client = WorkloadClient(sim, 0, primary, Route([Link("p", 10e6)]),
                            spec(comp=0.1), s=1.0, p=1.0, horizon=20.0,
                            seed=1, retry_attempts=3)
    sim.run()
    assert client.records == []
    assert client.failed_calls > 0


def test_shed_without_backup_waits_out_retry_after():
    """A shed call with retries left backs off by the server's hint and
    lands once capacity frees up."""
    sim = Simulator()
    server, _ = make_server(sim, max_queued=0)
    blocker = WorkloadClient(sim, 0, server, Route([Link("a", 10e6)]),
                             spec(comp=2.0), s=0.5, p=1.0, horizon=10.0,
                             seed=5)
    rival = WorkloadClient(sim, 1, server, Route([Link("b", 10e6)]),
                           spec(comp=2.0), s=0.5, p=1.0, horizon=10.0,
                           seed=6, retry_attempts=4)
    sim.run()
    assert rival.shed_seen > 0
    assert rival.records  # some retried calls got through
    assert server.shed >= rival.shed_seen


# ------------------------------------------------------------ deadlines


def test_call_deadline_counts_late_calls():
    sim = Simulator()
    server, _ = make_server(sim)
    client = WorkloadClient(sim, 0, server, Route([Link("c", 10e6)]),
                            spec(comp=0.5), s=1.0, p=1.0, horizon=10.0,
                            seed=2, call_deadline=1e-3)
    sim.run()
    assert client.records
    assert client.late_calls == len(client.records)


# ---------------------------------------------------------- determinism


def run_schedule(**client_kwargs):
    sim = Simulator()
    server, _ = make_server(sim, **client_kwargs.pop("server_kwargs", {}))
    client = WorkloadClient(sim, 0, server, Route([Link("c", 10e6)]),
                            spec(comp=0.3), s=1.0, p=0.5, horizon=60.0,
                            seed=7, **client_kwargs)
    sim.run()
    return [(r.submit_time, r.complete_time) for r in client.records]


def test_knobs_off_reproduce_the_historical_schedule():
    """fault_rate=0 / retries / deadline / a loose queue bound must not
    consume RNG draws or perturb timing: the schedule stays
    byte-identical."""
    baseline = run_schedule()
    with_knobs = run_schedule(fault_rate=0.0, call_deadline=1e9,
                              retry_attempts=3,
                              server_kwargs={"max_queued": 10_000})
    assert baseline == with_knobs
    np.testing.assert_array_equal(np.asarray(baseline),
                                  np.asarray(with_knobs))
