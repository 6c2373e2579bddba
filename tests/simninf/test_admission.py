"""Unit tests for the simulated server's admission control (§5.2/§5.3)."""

import dataclasses

import pytest

from repro.model.machines import machine
from repro.server.scheduling import FCFSPolicy, FPFSPolicy, SJFPolicy
from repro.sim.engine import Simulator
from repro.sim.network import Link, Network, Route
from repro.simninf.calls import CallSpec, SimCallRecord
from repro.simninf.server import SimNinfServer


def spec(comp=1.0, work=1e6, pes=None):
    return CallSpec(name="t", input_bytes=1e3, output_bytes=1e3,
                    comp_seconds_1pe=comp, comp_seconds_allpe=comp / 4,
                    work_units=work, pes=pes)


# The 4-PE J90 cut to one PE: one call runs at a time under a policy.
J90_1PE = dataclasses.replace(machine("j90"), num_pes=1)


def run_calls(policy, arrivals, host=machine("j90")):
    """arrivals: list of (delay, spec); returns records in arrival order."""
    sim = Simulator()
    net = Network(sim)
    server = SimNinfServer(sim, net, host, mode="task", policy=policy)
    records = []

    def one_tracked(delay, call_spec, index):
        yield sim.timeout(delay)
        record = SimCallRecord(spec=call_spec, client_id=index,
                               submit_time=sim.now)
        route = Route([Link(f"l{index}", 10e6)])
        yield from server.execute_call(record, route)
        records.append((index, record))

    for index, (delay, call_spec) in enumerate(arrivals):
        sim.process(one_tracked(delay, call_spec, index))
    sim.run()
    records.sort()
    return [r for _i, r in records]


def test_no_admission_control_by_default():
    # No policy: the 1997 fork-on-arrival server queues nothing, so all
    # eight calls start at once and processor-share the four PEs.
    records = run_calls(None, [(0.0, spec(comp=2.0))] * 8)
    fork = machine("j90").fork_overhead
    assert [r.wait for r in records] == pytest.approx([fork] * 8)


def test_fcfs_admission_limits_concurrency():
    # 8 equal jobs, 4 slots: second wave starts after the first.
    arrivals = [(0.0, spec(comp=2.0))] * 8
    records = run_calls(FCFSPolicy(), arrivals)
    dequeues = sorted(r.dequeue_time for r in records)
    # First four dispatch immediately; the rest after ~one service time.
    assert dequeues[3] < 0.2
    assert dequeues[4] > 1.5


def test_sjf_prefers_predicted_short_jobs():
    # One slot; a long job first, then a short and a long in the queue.
    long_spec = spec(comp=5.0, work=5e6)
    short_spec = spec(comp=0.5, work=5e5)
    arrivals = [(0.0, long_spec), (0.1, long_spec), (0.2, short_spec)]
    records = run_calls(SJFPolicy(), arrivals, J90_1PE)
    # The short job (index 2) dequeues before the second long (index 1).
    assert records[2].dequeue_time < records[1].dequeue_time


def test_fcfs_keeps_arrival_order():
    long_spec = spec(comp=5.0, work=5e6)
    short_spec = spec(comp=0.5, work=5e5)
    arrivals = [(0.0, long_spec), (0.1, long_spec), (0.2, short_spec)]
    records = run_calls(FCFSPolicy(), arrivals, J90_1PE)
    assert records[1].dequeue_time < records[2].dequeue_time


def test_wide_job_consumes_pe_slots():
    wide = spec(comp=2.0, pes=4)
    narrow = spec(comp=2.0, pes=1)
    arrivals = [(0.0, wide), (0.1, narrow)]
    records = run_calls(FCFSPolicy(), arrivals)
    # The narrow job cannot start until the wide one releases its slots.
    assert records[1].dequeue_time >= records[0].complete_time - 0.5


def test_fpfs_backfills_narrow_jobs():
    blocker = spec(comp=4.0, pes=2)   # occupies 2 of 4 slots
    wide = spec(comp=1.0, pes=4)      # cannot fit while blocker runs
    narrow = spec(comp=0.5, pes=1)
    arrivals = [(0.0, blocker), (0.1, wide), (0.2, narrow)]
    fcfs = run_calls(FCFSPolicy(), arrivals)
    fpfs = run_calls(FPFSPolicy(), arrivals)
    # FCFS: narrow waits behind the unfitting wide job.
    assert fcfs[2].dequeue_time > fcfs[0].complete_time - 0.5
    # FPFS: narrow backfills immediately.
    assert fpfs[2].dequeue_time < 1.0


def test_admission_wait_counted_in_t_wait():
    arrivals = [(0.0, spec(comp=3.0)), (0.0, spec(comp=3.0))]
    records = run_calls(FCFSPolicy(), arrivals, J90_1PE)
    waits = sorted(r.wait for r in records)
    assert waits[0] == pytest.approx(machine("j90").fork_overhead, abs=0.01)
    assert waits[1] > 2.5  # queued behind the first job
