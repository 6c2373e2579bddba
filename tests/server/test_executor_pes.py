"""The executor's threads: a PE is one long-lived thread that takes its
own work.  No dispatcher, no thread per job; accounting, policy order,
expiry promptness and cancel hold under concurrency."""

import random
import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.idl import Signature
from repro.obs import MetricsRegistry, names
from repro.protocol import RemoteError, ServerBusy
from repro.server import AsyncNinfServer, NinfServer, Registry
from repro.server.executor import Executor
from repro.server.registry import NinfExecutable
from repro.server.scheduling import SchedulingPolicy, make_policy
from tests.rpc.test_async_close import wait_until

NOOP_IDL = 'Define noop(mode_in int n) "does nothing";'
GATED_IDL = ('Define gated(mode_in int n, mode_in int cost) "waits its turn" '
             'CalcOrder "cost";')


def executable(idl, impl):
    return NinfExecutable(Signature.from_idl(idl), impl)


def occupy(executor):
    """Fill every PE with a job that blocks until the returned event."""
    release = threading.Event()
    started = threading.Semaphore(0)

    def impl(n):
        started.release()
        release.wait(10.0)

    blocker = executable(NOOP_IDL, impl)
    jobs = [executor.submit(blocker, [0], pes=1)
            for _ in range(executor.num_pes)]
    for _ in jobs:
        assert started.acquire(timeout=2.0)
    return release, jobs


# ------------------------------------------------------------ thread census


def test_thread_census_is_constant_and_jobs_run_on_pe_threads():
    before = set(threading.enumerate())
    executor = Executor(num_pes=3)
    spawned = set(threading.enumerate()) - before
    assert sorted(t.name for t in spawned) == [
        "ninf-expiry", "ninf-pe-0", "ninf-pe-1", "ninf-pe-2"]
    ran_on, seen = [], set()

    def impl(n):
        ran_on.append(threading.current_thread())
        seen.update(threading.enumerate())

    noop = executable(NOOP_IDL, impl)
    try:
        for start in range(0, 500, 50):
            jobs = [executor.submit(noop, [n])
                    for n in range(start, start + 50)]
            assert all(job.done.wait(5.0) for job in jobs)
            assert set(threading.enumerate()) - before == spawned
    finally:
        executor.shutdown()
    assert len(ran_on) == 500
    assert set(ran_on) <= spawned
    assert {t.name.rsplit("-", 1)[0] for t in ran_on} == {"ninf-pe"}
    # Nothing else was ever alive while a job ran.
    assert seen - before == spawned
    assert not [t.name for t in seen
                if t.name.startswith(("ninf-worker", "ninf-dispatcher"))]


def test_shutdown_joins_every_thread():
    before = set(threading.enumerate())
    executor = Executor(num_pes=4)
    spawned = set(threading.enumerate()) - before
    noop = executable(NOOP_IDL, lambda n: None)
    assert executor.submit(noop, [0]).done.wait(2.0)
    start = time.monotonic()
    executor.shutdown()
    assert time.monotonic() - start < 1.0  # idle threads exit at once
    assert len(spawned) == 5
    assert not [t.name for t in spawned if t.is_alive()]


def test_shutdown_waits_for_the_job_a_pe_is_inside():
    before = set(threading.enumerate())
    executor = Executor(num_pes=1)
    spawned = set(threading.enumerate()) - before
    release, (job,) = occupy(executor)
    threading.Timer(0.1, release.set).start()
    executor.shutdown()
    assert job.done.is_set() and job.error is None
    assert not [t.name for t in spawned if t.is_alive()]


# One class under both names since the asyncio server went; the ids stay
# as the suite's pass-floor lists them.
@pytest.mark.parametrize("server_cls", [NinfServer, AsyncNinfServer],
                         ids=["NinfServer", "AsyncNinfServer"])
def test_stopped_server_leaves_no_pe_thread(server_cls):
    registry = Registry()
    registry.register(NOOP_IDL, lambda n: None)
    before = set(threading.enumerate())
    with server_cls(registry, num_pes=2) as server:
        during = {t.name for t in set(threading.enumerate()) - before}
        assert {"ninf-pe-0", "ninf-pe-1", "ninf-expiry"} <= during
        assert server.executor.submit(
            registry.get("noop"), [0]).done.wait(2.0)
    left = {t.name for t in set(threading.enumerate()) - before}
    assert not [name for name in left if name.startswith("ninf-pe-")]
    assert "ninf-expiry" not in left


# ------------------------------------------------------------- PE accounting


def test_concurrent_submitters_never_overclaim_pes():
    num_pes, submitters, per_submitter = 3, 4, 500
    executor = Executor(num_pes=num_pes)
    mutex = threading.Lock()
    active: list[int] = []
    violations: list[list[int]] = []
    completions: Counter = Counter()

    def impl(n):  # n is the job's PE claim
        with mutex:
            active.append(n)
            if sum(active) > num_pes or (n == num_pes and len(active) > 1):
                violations.append(list(active))
        time.sleep(0)  # let another PE in while this one is "computing"
        with mutex:
            active.remove(n)

    claimer = executable(NOOP_IDL, impl)

    def on_complete(job):
        with mutex:
            completions[id(job)] += 1

    jobs: list = []

    def submitter(seed):
        rng = random.Random(seed)
        for _ in range(per_submitter):
            pes = rng.choice((1, num_pes))
            job = executor.submit(claimer, [pes], on_complete=on_complete,
                                  pes=pes)
            with mutex:
                jobs.append(job)

    threads = [threading.Thread(target=submitter, args=(seed,))
               for seed in range(submitters)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more interleavings per run
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert len(jobs) == submitters * per_submitter
        assert all(job.done.wait(30.0) for job in jobs)
    finally:
        sys.setswitchinterval(switch_interval)
        executor.shutdown()
    assert violations == []
    assert all(job.error is None for job in jobs)
    assert len(completions) == len(jobs)
    assert set(completions.values()) == {1}
    assert executor.completed == len(jobs)
    assert sorted(job.seq for job in jobs) == list(range(len(jobs)))


# --------------------------------------------------------------- policy order

# (pes, CalcOrder cost) in arrival order; seq 0 is the full-width plug
# that holds them all in the queue.  The finishing rule is "the running
# job with the lowest seq finishes next".
ARRIVALS = [(2, 50), (2, 40), (1, 30), (3, 20), (1, 10), (1, 60)]
# The dequeue orders of the dispatcher-thread executor this one replaced.
DEQUEUE_ORDER = {
    "fcfs": [0, 1, 2, 3, 4, 5, 6],
    "fpfs": [0, 1, 3, 2, 5, 6, 4],
    "sjf": [0, 5, 3, 6, 2, 1, 4],
    "fpmpfs": [0, 4, 1, 3, 2, 5, 6],
}


class Recording(SchedulingPolicy):
    """Logs every dequeue decision; ``select`` runs under the executor's
    lock, so the log is the dequeue order."""

    def __init__(self, inner):
        self.inner = inner
        self.order = []

    def select(self, pending, free_pes):
        index = self.inner.select(pending, free_pes)
        if index is not None:
            self.order.append(pending[index].seq)
        return index


def model_steps(policy, num_pes):
    """Yield ``(dequeued so far, seq to finish next)`` for the script:
    dequeue while the policy finds a fit, then finish the lowest seq."""
    pending = [SimpleNamespace(seq=seq, pes_required=pes,
                               predicted_cost=float(cost))
               for seq, (pes, cost) in enumerate(ARRIVALS, start=1)]
    running = [SimpleNamespace(seq=0, pes_required=num_pes)]
    free, order = 0, [0]
    while running:
        running.sort(key=lambda job: job.seq)
        finished = running.pop(0)
        yield list(order), finished.seq
        free += finished.pes_required
        while (index := policy.select(pending, free)) is not None:
            job = pending.pop(index)
            free -= job.pes_required
            running.append(job)
            order.append(job.seq)
    yield list(order), None


@pytest.mark.parametrize("name", sorted(DEQUEUE_ORDER))
def test_dequeue_order_is_the_policys(name):
    num_pes = 3
    policy = Recording(make_policy(name))
    executor = Executor(num_pes=num_pes, policy=policy)
    gates = [threading.Event() for _ in range(len(ARRIVALS) + 1)]

    def wait_for_gate(n, cost):
        gates[n].wait(10.0)

    gated = executable(GATED_IDL, wait_for_gate)
    try:
        jobs = [executor.submit(gated, [0, 0], pes=num_pes)]
        assert wait_until(lambda: policy.order == [0])
        for seq, (pes, cost) in enumerate(ARRIVALS, start=1):
            jobs.append(executor.submit(gated, [seq, cost], pes=pes))
        assert [job.seq for job in jobs] == list(range(len(jobs)))
        for expected, finish in model_steps(make_policy(name), num_pes):
            assert wait_until(lambda: len(policy.order) >= len(expected))
            assert policy.order == expected
            if finish is not None:
                gates[finish].set()
                assert jobs[finish].done.wait(5.0)
    finally:
        for gate in gates:
            gate.set()
        executor.shutdown()
    assert policy.order == DEQUEUE_ORDER[name]
    assert all(job.error is None for job in jobs)


# --------------------------------------------------------------------- expiry


def test_deadline_expires_on_time_while_every_pe_is_busy():
    executor = Executor(num_pes=2)
    ran = []
    noop = executable(NOOP_IDL, ran.append)
    release, blockers = occupy(executor)
    try:
        patient = executor.submit(noop, [1])
        answered = []
        doomed = executor.submit(
            noop, [2], deadline=executor.clock() + 0.1,
            on_complete=lambda job: answered.append(executor.clock()))
        assert doomed.done.wait(2.0)
        assert isinstance(doomed.error, ServerBusy)
        assert doomed.error.message == "deadline-expired"
        assert 0.0 <= answered[0] - doomed.deadline < 0.05
        assert not patient.done.is_set() and executor.queued == 1
        release.set()
        assert patient.done.wait(2.0) and patient.error is None
    finally:
        release.set()
        executor.shutdown()
    assert ran == [1]
    assert executor.expired == 1
    assert all(job.error is None for job in blockers)


def test_earlier_deadline_wakes_the_sleeper_sooner():
    executor = Executor(num_pes=1)
    noop = executable(NOOP_IDL, lambda n: None)
    release, _ = occupy(executor)
    try:
        late = executor.submit(noop, [1], deadline=executor.clock() + 5.0)
        time.sleep(0.02)  # the sleeper is now waiting for `late`
        early = executor.submit(noop, [2], deadline=executor.clock() + 0.1)
        assert early.done.wait(2.0)
        assert executor.clock() - early.deadline < 0.05
        assert not late.done.is_set()
    finally:
        release.set()
        executor.shutdown()


# --------------------------------------------------------------------- cancel


def test_cancel_racing_select_drops_or_runs_never_both():
    executor = Executor(num_pes=2)
    rng = random.Random(5)
    ran: Counter = Counter()
    completions: Counter = Counter()
    noop = executable(NOOP_IDL, lambda n: ran.update([n]))
    outcomes = Counter()
    try:
        for n in range(400):
            job = executor.submit(
                noop, [n], on_complete=lambda job, n=n: completions.update([n]))
            if n % 2:
                time.sleep(rng.random() * 1e-4)
            dropped = executor.cancel(job)
            assert job.done.wait(5.0)
            outcomes[dropped] += 1
            assert completions[n] == 1
            if dropped:
                assert isinstance(job.error, RemoteError)
                assert job.error.code == "cancelled"
                assert ran[n] == 0
            else:
                assert job.error is None
                assert ran[n] == 1
        assert wait_until(lambda: executor.running == 0)
    finally:
        executor.shutdown()
    assert executor.cancelled == outcomes[True]
    assert executor.completed == outcomes[False]
    assert executor.queued == 0


# --------------------------------------------------------- completion errors


def test_raising_on_complete_costs_neither_a_pe_nor_the_expiry_sweep():
    """Regression: an ``on_complete`` that raised on the expiry path
    killed the dispatcher thread and the server stopped dispatching; with
    long-lived PEs the same exception would have cost a PE for good."""
    num_pes = 2
    metrics = MetricsRegistry()
    executor = Executor(num_pes=num_pes, metrics=metrics)
    noop = executable(NOOP_IDL, lambda n: None)

    def boom(job):
        raise RuntimeError("reply path fell over")

    try:
        # On the run path, once per PE ...
        release, blockers = occupy(executor)
        for job in blockers:
            job.on_complete = boom
        # ... and on the expiry path, while they are busy.
        doomed = executor.submit(noop, [0], on_complete=boom,
                                 deadline=executor.clock() + 0.05)
        assert doomed.done.wait(2.0)
        assert isinstance(doomed.error, ServerBusy)
        release.set()
        assert all(job.done.wait(2.0) for job in blockers)
        # Every PE still serves, concurrently, and expiry still sweeps.
        barrier = threading.Barrier(num_pes)

        def meet_the_others(n):
            barrier.wait(5.0)

        meet = executable(NOOP_IDL, meet_the_others)
        jobs = [executor.submit(meet, [n]) for n in range(num_pes)]
        assert all(job.done.wait(5.0) for job in jobs)
        assert [job.error for job in jobs] == [None] * num_pes
        release, _ = occupy(executor)
        second = executor.submit(noop, [0], deadline=executor.clock() + 0.05)
        assert second.done.wait(2.0)
        assert isinstance(second.error, ServerBusy)
    finally:
        release.set()
        executor.shutdown()
    snap = metrics.snapshot()
    errors = snap[names.SERVER_COMPLETION_ERRORS]["values"][0]["value"]
    assert errors == num_pes + 1
    assert executor.running == 0 and executor.queued == 0
