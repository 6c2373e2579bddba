"""The executor's hand-off: whoever changes what may start puts the job
in an idle PE's slot, first idle first; a finishing PE hands pending
work on before it writes its own reply, and takes work for itself only
after.  Cancel, expiry and shutdown keep their semantics."""

import random
import sys
import threading
import time
from collections import Counter

from repro.idl import Signature
from repro.protocol import RemoteError, ServerBusy, ServerShutdown
from repro.server.executor import Executor
from repro.server.registry import NinfExecutable
from tests.rpc.test_async_close import wait_until

NOOP_IDL = 'Define noop(mode_in int n) "does nothing";'


def executable(impl):
    return NinfExecutable(Signature.from_idl(NOOP_IDL), impl)


def blocking():
    """An executable whose calls block until ``release`` is set, and the
    events and thread names its calls leave behind."""
    state = {"started": threading.Semaphore(0),
             "release": threading.Event(), "threads": []}

    def impl(n):
        state["threads"].append(threading.current_thread().name)
        state["started"].release()
        assert state["release"].wait(10.0)

    return executable(impl), state


def idle_count(executor):
    with executor._lock:
        return len(executor._idle)


def test_the_other_pe_starts_queued_work_while_a_reply_is_written():
    """Job A blocks PE 0 in its routine; job B finishes on PE 1, whose
    ``on_complete`` blocks (a long reply write); job C is queued behind
    both.  When A finishes, C starts on A's PE while B's reply is still
    being written -- the PE that writes a reply holds no claim on work."""
    executor = Executor(num_pes=2)
    try:
        job_a, a = blocking()
        job_b, b = blocking()
        c_started = threading.Event()
        c_thread = []

        def c_impl(n):
            c_thread.append(threading.current_thread().name)
            c_started.set()

        b_replying, b_reply_done = threading.Event(), threading.Event()

        def slow_reply(job):
            b_replying.set()
            assert b_reply_done.wait(10.0)

        executor.submit(job_a, [0])
        assert a["started"].acquire(timeout=5.0)
        executor.submit(job_b, [0], on_complete=slow_reply)
        assert b["started"].acquire(timeout=5.0)
        c = executor.submit(executable(c_impl), [0])
        assert executor.queued == 1
        b["release"].set()                 # B done: its PE now replies
        assert b_replying.wait(5.0)
        assert not c_started.wait(0.1)     # no PE is free yet
        a["release"].set()                 # A done: its PE replies, takes C
        assert c_started.wait(5.0)
        assert not b_reply_done.is_set()   # while B's reply still blocks
        assert c_thread == a["threads"]
        assert c.done.wait(5.0) and c.error is None
        b_reply_done.set()
    finally:
        executor.shutdown()


def test_idle_pes_are_handed_work_in_the_order_they_went_idle():
    executor = Executor(num_pes=2)
    try:
        first, one = blocking()
        second, two = blocking()
        executor.submit(first, [0])
        assert one["started"].acquire(timeout=5.0)
        executor.submit(second, [0])
        assert two["started"].acquire(timeout=5.0)
        one["release"].set()
        assert wait_until(lambda: idle_count(executor) == 1)
        two["release"].set()
        assert wait_until(lambda: idle_count(executor) == 2)
        ran_on = []
        job = executor.submit(executable(
            lambda n: ran_on.append(threading.current_thread().name)), [0])
        assert job.done.wait(5.0)
        assert ran_on == one["threads"]    # idle first, handed first
    finally:
        executor.shutdown()


def head_of_line(executor, **wide_kwargs):
    """One PE busy, a two-PE job at the head of the FCFS queue (it does
    not fit), and a one-PE job behind it that would fit the idle PE."""
    job, state = blocking()
    executor.submit(job, [0])
    assert state["started"].acquire(timeout=5.0)
    started = threading.Event()
    wide = executor.submit(executable(lambda n: None), [0], pes=2,
                           **wide_kwargs)
    narrow = executor.submit(executable(lambda n: started.set()), [0])
    assert not started.wait(0.1)           # blocked behind the wide job
    return state["release"], wide, narrow, started


def test_a_cancelled_head_of_line_job_lets_the_next_start():
    executor = Executor(num_pes=2)
    try:
        release, wide, narrow, started = head_of_line(executor)
        assert executor.cancel(wide)
        assert started.wait(5.0)           # on the idle PE, at once
        assert isinstance(wide.error, RemoteError)
        assert wide.error.code == "cancelled"
        release.set()
        assert narrow.done.wait(5.0) and narrow.error is None
    finally:
        executor.shutdown()


def test_an_expired_head_of_line_job_lets_the_next_start():
    executor = Executor(num_pes=2)
    try:
        release, wide, narrow, started = head_of_line(
            executor, deadline=time.monotonic() + 0.3)
        assert started.wait(5.0)           # once ninf-expiry drops it
        assert wide.done.wait(5.0)
        assert isinstance(wide.error, ServerBusy)
        assert wide.error.message == "deadline-expired"
        release.set()
        assert narrow.done.wait(5.0) and narrow.error is None
    finally:
        executor.shutdown()


def test_a_head_of_line_job_expired_by_a_replying_pe_lets_both_next_start():
    """Three PEs: X runs, B's PE writes B's reply, one PE is idle.  A
    three-PE head-of-line job W expires during that reply and B's PE
    sweeps it on its way back (``ninf-expiry`` is asleep on a clock that
    has not told it).  B's PE takes N1 for itself, and N2 behind it
    starts on the idle PE at once, not at the next submit or finish."""
    now = [1000.0]
    executor = Executor(num_pes=3, clock=lambda: now[0])
    try:
        job_x, x = blocking()
        job_b, b = blocking()
        job_n1, n1 = blocking()
        n2_started = threading.Event()
        n2_thread = []

        def n2_impl(n):
            n2_thread.append(threading.current_thread().name)
            n2_started.set()

        b_replying, b_reply_done = threading.Event(), threading.Event()

        def slow_reply(job):
            b_replying.set()
            assert b_reply_done.wait(10.0)

        executor.submit(job_x, [0])
        assert x["started"].acquire(timeout=5.0)
        executor.submit(job_b, [0], on_complete=slow_reply)
        assert b["started"].acquire(timeout=5.0)
        wide = executor.submit(executable(lambda n: None), [0], pes=3,
                               deadline=now[0] + 60.0)
        executor.submit(job_n1, [0])
        n2 = executor.submit(executable(n2_impl), [0])
        assert executor.queued == 3
        b["release"].set()                 # B done: its PE replies
        assert b_replying.wait(5.0)
        now[0] += 120.0                    # W's deadline passes meanwhile
        b_reply_done.set()                 # B's PE expires W, takes N1
        assert n1["started"].acquire(timeout=5.0)
        assert n1["threads"] == b["threads"]
        assert n2_started.wait(5.0)        # N2 on the idle PE, N1 still runs
        assert n2_thread[0] not in x["threads"] + b["threads"]
        assert wide.done.is_set()
        assert isinstance(wide.error, ServerBusy)
        assert wide.error.message == "deadline-expired"
        assert n2.done.wait(5.0) and n2.error is None
        x["release"].set()
        n1["release"].set()
    finally:
        executor.shutdown()


def test_shutdown_wakes_idle_pes_and_drops_the_queue():
    before = set(threading.enumerate())
    executor = Executor(num_pes=2)
    spawned = set(threading.enumerate()) - before
    release, wide, narrow, _started = head_of_line(executor)
    assert idle_count(executor) == 1
    threading.Timer(0.2, release.set).start()
    executor.shutdown()
    for dropped in (wide, narrow):
        assert dropped.done.is_set()
        assert isinstance(dropped.error, ServerShutdown)
    assert len(spawned) == 3
    assert not [t.name for t in spawned if t.is_alive()]


def test_every_job_completes_exactly_once():
    executor = Executor(num_pes=2)
    completions = Counter()
    lock = threading.Lock()
    jobs = []

    def on_complete(job):
        with lock:
            completions[id(job)] += 1

    def submitter(seed):
        rng = random.Random(seed)
        work = executable(lambda n: time.sleep(n / 1e5))
        for _ in range(150):
            try:
                job = executor.submit(
                    work, [rng.randrange(3)], on_complete=on_complete,
                    deadline=(time.monotonic() + 0.002
                              if rng.random() < 0.2 else None))
            except ServerBusy:
                continue                   # shed: never a job
            with lock:
                jobs.append(job)
            if rng.random() < 0.2:
                executor.cancel(job)

    threads = [threading.Thread(target=submitter, args=(seed,))
               for seed in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    executor.shutdown()
    assert all(job.done.is_set() for job in jobs)
    assert {id(job) for job in jobs} == set(completions)
    assert set(completions.values()) == {1}
    assert (executor.completed + executor.cancelled + executor.expired
            + sum(isinstance(job.error, ServerShutdown) for job in jobs)
            == len(jobs))
