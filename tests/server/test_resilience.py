"""Executor resilience: admission shedding, deadlines, cancel, shutdown."""

import threading

import pytest

from repro.idl import Signature
from repro.protocol import RemoteError, ServerBusy, ServerShutdown
from repro.server.executor import Executor
from repro.server.registry import NinfExecutable

SLEEP_IDL = 'Define sleeper(mode_in double seconds) "waits on an event";'


def make_blocker():
    """An executable that blocks until its event is set."""
    release = threading.Event()
    started = threading.Event()

    def impl(seconds):
        started.set()
        release.wait(5.0)

    exe = NinfExecutable(Signature.from_idl(SLEEP_IDL), impl)
    return exe, started, release


def make_noop():
    return NinfExecutable(Signature.from_idl(SLEEP_IDL), lambda seconds: None)


# ------------------------------------------------------------- queue bound


def test_queue_full_sheds_with_retry_after():
    exe, started, release = make_blocker()
    executor = Executor(num_pes=1, max_queued=0)
    try:
        job = executor.submit(exe, [0.0])
        assert started.wait(2.0)
        with pytest.raises(ServerBusy) as info:
            executor.submit(make_noop(), [0.0])
        assert info.value.retry_after >= 0.0
        assert executor.shed == 1
        release.set()
        assert job.done.wait(2.0)
    finally:
        release.set()
        executor.shutdown()


def test_default_is_unbounded():
    exe, started, release = make_blocker()
    executor = Executor(num_pes=1)
    try:
        executor.submit(exe, [0.0])
        assert started.wait(2.0)
        jobs = [executor.submit(make_noop(), [0.0]) for _ in range(16)]
        release.set()
        for job in jobs:
            assert job.done.wait(2.0)
        assert executor.shed == 0
    finally:
        release.set()
        executor.shutdown()


def test_deadline_unmeetable_shed_uses_service_estimate():
    executor = Executor(num_pes=1)
    slow = NinfExecutable(Signature.from_idl(SLEEP_IDL),
                          lambda seconds: threading.Event().wait(0.1))
    try:
        warm = executor.submit(slow, [0.0])
        assert warm.done.wait(2.0)  # seeds the service-time EWMA
        assert executor.estimated_wait() == 0.0  # idle: no queue wait
        exe, started, release = make_blocker()
        executor.submit(exe, [0.0])
        assert started.wait(2.0)
        with pytest.raises(ServerBusy) as info:
            executor.submit(make_noop(), [0.0],
                            deadline=executor.clock() + 1e-4)
        assert info.value.message == "deadline-unmeetable"
        release.set()
    finally:
        executor.shutdown()


def test_deadline_call_that_fits_a_free_pe_is_not_shed():
    """A call that would start at once waits 0, whatever the estimate.

    Regression: with the EWMA at 0.3 s and one of two PEs busy, the
    estimate read 0.3 x 1 / 2 = 0.15 s, so a 0.1 s budget was shed
    ``deadline-unmeetable`` while PE 1 sat idle."""
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    timed = NinfExecutable(Signature.from_idl(SLEEP_IDL), advance)
    executor = Executor(num_pes=2, clock=lambda: now[0])
    exe, started, release = make_blocker()
    try:
        assert executor.submit(timed, [0.3]).done.wait(2.0)  # EWMA 0.3 s
        executor.submit(exe, [1.0])
        assert started.wait(2.0)
        job = executor.submit(make_noop(), [0.0], deadline=now[0] + 0.1)
        assert job.done.wait(2.0) and job.error is None
        assert executor.shed == 0
    finally:
        release.set()
        executor.shutdown()


# --------------------------------------------------------------- expiry


def test_expired_queued_job_answers_busy_not_executes():
    exe, started, release = make_blocker()
    executor = Executor(num_pes=1)
    ran = threading.Event()
    doomed_exe = NinfExecutable(Signature.from_idl(SLEEP_IDL),
                                lambda seconds: ran.set())
    try:
        executor.submit(exe, [0.0])
        assert started.wait(2.0)
        doomed = executor.submit(doomed_exe, [0.0],
                                 deadline=executor.clock() + 0.05)
        # The dispatcher's expiry sweep fires without any new submits.
        assert doomed.done.wait(2.0)
        assert isinstance(doomed.error, ServerBusy)
        assert doomed.error.message == "deadline-expired"
        assert not ran.is_set()
        assert executor.expired == 1
    finally:
        release.set()
        executor.shutdown()


# --------------------------------------------------------------- cancel


def test_cancel_queued_job():
    exe, started, release = make_blocker()
    executor = Executor(num_pes=1)
    completed = []
    try:
        executor.submit(exe, [0.0])
        assert started.wait(2.0)
        queued = executor.submit(make_noop(), [0.0],
                                 on_complete=completed.append)
        assert executor.cancel(queued) is True
        assert queued.done.wait(2.0)
        assert isinstance(queued.error, RemoteError)
        assert queued.error.code == "cancelled"
        assert completed == [queued]
        assert executor.cancelled == 1
        # Idempotent: a second cancel finds nothing to drop.
        assert executor.cancel(queued) is False
    finally:
        release.set()
        executor.shutdown()


def test_cancel_running_job_returns_false():
    exe, started, release = make_blocker()
    executor = Executor(num_pes=1)
    try:
        job = executor.submit(exe, [0.0])
        assert started.wait(2.0)
        assert executor.cancel(job) is False  # already dispatched
        release.set()
        assert job.done.wait(2.0)
        assert job.error is None
    finally:
        release.set()
        executor.shutdown()


# ------------------------------------------------------------- shutdown


def test_shutdown_signals_queued_jobs():
    """Regression: shutdown used to set done without error/on_complete,
    leaving remote clients hanging on a reply that never came."""
    exe, started, release = make_blocker()
    executor = Executor(num_pes=1)
    completed = []
    executor.submit(exe, [0.0])
    assert started.wait(2.0)
    queued = executor.submit(make_noop(), [0.0],
                             on_complete=completed.append)
    release.set()
    executor.shutdown()
    assert queued.done.is_set()
    assert isinstance(queued.error, ServerShutdown)
    assert completed == [queued]


def test_submit_after_shutdown_raises_server_shutdown():
    executor = Executor(num_pes=1)
    executor.shutdown()
    with pytest.raises(ServerShutdown):
        executor.submit(make_noop(), [0.0])
