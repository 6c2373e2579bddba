"""End-to-end resilience over the real wire: BUSY shedding, deadline
budgets, CANCEL, and logical-id dedup (DESIGN.md §3.5), exercised
against the server under both of its names (§3.6)."""

import logging
import threading
import time
from contextlib import ExitStack

import pytest

from repro.client import NinfClient
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol import RemoteError, ServerBusy
from repro.protocol import TimeoutError as ProtocolTimeoutError
from repro.protocol.marshal import marshal_inputs
from repro.protocol.messages import (
    CallHeader,
    MessageType,
    pack,
    unpack,
)
from repro.server import Registry
from repro.transport import RetryPolicy, connect, is_transient
from tests.rpc.conftest import NativeClientDriver
from tests.rpc.test_async_close import wait_until

SLEEP_IDL = 'Define sleeper(mode_in double seconds) "waits on an event";'
BUMP_IDL = 'Define bump(mode_in int n) "records the call";'


class Blocking:
    """Registry whose ``sleeper`` blocks on an event when seconds > 0."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.bumps = []
        self.registry = Registry()
        self.registry.register(SLEEP_IDL, self._sleeper)
        self.registry.register(BUMP_IDL, self.bumps.append)

    def _sleeper(self, seconds):
        if seconds > 0:
            self.started.set()
            self.release.wait(10.0)


@pytest.fixture
def env():
    blocking = Blocking()
    try:
        yield blocking
    finally:
        blocking.release.set()


def occupy(env, client):
    """Park a blocking call on the server's single PE."""
    call = client.call_detached("sleeper", 1.0)
    assert env.started.wait(2.0)
    return call


# ----------------------------------------------------------- overload


def test_call_sheds_busy_when_queue_full(env, server_cls):
    with server_cls(env.registry, num_pes=1, max_queued=0) as server:
        with NinfClient(*server.address) as client:
            parked = occupy(env, client)
            with pytest.raises(ServerBusy) as info:
                client.call("sleeper", 0.0)
            assert info.value.retry_after >= 0.0
            assert server.executor.shed >= 1
            env.release.set()
            client.fetch_detached(parked, timeout=5.0)


def test_busy_call_retried_until_capacity_frees(env, server_cls):
    """A shed CALL rides RetryPolicy (BUSY is transient) and lands once
    the blocking job releases the PE."""
    retry = RetryPolicy(max_attempts=20, base_delay=0.05, jitter=0.0)
    with server_cls(env.registry, num_pes=1, max_queued=0) as server:
        with NinfClient(*server.address, retry=retry,
                        retry_calls=True) as client:
            parked = occupy(env, client)
            timer = threading.Timer(0.2, env.release.set)
            timer.start()
            try:
                client.call("sleeper", 0.0)  # BUSY first, succeeds later
            finally:
                timer.cancel()
            assert server.executor.shed >= 1
            client.fetch_detached(parked, timeout=5.0)


# ----------------------------------------------------------- deadlines


def test_wire_deadline_expires_queued_call(env, server_cls):
    with server_cls(env.registry, num_pes=1) as server:
        with NinfClient(*server.address) as client:
            parked = occupy(env, client)
            with pytest.raises(ServerBusy) as info:
                client.call_with_record("sleeper", 0.0, timeout=0.1)
            assert info.value.message == "deadline-expired"
            assert server.executor.expired == 1
            env.release.set()
            client.fetch_detached(parked, timeout=5.0)


def test_fetch_deadline_expiry_cancels_queued_job(env, server_cls):
    with server_cls(env.registry, num_pes=1) as server:
        with NinfClient(*server.address) as client:
            parked = occupy(env, client)
            doomed = client.call_detached("sleeper", 0.0)
            with pytest.raises(TimeoutError):
                client.fetch_detached(doomed, timeout=0.1,
                                      poll_interval=0.01)
            assert server.executor.cancelled == 1
            env.release.set()
            client.fetch_detached(parked, timeout=5.0)


@pytest.mark.parametrize("driver", [NinfClient, NativeClientDriver],
                         ids=["sync", "native"])
def test_fetch_timeout_is_the_protocol_error_on_both_drivers(env, server_cls,
                                                             driver):
    """One core, one exception: the transient ``repro.protocol``
    TimeoutError (a builtin ``TimeoutError`` too), after a best-effort
    CANCEL of the still-queued job."""
    with server_cls(env.registry, num_pes=1) as server:
        with driver(*server.address) as client:
            parked = occupy(env, client)
            doomed = client.call_detached("sleeper", 0.0, timeout=30.0)
            with pytest.raises(TimeoutError) as info:
                client.fetch_detached(doomed, timeout=0.1,
                                      poll_interval=0.01)
            assert type(info.value) is ProtocolTimeoutError
            assert is_transient(info.value)
            assert str(info.value) == (f"detached call sleeper (ticket "
                                       f"{doomed.ticket}) still pending")
            assert server.executor.cancelled == 1
            env.release.set()
            client.fetch_detached(parked, timeout=5.0)


# -------------------------------------------------------------- cancel


def test_cancel_detached_queued_job(env, server_cls):
    with server_cls(env.registry, num_pes=1) as server:
        with NinfClient(*server.address) as client:
            parked = occupy(env, client)
            queued = client.call_detached("sleeper", 0.0)
            assert client.cancel_detached(queued) is True
            assert server.executor.cancelled == 1
            # Idempotent: the job is already gone.
            assert client.cancel_detached(queued) is False
            # Fetching a cancelled ticket reports the cancellation.
            with pytest.raises(RemoteError) as info:
                client.fetch_detached(queued, timeout=2.0)
            assert info.value.code == "cancelled"
            env.release.set()
            client.fetch_detached(parked, timeout=5.0)


def test_cancel_running_job_is_refused(env, server_cls):
    with server_cls(env.registry, num_pes=1) as server:
        with NinfClient(*server.address) as client:
            parked = occupy(env, client)
            assert client.cancel_detached(parked) is False
            env.release.set()
            client.fetch_detached(parked, timeout=5.0)


# --------------------------------------------------------------- dedup


def _send_call(channel, signature, logical_id, attempt):
    header = CallHeader(function="bump", call_id=7, logical_id=logical_id,
                        attempt=attempt, budget=0.0)
    channel.send(MessageType.CALL, pack(MessageType.CALL, header,
                                        marshal_inputs(signature, [41])))
    return channel.recv()


def test_retried_logical_id_executes_exactly_once(env, server_cls):
    """A second attempt of the same logical call replays the cached
    reply frame byte-for-byte instead of re-executing."""
    signature = Signature.from_idl(BUMP_IDL)
    with server_cls(env.registry, num_pes=1) as server:
        host, port = server.address
        channel = connect(host, port, timeout=5.0)
        try:
            first_type, first = _send_call(channel, signature,
                                           "logical-abc", attempt=1)
            second_type, second = _send_call(channel, signature,
                                             "logical-abc", attempt=2)
        finally:
            channel.close()
        assert first_type == MessageType.RESULT
        assert (second_type, second) == (first_type, first)
        assert env.bumps == [41]
        assert server.dedup.hits == 1


def test_distinct_logical_ids_execute_independently(env, server_cls):
    signature = Signature.from_idl(BUMP_IDL)
    with server_cls(env.registry, num_pes=1) as server:
        host, port = server.address
        channel = connect(host, port, timeout=5.0)
        try:
            _send_call(channel, signature, "logical-a", attempt=1)
            _send_call(channel, signature, "logical-b", attempt=1)
        finally:
            channel.close()
        assert env.bumps == [41, 41]
        assert server.dedup.hits == 0


# ------------------------------------------- duplicates never hold a thread

DUPLICATES = 40


def _dial_duplicates(host, port, stack):
    """``DUPLICATES`` connections the server is already serving."""
    channels = [stack.enter_context(connect(host, port, timeout=10.0))
                for _ in range(DUPLICATES)]
    for channel in channels:
        channel.request(MessageType.PING, expect=MessageType.PONG)
    return channels


def test_duplicate_attempts_do_not_starve_the_server(env, server_cls):
    """While one call runs, 40 more attempts of the same logical call
    park on its dedup entry: none holds a thread, other connections are
    answered at once, and all 41 get the one execution's RESULT."""
    payload = bytes(_CallPayload(
        "sleeper", Signature.from_idl(SLEEP_IDL), 7,
        (1.0,)).stamp(None, time.monotonic))
    with server_cls(env.registry, num_pes=1) as server, ExitStack() as stack:
        host, port = server.address
        owner = stack.enter_context(connect(host, port, timeout=10.0))
        duplicates = _dial_duplicates(host, port, stack)
        owner.send(MessageType.CALL, payload)
        assert env.started.wait(2.0)
        threads = threading.active_count()
        for channel in duplicates:
            channel.send(MessageType.CALL, payload)
        wait_until(lambda: server.dedup.hits == DUPLICATES)
        assert threading.active_count() == threads
        with connect(host, port, timeout=5.0) as probe:
            start = time.perf_counter()
            probe.request(MessageType.LOAD_QUERY,
                          expect=MessageType.LOAD_REPLY)
            probe.request(MessageType.HELLO, expect=MessageType.HELLO_REPLY)
            assert time.perf_counter() - start < 0.1
        env.release.set()
        replies = [channel.recv() for channel in [owner, *duplicates]]
        assert server.dedup.hits == DUPLICATES
        assert server.executor.completed == 1
    assert replies == [replies[0]] * (DUPLICATES + 1)
    reply_type, reply = replies[0]
    assert reply_type == MessageType.RESULT
    assert unpack(MessageType.RESULT, reply)[0] == 7


def test_a_duplicate_takes_over_when_the_owner_is_shed(env, server_cls):
    """The owning attempt expires in the queue (BUSY): exactly one of
    the attempts parked behind it executes, and the rest get its
    RESULT."""
    call = _CallPayload("bump", Signature.from_idl(BUMP_IDL), 9, (41,))
    with server_cls(env.registry, num_pes=1) as server, ExitStack() as stack:
        host, port = server.address
        client = stack.enter_context(NinfClient(host, port))
        parked = occupy(env, client)  # the only PE: the owner must queue
        owner = stack.enter_context(connect(host, port, timeout=10.0))
        duplicates = _dial_duplicates(host, port, stack)
        owner.send(MessageType.CALL, bytes(
            call.stamp(time.monotonic() + 0.5, time.monotonic)))
        assert wait_until(lambda: server.executor.queued == 1)
        unbounded = bytes(call.stamp(None, time.monotonic))
        for channel in duplicates:
            channel.send(MessageType.CALL, unbounded)
        reply_type, reply = owner.recv()
        assert reply_type == MessageType.BUSY
        (busy,) = unpack(MessageType.BUSY, reply)
        assert busy.reason == "deadline-expired"
        env.release.set()
        replies = [channel.recv() for channel in duplicates]
        client.fetch_detached(parked, timeout=5.0)
        assert server.executor.expired == 1
    assert replies[0][0] == MessageType.RESULT
    assert replies == [replies[0]] * DUPLICATES
    assert env.bumps == [41]


# ------------------------------------------------- replies are best-effort


def test_reply_to_a_peer_that_has_gone_raises_nowhere(env, server_cls,
                                                      monkeypatch, caplog):
    """The client hangs up mid-call: the PE's reply finds the connection
    closed, the call still counts, and no thread or task dies of it."""
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    caplog.set_level(logging.ERROR, logger="asyncio")
    with server_cls(env.registry, num_pes=1) as server:
        host, port = server.address
        with NinfClient(host, port) as client:
            channel = connect(host, port, timeout=5.0)
            channel.send(MessageType.CALL, bytes(_CallPayload(
                "sleeper", Signature.from_idl(SLEEP_IDL), 3,
                (1.0,)).stamp(None, time.monotonic)))
            assert env.started.wait(2.0)
            channel.close()
            env.release.set()
            assert wait_until(lambda: server.executor.completed == 1)
            assert client.ping()  # and the server serves on
            assert wait_until(lambda: server.connections_open == 1)
    assert died == []
    assert caplog.records == []


def test_stop_delivers_shutdown_errors_before_closing(env, server_cls):
    """Jobs still queued at ``stop()`` are answered (``server-shutdown``,
    sent from the stopping thread) on connections that are still open."""
    signature = Signature.from_idl(BUMP_IDL)
    server = server_cls(env.registry, num_pes=1).start()
    try:
        host, port = server.address
        with NinfClient(host, port) as client, ExitStack() as stack:
            occupy(env, client)
            queued = [stack.enter_context(connect(host, port, timeout=10.0))
                      for _ in range(3)]
            for call_id, channel in enumerate(queued):
                channel.send(MessageType.CALL, bytes(_CallPayload(
                    "bump", signature, call_id,
                    (41,)).stamp(None, time.monotonic)))
            assert wait_until(lambda: server.executor.queued == 3)
            # Release the parked sleeper once stop() has taken the queued
            # jobs (it answers them before joining the PEs), so the join
            # does not wait out the sleeper's own timeout.
            releaser = threading.Thread(target=lambda: wait_until(
                lambda: server.executor.queued == 0) and env.release.set())
            releaser.start()
            server.stop()
            releaser.join(5.0)
            for channel in queued:
                reply_type, reply = channel.recv()
                assert reply_type == MessageType.ERROR
                (error,) = unpack(MessageType.ERROR, reply)
                assert error.code == "server-shutdown"
    finally:
        server.stop()
    assert env.bumps == []
