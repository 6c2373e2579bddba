"""End-to-end resilience over the real wire: BUSY shedding, deadline
budgets, CANCEL, and logical-id dedup (DESIGN.md §3.5), exercised
against both the threaded and the asyncio server (§3.6)."""

import threading

import pytest

from repro.client import NinfClient
from repro.idl import Signature
from repro.protocol import RemoteError, ServerBusy
from repro.protocol import TimeoutError as ProtocolTimeoutError
from repro.protocol.marshal import marshal_inputs
from repro.protocol.messages import CallHeader, MessageType
from repro.server import Registry
from repro.transport import RetryPolicy, connect, is_transient
from tests.rpc.conftest import NativeClientDriver

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
    from repro.xdr import XdrEncoder

    enc = XdrEncoder()
    CallHeader(function="bump", call_id=7, logical_id=logical_id,
               attempt=attempt, budget=0.0).encode(enc)
    enc.pack_opaque(marshal_inputs(signature, [41]))
    channel.send(MessageType.CALL, enc.getvalue())
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
