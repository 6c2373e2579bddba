"""A server keeps a reply only for a caller that can ask for it again
(DESIGN.md §3.5).

An at-most-once CALL / CALL_DETACHED -- the default client, or
``retry_calls`` without a ``retry`` policy -- carries an empty
``logical_id`` and leaves nothing in the server's dedup cache.  With a
policy and ``retry_calls`` every attempt of a logical call carries one
fresh id, the finished reply is held, and a lost reply is replayed from
the cache rather than recomputed.  The client's own call log is bounded
too.
"""

import re

import numpy as np
import pytest

from repro.client import NinfClient
from repro.protocol.messages import MessageType, unpack
from repro.server import NinfServer, Registry
from repro.transport import Connection, RetryPolicy

NOOP_IDL = ('Define bench_noop(mode_in int x, mode_out int y) '
            '"benchmark: y = x + 1" Calls "C" bench_noop(x, y);')
ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')
DOUBLES = (1 << 20) // 8            # a 1 MiB argument, a 1 MiB reply


@pytest.fixture(params=["blocking"])
def client_cls(request):
    return NinfClient


@pytest.fixture
def executions():
    return []


@pytest.fixture
def server(executions):
    registry = Registry()

    def noop(x, y):
        executions.append(int(x))
        return int(x) + 1

    registry.register(NOOP_IDL, noop)
    registry.register(ECHO_IDL, lambda n, a, b: a)
    with NinfServer(registry, num_pes=1) as srv:
        yield srv


def admitted_headers(server, lose_first_result=False):
    """Every CALL / CALL_DETACHED header ``server`` receives, in order.
    With ``lose_first_result`` the first RESULT never reaches its
    client: the connection is shut down in its place."""
    headers, lost = [], []

    class LoseTheResult(Connection):
        def __init__(self, conn):
            self.conn = conn

        def send(self, msg_type, payload=b""):
            if msg_type == MessageType.RESULT and not lost:
                lost.append(msg_type)
                self.conn.channel.shutdown()
            else:
                self.conn.send(msg_type, payload)

    for msg_type in (MessageType.CALL, MessageType.CALL_DETACHED):
        def spy(conn, payload, handler=server._handlers[int(msg_type)]):
            headers.append(unpack(MessageType.CALL, payload)[0])
            handler(LoseTheResult(conn) if lose_first_result else conn,
                    payload)
        server.register_handler(msg_type, spy)
    return headers


def fast_retry():
    return RetryPolicy(max_attempts=3, base_delay=0.001,
                       sleep=lambda _seconds: None)


def test_an_at_most_once_client_leaves_no_reply_behind(server, client_cls):
    headers = admitted_headers(server)
    array = np.random.default_rng(1997).random(DOUBLES)
    with client_cls(*server.address, timeout=10.0) as client:
        for i in range(20):
            assert client.call("bench_noop", i, None) == [i + 1]
        for _ in range(3):
            (echoed,) = client.call("bench_echo", DOUBLES, array, None)
            assert echoed.tobytes() == array.tobytes()
        handle = client.call_detached("bench_noop", 41, None)
        assert client.fetch_detached(handle, timeout=10.0) == [42]
    assert len(server.dedup) == 0
    assert server.dedup._done_bytes == 0
    assert [h.logical_id for h in headers] == [""] * 24


def test_a_retried_call_carries_one_id_and_is_replayed(server, client_cls,
                                                       executions):
    headers = admitted_headers(server, lose_first_result=True)
    with client_cls(*server.address, timeout=10.0, retry=fast_retry(),
                    retry_calls=True) as client:
        assert client.call("bench_noop", 41, None) == [42]
        assert client.retries == 1
    assert executions == [41]               # the retry was replayed
    assert server.dedup.hits == 1
    assert len(server.dedup) == 1           # the finished reply is held
    first, second = headers
    assert (first.attempt, second.attempt) == (1, 2)
    assert re.fullmatch("[0-9a-f]{32}", first.logical_id)
    assert second.logical_id == first.logical_id


def test_retry_calls_without_a_policy_sends_no_id(server, client_cls):
    headers = admitted_headers(server)
    with client_cls(*server.address, timeout=10.0,
                    retry_calls=True) as client:
        assert client.call("bench_noop", 1, None) == [2]
        handle = client.call_detached("bench_noop", 2, None)
        assert client.fetch_detached(handle, timeout=10.0) == [3]
    assert len(server.dedup) == 0
    assert [h.logical_id for h in headers] == ["", ""]


def test_the_call_log_keeps_the_most_recent_calls(server):
    with NinfClient(*server.address, timeout=10.0) as client:
        for i in range(1100):
            _outputs, record = client.call_with_record("bench_noop", i, None)
        assert len(client.records) == 1024
        assert client.records[-1] is record
