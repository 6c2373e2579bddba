"""Connection-pool hygiene under failure.

The invariants: a discarded channel is actually closed, an error never
returns a channel to the pool, a dead socket is never handed out, and
``ping()`` does not leak connections.
"""

import socket
import threading
import time

import pytest

from repro.client import NinfClient
from repro.transport import ConnectionPool, FaultPlan
from repro.transport.faults import DROP_PRE


@pytest.fixture
def listener():
    """A bare TCP accept loop: connections are accepted and parked, so
    pool behaviour can be probed without a protocol peer."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(16)
    accepted = []

    def loop():
        while True:
            try:
                conn, _addr = sock.accept()
            except OSError:
                return
            accepted.append(conn)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    yield sock.getsockname(), accepted
    # shutdown() wakes the thread blocked in accept(); close() does not.
    sock.shutdown(socket.SHUT_RDWR)
    sock.close()
    thread.join(timeout=5.0)
    for conn in accepted:
        conn.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_discard_closes_channel(listener):
    (host, port), _accepted = listener
    with ConnectionPool(timeout=5.0) as pool:
        channel = pool.checkout(host, port)
        pool.discard(channel)
        assert channel.closed
        assert pool.idle_count() == 0


def test_lease_discards_on_error(listener):
    (host, port), _accepted = listener
    with ConnectionPool(timeout=5.0) as pool:
        with pytest.raises(RuntimeError, match="boom"):
            with pool.lease(host, port) as channel:
                raise RuntimeError("boom")
        assert channel.closed
        assert pool.idle_count() == 0


def test_healthy_idle_channel_is_reused(listener):
    (host, port), _accepted = listener
    with ConnectionPool(timeout=5.0) as pool:
        first = pool.checkout(host, port)
        pool.checkin(first)
        assert pool.idle_count(host, port) == 1
        again = pool.checkout(host, port)
        assert again is first
        assert pool.created == 1
        assert pool.reused == 1


def test_dead_socket_never_handed_out(listener):
    """A channel whose peer died while it idled must be closed at
    checkout, never returned to a caller."""
    (host, port), accepted = listener
    with ConnectionPool(timeout=5.0) as pool:
        channel = pool.checkout(host, port)
        assert wait_until(lambda: len(accepted) == 1)
        pool.checkin(channel)
        accepted[0].close()  # peer dies while the channel idles
        assert wait_until(lambda: not channel.healthy())
        fresh = pool.checkout(host, port)
        assert fresh is not channel
        assert channel.closed
        assert pool.created == 2
        assert pool.reused == 0


def test_ping_never_leaks_connections(server):
    with NinfClient(*server.address, timeout=5.0) as client:
        for _ in range(10):
            assert client.ping() is True
        # One keep-alive connection, reused every time -- never a leak.
        assert client._pool.idle_count() == 1
        assert client._pool.created == 1
        assert client._pool.reused >= 9


def test_failed_ping_discards_its_channel(server):
    plan = FaultPlan(seed=3, rate=1.0, kinds=(DROP_PRE,))
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        for _ in range(5):
            assert client.ping() is False
        assert client._pool.idle_count() == 0
    assert plan.faults_injected >= 5
