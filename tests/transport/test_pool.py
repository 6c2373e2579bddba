"""ConnectionPool: reuse, eviction, escape hatch, thread safety."""

import socket
import threading

import pytest

from repro.transport import Channel, ConnectionPool


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class FakeConnector:
    """Channel factory over socketpairs; keeps every peer for cleanup."""

    def __init__(self):
        self.dials = 0
        self._keep = []

    def __call__(self, host, port, timeout=None, connect_timeout=None):
        self.dials += 1
        a, b = socket.socketpair()
        self._keep.append(b)
        return Channel(a, timeout=timeout, remote=(host, port))

    def close(self):
        for sock in self._keep:
            sock.close()


@pytest.fixture
def connector():
    fake = FakeConnector()
    yield fake
    fake.close()


def test_checkout_reuses_the_same_channel_object(connector):
    pool = ConnectionPool(connector=connector)
    first = pool.checkout("h", 1)
    pool.checkin(first)
    second = pool.checkout("h", 1)
    assert second is first
    assert connector.dials == 1
    assert pool.created == 1 and pool.reused == 1
    pool.close()


def test_socket_count_stays_flat_across_n_checkouts(connector):
    pool = ConnectionPool(connector=connector)
    for _ in range(25):
        channel = pool.checkout("h", 1)
        pool.checkin(channel)
    assert connector.dials == 1
    pool.close()


def test_pool_false_dials_every_time(connector):
    pool = ConnectionPool(pool=False, connector=connector)
    channels = []
    for _ in range(5):
        channel = pool.checkout("h", 1)
        channels.append(channel)
        pool.checkin(channel)
    assert connector.dials == 5
    assert all(ch.closed for ch in channels)  # checkin closes, never keeps
    assert pool.idle_count() == 0


def test_keys_are_isolated(connector):
    pool = ConnectionPool(connector=connector)
    one = pool.checkout("h", 1)
    pool.checkin(one)
    other = pool.checkout("h", 2)
    assert other is not one
    assert connector.dials == 2
    pool.close()


def test_idle_eviction(connector):
    clock = FakeClock()
    pool = ConnectionPool(connector=connector, max_idle_seconds=10.0,
                          clock=clock)
    channel = pool.checkout("h", 1)
    pool.checkin(channel)
    clock.now = 5.0
    assert pool.idle_count("h", 1) == 1
    clock.now = 20.0
    pool.evict_idle()
    assert pool.idle_count("h", 1) == 0
    assert channel.closed
    # The next checkout dials fresh rather than handing back a corpse.
    fresh = pool.checkout("h", 1)
    assert fresh is not channel
    assert connector.dials == 2
    pool.close()


def test_eviction_is_lazy_on_checkout(connector):
    clock = FakeClock()
    pool = ConnectionPool(connector=connector, max_idle_seconds=10.0,
                          clock=clock)
    stale = pool.checkout("h", 1)
    pool.checkin(stale)
    clock.now = 60.0
    fresh = pool.checkout("h", 1)
    assert fresh is not stale
    assert stale.closed
    pool.close()


def test_bucket_bounded_by_max_idle_per_key(connector):
    pool = ConnectionPool(connector=connector, max_idle_per_key=2)
    channels = [pool.checkout("h", 1) for _ in range(4)]
    for channel in channels:
        pool.checkin(channel)
    assert pool.idle_count("h", 1) == 2
    assert sum(ch.closed for ch in channels) == 2
    pool.close()


def test_discard_never_returns_to_pool(connector):
    pool = ConnectionPool(connector=connector)
    channel = pool.checkout("h", 1)
    pool.discard(channel)
    assert channel.closed
    assert pool.idle_count() == 0
    pool.close()


def test_closed_channel_not_checked_in(connector):
    pool = ConnectionPool(connector=connector)
    channel = pool.checkout("h", 1)
    channel.close()
    pool.checkin(channel)
    assert pool.idle_count() == 0
    pool.close()


def test_lease_checks_in_on_success_discards_on_error(connector):
    pool = ConnectionPool(connector=connector)
    with pool.lease("h", 1) as channel:
        pass
    assert pool.idle_count("h", 1) == 1
    with pytest.raises(RuntimeError):
        with pool.lease("h", 1) as channel:
            raise RuntimeError("boom")
    assert channel.closed
    assert pool.idle_count("h", 1) == 0
    pool.close()


def test_close_latches_the_pool(connector):
    pool = ConnectionPool(connector=connector)
    kept = pool.checkout("h", 1)
    idle = pool.checkout("h", 1)
    pool.checkin(idle)
    pool.close()
    assert idle.closed
    # Checkins after close are closed rather than retained.
    pool.checkin(kept)
    assert kept.closed
    assert pool.idle_count() == 0


def test_concurrent_checkout_is_safe(connector):
    pool = ConnectionPool(connector=connector)
    errors = []
    held = set()
    held_lock = threading.Lock()

    def worker():
        try:
            for _ in range(200):
                channel = pool.checkout("h", 1)
                # No two threads may hold the same channel at once.
                with held_lock:
                    assert id(channel) not in held
                    held.add(id(channel))
                with held_lock:
                    held.discard(id(channel))
                pool.checkin(channel)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    # Every dialed channel is accounted for: idle or closed, never lost.
    assert pool.idle_count("h", 1) <= pool.max_idle_per_key
    assert connector.dials == pool.created
    pool.close()


def _idle_gauge(pool):
    return pool.metrics.get("ninf_pool_idle_connections").value()


@pytest.mark.parametrize("touch", ["checkout", "checkin"])
def test_a_channel_idle_past_the_horizon_goes_on_the_next_touch(
        connector, touch):
    """Eviction sweeps only once the oldest idle stamp is past the
    horizon, and then on whichever of checkout or checkin comes next."""
    clock = FakeClock()
    pool = ConnectionPool(connector=connector, max_idle_seconds=10.0,
                          clock=clock)
    stale, held = pool.checkout("h", 1), pool.checkout("h", 2)
    pool.checkin(stale)
    clock.now = 9.0
    pool.checkin(pool.checkout("h", 3))  # inside the horizon: kept
    assert not stale.closed and pool.idle_count() == 2
    clock.now = 10.5
    if touch == "checkout":
        pool.checkin(pool.checkout("h", 3))
    else:
        pool.checkin(held)
    assert stale.closed
    assert pool.idle_count("h", 1) == 0
    assert pool.idle_count("h", 3) == 1
    assert _idle_gauge(pool) == pool.idle_count()
    pool.close()


def test_idle_gauge_equals_idle_count_after_every_operation(connector):
    clock = FakeClock()
    pool = ConnectionPool(connector=connector, max_idle_seconds=10.0,
                          max_idle_per_key=2, clock=clock)
    held = []

    def check():
        assert _idle_gauge(pool) == pool.idle_count()

    steps = [
        lambda: held.extend(pool.checkout("h", 1) for _ in range(3)),
        lambda: pool.checkin(held.pop()),
        lambda: pool.checkin(held.pop()),
        lambda: pool.checkin(held.pop()),  # bucket full: closed
        lambda: held.append(pool.checkout("h", 1)),
        lambda: held.append(pool.checkout("h", 2)),
        lambda: setattr(clock, "now", 30.0),
        lambda: pool.checkin(held.pop()),  # sweeps the stale (h, 1)
        lambda: pool.discard(held.pop()),
        lambda: setattr(clock, "now", 60.0),
        pool.evict_idle,
        lambda: pool.checkin(pool.checkout("h", 1)),
        pool.close,
    ]
    for step in steps:
        step()
        check()
    assert pool.idle_count() == 0
