"""DedupCache: TTL, bounds, pending protection, and concurrency."""

import threading
import time

from repro.obs import MetricsRegistry
from repro.obs import names
from repro.server import DedupCache

REPLY = (10, b"result-frame")


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_new_then_done_replays():
    cache = DedupCache()
    state, entry = cache.begin("call-1")
    assert state == "new"
    cache.complete("call-1", REPLY)
    state, entry = cache.begin("call-1")
    assert state == "done"
    assert entry.reply == REPLY
    assert cache.hits == 1


def test_distinct_keys_are_independent():
    cache = DedupCache()
    assert cache.begin("a")[0] == "new"
    assert cache.begin("b")[0] == "new"
    cache.complete("a", REPLY)
    assert cache.begin("a")[0] == "done"
    assert cache.begin("b")[0] == "pending"


def test_ttl_eviction_reexecutes():
    clock = ManualClock()
    cache = DedupCache(ttl=10.0, clock=clock)
    cache.begin("x")
    cache.complete("x", REPLY)
    clock.advance(9.0)
    assert cache.begin("x")[0] == "done"  # still fresh
    clock.advance(2.0)  # 11 s past completion
    assert cache.begin("x")[0] == "new"  # expired: caller re-executes


def test_completion_refreshes_ttl_stamp():
    clock = ManualClock()
    cache = DedupCache(ttl=10.0, clock=clock)
    cache.begin("x")
    clock.advance(9.0)  # execution took 9 s
    cache.complete("x", REPLY)
    clock.advance(9.0)  # 18 s after begin, 9 s after completion
    assert cache.begin("x")[0] == "done"


def test_bounded_size_evicts_oldest_completed():
    cache = DedupCache(max_entries=2)
    for key in ("a", "b", "c"):
        cache.begin(key)
        cache.complete(key, REPLY)
    assert len(cache) == 2
    assert cache.begin("a")[0] == "new"  # oldest was evicted
    assert cache.begin("b")[0] == "done"
    assert cache.begin("c")[0] == "done"


def test_byte_bound_evicts_oldest_completed_and_keeps_the_newest():
    cache = DedupCache(max_bytes=100)
    for key in ("a", "b", "c"):
        cache.begin(key)
        cache.complete(key, (10, bytes(40)))
    # 120 retained bytes > 100: the oldest goes, its late duplicate
    # re-executes; the rest still replay.
    assert len(cache) == 2
    assert cache.begin("b")[0] == "done"
    assert cache.begin("c")[0] == "done"
    assert cache.begin("a")[0] == "new"
    # One reply larger than the whole bound is still kept while it is
    # the newest (an immediate retry must replay) -- and evicts the rest.
    cache.begin("huge")
    cache.complete("huge", (10, memoryview(bytes(500))))
    assert cache.begin("huge")[0] == "done"
    assert cache.begin("b")[0] == "new"
    assert cache.begin("c")[0] == "new"
    # ... until something newer completes; pending entries ("a", "b",
    # "c" now) are never evicted by the byte bound.
    cache.complete("a", (10, b"x"))
    assert cache.begin("huge")[0] == "new"
    assert cache.begin("b")[0] == "pending"


def test_retained_bytes_tracked_across_complete_abort_and_ttl():
    clock = ManualClock()
    cache = DedupCache(ttl=10.0, clock=clock, max_bytes=100)
    cache.begin("a")
    cache.complete("a", (10, bytes(60)))
    cache.complete("a", (10, bytes(30)))  # re-completion replaces
    cache.begin("b")
    cache.complete("b", (10, bytes(60)))
    assert cache.begin("a")[0] == "done"  # 90 bytes: both fit
    cache.abort("b")
    cache.begin("c")
    cache.complete("c", (10, bytes(60)))
    assert cache.begin("a")[0] == "done"  # b's bytes were released
    clock.advance(11.0)
    assert cache.begin("a")[0] == "new"
    assert cache._done_bytes == 0


def test_purge_cost_does_not_grow_with_the_cache():
    """begin + complete pop from the front of the completed queue; a
    full cache is not scanned per operation (two scans of 4096 entries
    cost ~1 ms; the bound leaves an order of magnitude either side)."""
    cache = DedupCache(max_entries=4096)
    for i in range(4096):
        cache.begin(f"warm{i}")
        cache.complete(f"warm{i}", REPLY)
    best = float("inf")
    for batch in range(5):
        start = time.perf_counter()
        for i in range(200):
            cache.begin(f"k{batch}-{i}")
            cache.complete(f"k{batch}-{i}", REPLY)
        best = min(best, (time.perf_counter() - start) / 200)
    assert len(cache) == 4096
    assert best < 100e-6


def test_pending_entries_never_evicted():
    cache = DedupCache(max_entries=1)
    assert cache.begin("pending-call")[0] == "new"
    for key in ("a", "b", "c"):
        cache.begin(key)
        cache.complete(key, REPLY)
    # The pending entry survived the churn; a retry still blocks on it
    # rather than re-executing.
    assert cache.begin("pending-call")[0] == "pending"


def test_abort_wakes_waiter_with_none():
    cache = DedupCache()
    cache.begin("shed-call")
    results = []
    assert cache.begin("shed-call", waiter=results.append)[0] == "pending"
    cache.abort("shed-call")
    assert results == [None]
    # The key is free again: the waiter re-begins and takes over.
    assert cache.begin("shed-call")[0] == "new"


def test_concurrent_same_key_blocks_not_double_executes():
    cache = DedupCache()
    executions = []
    barrier = threading.Barrier(4)
    replies = []

    def attempt():
        barrier.wait()
        # A pending attempt's waiter runs on the completing thread.
        state, entry = cache.begin("hot-call", waiter=replies.append)
        if state == "new":
            executions.append(1)
            cache.complete("hot-call", REPLY)
            replies.append(REPLY)
        elif state == "done":
            replies.append(entry.reply)

    threads = [threading.Thread(target=attempt) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(2.0)
    assert len(executions) == 1  # exactly one attempt executed
    assert replies == [REPLY] * 4  # everyone got the same reply


def test_wait_timeout_returns_none():
    # A waiter parked on a pending entry runs only when it settles.
    cache = DedupCache()
    cache.begin("slow")
    results = []
    cache.begin("slow", waiter=results.append)
    assert results == []
    cache.complete("slow", REPLY)
    assert results == [REPLY]


def test_metrics_mirror_hits_and_size():
    registry = MetricsRegistry()
    cache = DedupCache(metrics=registry)
    cache.begin("a")
    cache.complete("a", REPLY)
    cache.begin("a")
    snap = registry.snapshot()
    assert snap[names.SERVER_DEDUP_HITS]["values"][0]["value"] == 1
    assert snap[names.SERVER_DEDUP_ENTRIES]["values"][0]["value"] == 1
