"""Integration tests for the two-phase RPC protocol (§5.1)."""

import time

import numpy as np
import pytest

from repro.client import NinfClient
from repro.protocol.errors import RemoteError


def test_detached_call_roundtrip(client, rng):
    n = 8
    a = rng.standard_normal((n, n))
    c = np.zeros((n, n))
    handle = client.call_detached("dmmul", n, a, a, c)
    assert handle.ticket > 0
    outputs = handle.fetch(timeout=30)
    np.testing.assert_allclose(outputs[0], a @ a, rtol=1e-12)
    # In-place write-back happens at fetch time.
    np.testing.assert_allclose(c, a @ a, rtol=1e-12)
    # The record carries server timestamps like a one-phase call.
    assert handle.record is not None
    assert handle.record.server.complete >= handle.record.server.enqueue


def test_detached_survives_connection_churn(server, rng):
    """The whole point of §5.1: no connection is held between phases.
    Submit with one client instance, fetch with a brand-new one."""
    host, port = server.address
    n = 6
    a = rng.standard_normal((n, n))
    with NinfClient(host, port) as first:
        handle = first.call_detached("dmmul", n, a, a, None)
        ticket = handle.ticket
    # first's sockets are closed now; fetch over a fresh client.
    with NinfClient(host, port) as second:
        handle.client = second
        outputs = second.fetch_detached(handle, timeout=30)
    np.testing.assert_allclose(outputs[0], a @ a, rtol=1e-12)
    assert handle.ticket == ticket


def test_detached_pending_then_ready(client):
    handle = client.call_detached("sleeper", 0.3)
    # Polling loop inside fetch handles RESULT_PENDING transparently.
    outputs = handle.fetch(timeout=30)
    assert outputs == []


def test_detached_fetch_timeout(client):
    handle = client.call_detached("sleeper", 1.0)
    with pytest.raises(TimeoutError):
        client.fetch_detached(handle, timeout=0.1)
    # A later fetch still succeeds.
    assert handle.fetch(timeout=30) == []


def test_detached_execution_error_surfaces_at_fetch(client):
    handle = client.call_detached("always_fails", 3)
    with pytest.raises(RemoteError) as excinfo:
        handle.fetch(timeout=30)
    assert excinfo.value.code == "execution-failed"


def test_detached_unknown_ticket(client, rng):
    """A fetched ticket stays known -- a FETCH whose reply was lost is
    retried -- and a second fetch returns the same outputs; only a
    ticket this server never issued is unknown."""
    n = 6
    a = rng.standard_normal((n, n))
    handle = client.call_detached("dmmul", n, a, a, None)
    (first,) = handle.fetch(timeout=30)
    (again,) = handle.fetch(timeout=5)
    assert again.tobytes() == first.tobytes()
    handle.ticket += 10_000
    with pytest.raises(RemoteError) as excinfo:
        handle.fetch(timeout=5)
    assert excinfo.value.code == "unknown-ticket"


def test_a_refetch_after_the_cache_let_go_is_result_evicted(server, client):
    """A fetched result is replayable within the dedup cache's bounds;
    past them the call did run, so a re-fetch reads result-evicted."""
    handle = client.call_detached("sleeper", 0.0)
    assert handle.fetch(timeout=30) == []
    server.detached_results.ttl = -1.0     # every held result has expired
    with pytest.raises(RemoteError) as excinfo:
        handle.fetch(timeout=5)
    assert excinfo.value.code == "result-evicted"


def test_detached_unknown_function(client):
    with pytest.raises(RemoteError) as excinfo:
        client.call_detached("no_such", 1)
    assert excinfo.value.code == "no-such-function"


def test_many_detached_calls_interleaved(client, rng):
    n = 5
    handles = []
    matrices = []
    for _ in range(6):
        a = rng.standard_normal((n, n))
        matrices.append(a)
        handles.append(client.call_detached("dmmul", n, a, a, None))
    # Tickets are unique.
    assert len({h.ticket for h in handles}) == 6
    # Fetch out of order.
    for handle, a in sorted(zip(handles, matrices),
                            key=lambda pair: -pair[0].ticket):
        (result,) = handle.fetch(timeout=30)
        np.testing.assert_allclose(result, a @ a, rtol=1e-10)


def settle(server, handles, timeout=30.0):
    """Wait until the server has stored (or already evicted) every
    handle's result.  The server runs several PEs, so a call can finish
    after a newer one; fetching the newest says nothing of the rest."""
    cache = server.detached_results
    deadline = time.monotonic() + timeout
    while any(cache.replay(h.ticket)[0] == "pending" for h in handles):
        assert time.monotonic() < deadline, "detached calls still running"
        time.sleep(0.005)


def detached_oldest_first(server, count, submit):
    """``count`` detached calls whose first one is stored before the
    rest are submitted, so it is the oldest result in the store."""
    handles = [submit()]
    settle(server, handles)
    handles += [submit() for _ in range(count - 1)]
    return handles


def test_detached_store_bounded(server, client):
    """Old finished results are evicted once the store exceeds its cap."""
    server.detached_results.max_entries = 3
    handles = detached_oldest_first(
        server, 8, lambda: client.call_detached("sleeper", 0.0))
    handles[-1].fetch(timeout=30)
    settle(server, handles)
    # The oldest tickets have been evicted; the error is *distinct*
    # from unknown-ticket so the owner knows the call ran but the
    # result aged out (re-issue, don't debug a phantom ticket).
    with pytest.raises(RemoteError) as excinfo:
        handles[0].fetch(timeout=5)
    assert excinfo.value.code == "result-evicted"


def test_unfetched_bulk_results_are_bounded_in_bytes(server, client, rng):
    """Finished detached results are held to a byte bound, not only a
    count: past it the oldest unfetched result answers result-evicted
    (a bulk result pins its call's output array until fetched), and the
    eviction is counted."""
    from repro.obs import names
    from repro.server import DedupCache

    assert server.detached_results.max_bytes == DedupCache().max_bytes
    server.detached_results.max_bytes = 2 << 20
    n = 256                      # a 512 KiB output per call
    a = rng.standard_normal((n, n))
    handles = detached_oldest_first(
        server, 6, lambda: client.call_detached("dmmul", n, a, a, None))
    (newest,) = handles[-1].fetch(timeout=30)
    np.testing.assert_allclose(newest, a @ a, rtol=1e-10)
    settle(server, handles)
    with pytest.raises(RemoteError) as excinfo:
        handles[0].fetch(timeout=5)
    assert excinfo.value.code == "result-evicted"
    assert server.metrics.counter(
        names.SERVER_DETACHED_EVICTED).value() >= 1


def test_detached_eviction_metric_and_tombstones(server, client):
    """Evictions are counted and tombstoned; fresh tickets unaffected."""
    from repro.obs import names

    server.detached_results.max_entries = 2
    handles = [client.call_detached("sleeper", 0.0) for _ in range(6)]
    handles[-1].fetch(timeout=30)
    settle(server, handles)
    # Every evicted ticket answers result-evicted...
    evicted = 0
    for handle in handles[:-1]:
        try:
            handle.fetch(timeout=5)
        except RemoteError as exc:
            assert exc.code == "result-evicted"
            evicted += 1
    assert evicted >= 3
    # ...and the pinned counter agrees.
    metric = server.metrics.counter(names.SERVER_DETACHED_EVICTED)
    assert metric.value() >= evicted
    # A ticket this server never issued is still unknown-ticket.
    phantom = client.call_detached("sleeper", 0.0)
    phantom.ticket += 10_000
    with pytest.raises(RemoteError) as excinfo:
        phantom.fetch(timeout=5)
    assert excinfo.value.code == "unknown-ticket"
