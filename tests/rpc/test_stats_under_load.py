"""STATS scraping under concurrent load (ISSUE 7 satellite 2).

``fetch_stats`` while 100 calls are in flight must return an
internally consistent snapshot -- histogram cumulative buckets
non-decreasing with ``count`` equal to the +Inf bucket, counters
monotonic scrape over scrape -- while the server's reactor renders
each scrape in place.  After the load drains, the scraped counters must account for
exactly the calls the clients made.
"""

import pytest

from repro.client import NinfClient
from repro.obs import names
from repro.server import NinfServer
from tests.rpc.conftest import build_registry

CONCURRENT_CALLS = 100


def _assert_snapshot_consistent(snapshot):
    """No torn counters: every metric internally coherent."""
    assert isinstance(snapshot, dict) and snapshot
    for name, metric in snapshot.items():
        assert metric["type"] in ("counter", "gauge", "histogram"), name
        for value in metric["values"]:
            if metric["type"] == "histogram":
                buckets = value["buckets"]
                assert all(b >= a for a, b in zip(buckets, buckets[1:])), \
                    f"{name}: cumulative buckets must be non-decreasing"
                assert value["count"] == buckets[-1], \
                    f"{name}: count disagrees with the +Inf bucket"
                assert value["sum"] >= 0.0
            elif metric["type"] == "counter":
                assert value["value"] >= 0, name


def _ok_calls(snapshot) -> int:
    return sum(int(v["value"])
               for v in snapshot.get(names.SERVER_CALLS,
                                     {}).get("values", ())
               if v["labels"].get("status") == "ok")


def _load(client, calls, seconds):
    """``calls`` sleeper calls in flight at once, each on its own
    ``call_async`` thread and pooled connection."""
    return [client.call_async("sleeper", seconds) for _ in range(calls)]


@pytest.mark.parametrize("flavour", ["threaded"])
def test_fetch_stats_returns_consistent_snapshot_under_load(flavour):
    # Plenty of PEs so 100 concurrent sleeps drain in well under a
    # second while still overlapping the scrapes.
    with NinfServer(build_registry(), num_pes=64, mode="task") as server, \
            NinfClient(*server.address) as client, \
            NinfClient(*server.address) as scraper:
        client.get_signature("sleeper")
        futures = _load(client, CONCURRENT_CALLS, 0.2)
        previous_ok = 0
        while not all(future.done for future in futures):
            snapshot = scraper.fetch_stats("json")
            _assert_snapshot_consistent(snapshot)
            ok_now = _ok_calls(snapshot)
            assert ok_now >= previous_ok, "counter went backwards"
            previous_ok = ok_now
        for future in futures:
            future.result(timeout=60.0)
        # After the dust settles the server accounts for every call the
        # load driver made -- no more, no fewer.
        final = scraper.fetch_stats("json")
        _assert_snapshot_consistent(final)
        assert _ok_calls(final) == CONCURRENT_CALLS


@pytest.mark.parametrize("flavour", ["threaded"])
def test_prometheus_stats_scrape_under_load(flavour):
    """The prom rendering stays parseable mid-load too."""
    with NinfServer(build_registry(), num_pes=16, mode="task") as server, \
            NinfClient(*server.address) as client, \
            NinfClient(*server.address) as scraper:
        futures = _load(client, 20, 0.1)
        text = scraper.fetch_stats("prom")
        assert "# TYPE" in text
        for line in text.splitlines():
            if line and not line.startswith("#"):
                # every sample line is "name{labels} value"
                assert len(line.rsplit(None, 1)) == 2
        for future in futures:
            future.result(timeout=60.0)
