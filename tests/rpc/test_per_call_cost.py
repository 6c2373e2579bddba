"""The fixed cost of a ``Ninf_call`` builds no instrument: after
warm-up, null calls resolve no metric by name on either side, and every
counter they move moves by exactly one call's worth per call."""

import time

from repro.client import NinfClient
from repro.obs import MetricsRegistry, names
from repro.server import NinfServer, Registry

NOOP_IDL = ('Define bench_noop(mode_in int x, mode_out int y) '
            '"benchmark: y = x + 1" Calls "C" bench_noop(x, y);')
CALLS = 200


def _counts(server: NinfServer, client: NinfClient) -> dict:
    def value(registry, name, **labels):
        instrument = registry.get(name)
        return 0.0 if instrument is None else instrument.value(**labels)

    return {
        "server_frames_received": value(server.metrics,
                                        names.TRANSPORT_FRAMES_RECEIVED),
        "server_frames_sent": value(server.metrics,
                                    names.TRANSPORT_FRAMES_SENT),
        "calls_ok": value(server.metrics, names.SERVER_CALLS,
                          function="bench_noop", status="ok"),
        "calls_error": value(server.metrics, names.SERVER_CALLS,
                             function="bench_noop", status="error"),
        "client_frames_sent": value(client.metrics,
                                    names.TRANSPORT_FRAMES_SENT),
        "client_frames_received": value(client.metrics,
                                        names.TRANSPORT_FRAMES_RECEIVED),
        "attempts": client.attempts,
        "pool_reused": value(client.metrics, names.POOL_CONNECTIONS_REUSED),
        "pool_created": value(client.metrics,
                              names.POOL_CONNECTIONS_CREATED),
    }


def _settled(server: NinfServer, client: NinfClient) -> dict:
    """The counts once the server has counted every reply it owes: it
    counts a RESULT frame once its write returns, which may be just
    after the client has read it."""
    deadline = time.monotonic() + 10.0
    while True:
        counts = _counts(server, client)
        if counts["server_frames_sent"] == counts["server_frames_received"] \
                or time.monotonic() > deadline:
            return counts
        time.sleep(0.01)


def test_null_calls_resolve_no_metric_and_count_exactly(monkeypatch):
    registry = Registry()
    registry.register(NOOP_IDL, lambda x, y: int(x) + 1)
    with NinfServer(registry, num_pes=1, name="cost") as server, \
            NinfClient(*server.address, timeout=10.0) as client:
        for i in range(5):  # warm: dialled, signature fetched, bound
            assert client.call("bench_noop", i, None) == [i + 1]
        before = _settled(server, client)
        lookups = []
        get_or_create = MetricsRegistry._get_or_create

        def counted(self, cls, name, *args, **kwargs):
            lookups.append(name)
            return get_or_create(self, cls, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "_get_or_create", counted)
        for i in range(CALLS):
            assert client.call("bench_noop", i, None) == [i + 1]
        monkeypatch.undo()
        assert lookups == []
        expected = dict(before)
        for key in ("server_frames_received", "server_frames_sent",
                    "calls_ok", "client_frames_sent",
                    "client_frames_received", "attempts", "pool_reused"):
            expected[key] += CALLS
        assert _settled(server, client) == expected
        # And STATS, the same registry on the wire, shows the calls.
        stats = client.fetch_stats()[names.SERVER_CALLS]["values"]
        assert [v["labels"] for v in stats] \
            == [{"function": "bench_noop", "status": "ok"}]
        assert stats[0]["value"] == CALLS + 5
