"""Integration tests: metaserver brokering and transactions."""

import numpy as np
import pytest

from repro.client import NinfClient
from repro.client.transaction import Transaction, TransactionError
from repro.libs.ep import ep_kernel
from repro.metaserver import (
    BandwidthAwareScheduler,
    BrokeredClient,
    LoadScheduler,
    MetaClient,
    Metaserver,
)
from repro.protocol.errors import RemoteError
from repro.protocol.messages import LoadReply, ServerInfo
from repro.server import NinfServer
from tests.rpc.conftest import build_registry


@pytest.fixture
def fleet():
    """Two computational servers plus a metaserver, all registered."""
    servers = [NinfServer(build_registry(), num_pes=2, name=f"srv{i}").start()
               for i in range(2)]
    meta = Metaserver(poll_interval=30.0).start()
    meta_client = MetaClient(*meta.address)
    for server in servers:
        meta_client.register_server(server)
    yield servers, meta, meta_client
    meta.stop()
    for server in servers:
        server.stop()


def test_register_and_lookup(fleet):
    servers, meta, meta_client = fleet
    providers = meta_client.lookup("dmmul")
    assert len(providers) == 2
    assert {p.name for p in providers} == {"srv0", "srv1"}
    assert meta_client.lookup("nonexistent") == []


def test_list_servers(fleet):
    _, _, meta_client = fleet
    assert len(meta_client.list_servers()) == 2


def test_unregister(fleet):
    servers, meta, meta_client = fleet
    host, port = servers[0].address
    meta_client.unregister(host, port)
    assert len(meta_client.lookup("dmmul")) == 1


def test_pick_no_provider_raises(fleet):
    _, _, meta_client = fleet
    with pytest.raises(RemoteError) as excinfo:
        meta_client.pick("nonexistent")
    assert excinfo.value.code == "no-provider"


def test_pick_prefers_lightly_loaded(fleet):
    servers, meta, meta_client = fleet
    # Make srv0 look busy.
    host0, port0 = servers[0].address
    meta.directory.update_load(
        host0, port0,
        LoadReply(num_pes=2, running=2, queued=10, load_average=6.0,
                  completed=0),
    )
    host1, port1 = servers[1].address
    meta.directory.update_load(
        host1, port1,
        LoadReply(num_pes=2, running=0, queued=0, load_average=0.0,
                  completed=0),
    )
    chosen = meta_client.pick("dmmul")
    assert (chosen.host, chosen.port) == (host1, port1)


def test_monitor_polls_real_load(fleet):
    servers, meta, meta_client = fleet
    meta.poll_now()
    for entry in meta.directory.entries():
        assert entry.load is not None
        assert entry.load.num_pes == 2


def test_dead_server_marked(fleet):
    servers, meta, meta_client = fleet
    host, port = servers[0].address
    servers[0].stop()
    meta.poll_now()
    entry = meta.directory.get(host, port)
    assert entry is not None and not entry.alive
    # Dead servers are not offered as providers.
    assert all(p.name != "srv0" for p in meta_client.lookup("dmmul"))


def test_brokered_call(fleet):
    _, _, meta_client = fleet
    rng = np.random.default_rng(0)
    n = 8
    a = rng.standard_normal((n, n))
    with BrokeredClient(meta_client, site="lab") as broker:
        (c,) = broker.call("dmmul", n, a, a, None)
        np.testing.assert_allclose(c, a @ a, rtol=1e-12)
        assert len(broker.records) == 1
        info, record = broker.records[0]
    # The achieved bandwidth was reported back: it rides the next pick,
    # or, with no next call, the flush in close().
    entry = [e for e in _entries(fleet) if e.key == (info.host, info.port)][0]
    assert "lab" in entry.bandwidth_by_site


def _entries(fleet):
    _, meta, _ = fleet
    return meta.directory.entries()


def test_brokered_calls_spread_by_load(fleet):
    servers, meta, meta_client = fleet
    assert isinstance(meta.scheduler, LoadScheduler)
    rng = np.random.default_rng(1)
    used = set()
    with BrokeredClient(meta_client) as broker:
        for i in range(6):
            # Refresh load between calls so the scheduler sees changes.
            meta.poll_now()
            a = rng.standard_normal((4, 4))
            broker.call("dmmul", 4, a, a, None)
            used.add(broker.records[-1][0].name)
    assert used  # at least one server used; both reachable


def test_bandwidth_aware_scheduler_prefers_fast_link():
    scheduler = BandwidthAwareScheduler(per_pe_rate=1e9,
                                        default_bandwidth=1e6)
    from repro.metaserver.directory import Directory

    directory = Directory()
    near = directory.register(ServerInfo("near", "10.0.0.1", 1, 4, ("f",)))
    far = directory.register(ServerInfo("far", "10.0.0.2", 1, 4, ("f",)))
    near.note_bandwidth("site", 5e6)
    far.note_bandwidth("site", 0.05e6)  # WAN-grade link
    from repro.metaserver.schedulers import CallEstimate

    # Communication-heavy call: must go to the well-connected server
    # even if the far server is idle.
    estimate = CallEstimate("f", comm_bytes=8e6, flops=1e6, site="site")
    assert scheduler.choose([near, far], estimate).info.name == "near"
    # Compute-dominant call with a busy near server: far can win.
    near.load = LoadReply(num_pes=4, running=4, queued=40,
                          load_average=44.0, completed=0)
    far.load = LoadReply(num_pes=4, running=0, queued=0,
                         load_average=0.0, completed=0)
    estimate = CallEstimate("f", comm_bytes=1e3, flops=5e11, site="site")
    assert scheduler.choose([near, far], estimate).info.name == "far"


# ------------------------------------------------------------- transactions


def test_transaction_parallel_ep(fleet):
    """The Fig 11 pattern: task-parallel EP via a transaction."""
    servers, _, _ = fleet
    clients = [NinfClient(*s.address) for s in servers]
    m, p = 12, 4
    q = 2**m // p
    try:
        with clients[0].transaction(peers=clients[1:]) as txn:
            handles = [txn.call("ep", m, i * q, q, None, None, None)
                       for i in range(p)]
        total_accepted = sum(h.result()[0] for h in handles)
        total_sx = sum(h.result()[1] for h in handles)
        reference = ep_kernel(m)
        assert total_accepted == reference.accepted
        assert total_sx == pytest.approx(reference.sx, rel=1e-9)
        # Calls were spread over both servers.
        assert {id(h.server) for h in handles} == {id(c) for c in clients}
    finally:
        for c in clients:
            c.close()


def test_transaction_respects_dependencies(fleet):
    """C = A@B then D = C@C: second call must see the first's output."""
    servers, _, _ = fleet
    client = NinfClient(*servers[0].address)
    rng = np.random.default_rng(2)
    n = 6
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    c = np.zeros((n, n))
    d = np.zeros((n, n))
    try:
        with client.transaction() as txn:
            first = txn.call("dmmul", n, a, b, c)
            second = txn.call("dmmul", n, c, c, d)
        assert second.depends_on == {0}
        np.testing.assert_allclose(c, a @ b, rtol=1e-10)
        np.testing.assert_allclose(d, (a @ b) @ (a @ b), rtol=1e-9)
    finally:
        client.close()


def test_transaction_anti_dependency_orders_writes(fleet):
    """Reading A then overwriting A must not race."""
    servers, _, _ = fleet
    client = NinfClient(*servers[0].address)
    n = 4
    a = np.eye(n)
    out1 = np.zeros((n, n))
    try:
        with client.transaction() as txn:
            txn.call("dmmul", n, a, a, out1)   # reads a
            second = txn.call("dmmul", n, out1, out1, a)  # writes a
        assert second.depends_on == {0}
    finally:
        client.close()


def test_transaction_independent_calls_have_no_deps(fleet):
    servers, _, _ = fleet
    client = NinfClient(*servers[0].address)
    n = 4
    try:
        with client.transaction() as txn:
            h1 = txn.call("dmmul", n, np.eye(n), np.eye(n), np.zeros((n, n)))
            h2 = txn.call("dmmul", n, np.ones((n, n)), np.eye(n),
                          np.zeros((n, n)))
        assert h1.depends_on == set()
        assert h2.depends_on == set()
    finally:
        client.close()


def test_transaction_failure_raises_and_skips_dependents(fleet):
    servers, _, _ = fleet
    client = NinfClient(*servers[0].address)
    n = 4
    a = np.eye(n)
    out = np.zeros((n, n))
    try:
        txn = Transaction([client])
        txn.call("always_fails", 3)
        ok = txn.call("dmmul", n, a, a, out)
        with pytest.raises(TransactionError):
            txn.execute()
        # The independent call still succeeded.
        assert ok.error is None
        np.testing.assert_allclose(out, a, rtol=1e-12)
    finally:
        client.close()


def test_transaction_needs_server():
    with pytest.raises(ValueError):
        Transaction([])


def test_transaction_cannot_rerun(fleet):
    servers, _, _ = fleet
    client = NinfClient(*servers[0].address)
    try:
        txn = Transaction([client])
        txn.execute()
        with pytest.raises(RuntimeError):
            txn.execute()
        with pytest.raises(RuntimeError):
            txn.call("dmmul", 1, np.eye(1), np.eye(1), None)
    finally:
        client.close()
