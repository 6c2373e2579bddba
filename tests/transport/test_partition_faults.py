"""Deterministic partition injection (DESIGN.md §3.7).

A :class:`PartitionMap` is *state*, not a draw: blocked edges fail
dials and frames deterministically and consume none of the owning
:class:`FaultPlan`'s RNG, so a seeded chaos schedule is byte-identical
with or without partitions active.

Each plan-integration test runs on the blocking channel
(``plan.connector``) and, as its ``_async`` twin, on the asyncio one
(``aconnect_with_faults``): both apply the plan's one fault step.
"""

import asyncio
import threading

import pytest

from repro.obs import MetricsRegistry, names
from repro.protocol.errors import ConnectionClosed
from repro.protocol.messages import MessageType
from repro.server import NinfServer, Registry
from repro.transport import FaultPlan, PartitionMap, aconnect_with_faults

IDL = 'Define noop(mode_in int n) "does nothing";'


def build_registry():
    registry = Registry()
    registry.register(IDL, lambda n: None)
    return registry


@pytest.fixture
def server():
    with NinfServer(build_registry(), num_pes=1) as srv:
        yield srv


def sync_dial(plan, host, port):
    return plan.connector(host, port, timeout=2.0)


class LoopChannel:
    """An :class:`AsyncFaultyChannel` run to completion, call by call,
    on a loop of this thread: the blocking channel's methods over the
    asyncio driver."""

    def __init__(self, loop, plan, host, port):
        self.loop = loop
        self.channel = loop.run_until_complete(
            aconnect_with_faults(plan, host, port, timeout=2.0))

    def send(self, *args, **kwargs):
        return self.loop.run_until_complete(self.channel.send(*args, **kwargs))

    def recv(self, *args, **kwargs):
        return self.loop.run_until_complete(self.channel.recv(*args, **kwargs))

    def request(self, *args, **kwargs):
        return self.loop.run_until_complete(
            self.channel.request(*args, **kwargs))

    def close(self):
        self.channel.close()
        self.loop.run_until_complete(asyncio.sleep(0))  # let it finish

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture
def loop_dial():
    loop = asyncio.new_event_loop()
    try:
        yield lambda plan, host, port: LoopChannel(loop, plan, host, port)
    finally:
        loop.close()


# -- the map itself -----------------------------------------------------------

def test_partition_map_directional():
    pmap = PartitionMap()
    pmap.block("a", "b")
    assert pmap.is_blocked("a", "b")
    # Directionality: the reverse edge stays up (gray/asymmetric cut).
    assert not pmap.is_blocked("b", "a")
    pmap.unblock("a", "b")
    assert not pmap.is_blocked("a", "b")


def test_partition_map_wildcards():
    pmap = PartitionMap()
    pmap.block("a", "*")
    assert pmap.is_blocked("a", ("h", 1))
    assert pmap.is_blocked("a", "anything")
    assert not pmap.is_blocked("b", "a")
    pmap.heal()
    pmap.block("*", ("h", 1))
    assert pmap.is_blocked("whoever", ("h", 1))
    assert not pmap.is_blocked("whoever", ("h", 2))


def test_partition_map_isolate_and_heal():
    pmap = PartitionMap()
    pmap.isolate("victim")
    # Both directions are cut.
    assert pmap.is_blocked("victim", ("h", 9))
    assert pmap.is_blocked("other", "victim")
    # Unrelated traffic still flows.
    assert not pmap.is_blocked("other", ("h", 9))
    pmap.heal()
    assert not pmap.is_blocked("victim", ("h", 9))
    assert not pmap.is_blocked("other", "victim")


def test_partition_map_counts_drops():
    pmap = PartitionMap()
    pmap.record_drop("a", "b")
    pmap.record_drop("a", "b")
    pmap.record_drop("c", "d")
    assert pmap.drops[("a", "b")] == 2
    assert pmap.drops_total == 3


def test_partition_map_thread_safety():
    pmap = PartitionMap()
    errors = []

    def hammer(label):
        try:
            for _ in range(500):
                pmap.block(label, "*")
                pmap.is_blocked(label, ("h", 1))
                pmap.record_drop(label, ("h", 1))
                pmap.unblock(label, "*")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(f"t{i}",))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert pmap.drops_total == 4 * 500


# -- plan integration ---------------------------------------------------------

def test_partitioned_dial_refused(server, dial=sync_dial):
    host, port = server.address
    pmap = PartitionMap()
    plan = FaultPlan(partitions=pmap, src="client")
    pmap.isolate("client")
    with pytest.raises(ConnectionRefusedError, match=r"\[partition\]"):
        dial(plan, host, port)
    assert pmap.drops_total == 1
    # Healing restores the dial immediately.
    pmap.heal()
    with dial(plan, host, port) as channel:
        channel.request(MessageType.PING, expect=MessageType.PONG)


def test_partitioned_dial_refused_async(server, loop_dial):
    test_partitioned_dial_refused(server, dial=loop_dial)


def test_partition_cuts_established_channel(server, dial=sync_dial):
    """A partition that lands mid-connection kills in-flight frames."""
    host, port = server.address
    pmap = PartitionMap()
    plan = FaultPlan(partitions=pmap, src="client")
    with dial(plan, host, port) as channel:
        channel.request(MessageType.PING, expect=MessageType.PONG)
        pmap.block("client", (host, port))
        with pytest.raises(ConnectionResetError, match=r"\[partition\]"):
            channel.send(MessageType.PING)


def test_partition_cuts_established_channel_async(server, loop_dial):
    test_partition_cuts_established_channel(server, dial=loop_dial)


def test_partition_recv_side(server, dial=sync_dial):
    host, port = server.address
    pmap = PartitionMap()
    plan = FaultPlan(partitions=pmap, src="client")
    with dial(plan, host, port) as channel:
        channel.send(MessageType.PING)
        pmap.isolate("client")
        with pytest.raises(ConnectionClosed, match=r"\[partition\]"):
            channel.recv(timeout=2.0)


def test_partition_recv_side_async(server, loop_dial):
    test_partition_recv_side(server, dial=loop_dial)


def test_partition_consumes_no_rng(server, dial=sync_dial):
    """The acceptance property: equal seeds produce equal fault
    schedules whether or not a partition fired in between."""
    host, port = server.address

    def drive(with_partition):
        pmap = PartitionMap()
        plan = FaultPlan(seed=7, rate=0.5, partitions=pmap, src="client")
        if with_partition:
            pmap.isolate("client")
            for _ in range(5):  # partitioned dials: dropped, no draw
                with pytest.raises(ConnectionRefusedError):
                    dial(plan, host, port)
            pmap.heal()
        for _ in range(20):  # the seeded schedule proper
            try:
                channel = dial(plan, host, port)
            except ConnectionRefusedError:
                continue
            try:
                channel.request(MessageType.PING,
                                expect=MessageType.PONG)
            except (OSError, ConnectionClosed):
                pass
            finally:
                channel.close()
        return plan.schedule()

    assert drive(False) == drive(True)


def test_partition_consumes_no_rng_async(server, loop_dial):
    test_partition_consumes_no_rng(server, dial=loop_dial)


def test_partition_drop_metric(server, dial=sync_dial):
    host, port = server.address
    pmap = PartitionMap()
    plan = FaultPlan(partitions=pmap, src="client")
    registry = MetricsRegistry()
    plan.metrics = registry
    pmap.isolate("client")
    with pytest.raises(ConnectionRefusedError):
        dial(plan, host, port)
    metric = registry.counter(names.FAULTS_PARTITION_DROPS)
    assert metric.value() == 1.0


def test_partition_drop_metric_async(server, loop_dial):
    test_partition_drop_metric(server, dial=loop_dial)
