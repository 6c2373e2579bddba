"""Partition chaos: replica convergence, degraded mode, the ablation.

Live loopback metaservers with injected partitions (state-based, no
randomness) and a virtual clock, so every scenario is deterministic.
"""

import pytest

from repro.experiments.partition import partition_ablation
from repro.metaserver import MetaClient, Metaserver, PickCache
from repro.obs import MetricsRegistry, names
from repro.server import HeartbeatReporter, NinfServer, Registry
from repro.transport import CircuitBreaker, FaultPlan, PartitionMap

IDL = 'Define noop(mode_in int n) "does nothing";'


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _registry():
    registry = Registry()
    registry.register(IDL, lambda n: None)
    return registry


def test_partitioned_replica_converges_after_heal():
    """While one replica is cut off it misses beats; one post-heal
    gossip round brings it to the exact seq its peer holds."""
    clock = Clock()
    pmap = PartitionMap()
    with NinfServer(_registry(), num_pes=1) as worker:
        ms_a = Metaserver(poll_interval=3600.0, gossip_interval=3600.0,
                          clock=clock)
        ms_b = Metaserver(poll_interval=3600.0, gossip_interval=3600.0,
                          clock=clock)
        with ms_a, ms_b:
            addr_a, addr_b = ms_a.address, ms_b.address
            ms_a.peers, ms_b.peers = [addr_b], [addr_a]
            ms_a.dial = FaultPlan(partitions=pmap, src=addr_a).connector
            ms_b.dial = FaultPlan(partitions=pmap, src=addr_b).connector
            reporter = HeartbeatReporter(
                worker, [addr_a, addr_b], interval=1.0, epoch=1,
                dial=FaultPlan(partitions=pmap, src="server").connector)
            clock.t = 1.0
            assert reporter.beat_now() == 2  # both replicas learn it
            # Cut replica B off entirely; beats reach only A.
            pmap.isolate(addr_b)
            for t in range(2, 6):
                clock.t = float(t)
                assert reporter.beat_now() == 1
            # Gossip through the partition reaches nobody.
            assert ms_a.gossip_now() == 0
            assert ms_b.gossip_now() == 0
            seq_a = ms_a.directory.get(*worker.address).seq
            seq_b = ms_b.directory.get(*worker.address).seq
            assert seq_b < seq_a  # B is behind, holding the t=1 beat
            # Heal; one anti-entropy round converges both directions.
            pmap.heal()
            assert ms_b.gossip_now() == 1
            assert ms_b.directory.get(*worker.address).seq == seq_a


def test_metaserver_restart_converges_from_peer():
    """Satellite: a restarted (blank) replica rebuilds its directory
    from whichever peer it reaches first -- nobody re-registers."""
    clock = Clock()
    with NinfServer(_registry(), num_pes=1) as worker:
        ms_a = Metaserver(poll_interval=3600.0, gossip_interval=3600.0,
                          clock=clock)
        with ms_a:
            addr_a = ms_a.address
            reporter = HeartbeatReporter(worker, [addr_a], interval=1.0,
                                         epoch=1)
            for t in range(1, 4):
                clock.t = float(t)
                assert reporter.beat_now() == 1
            survivor_seq = ms_a.directory.get(*worker.address).seq
            # "Restart": a brand-new replica process, empty directory,
            # peered with the survivor.
            ms_b = Metaserver(poll_interval=3600.0,
                              gossip_interval=3600.0, clock=clock,
                              peers=[addr_a])
            # Checked before start(): a peered replica's gossip thread
            # runs its first round as soon as it exists.
            assert len(ms_b.directory) == 0
            with ms_b:
                ms_a.peers = [ms_b.address]
                assert ms_b.gossip_now() == 1
                entry = ms_b.directory.get(*worker.address)
                assert entry is not None
                assert entry.seq == survivor_seq
                assert entry.alive
                # The rebuilt replica answers MS_PICK on its own.
                with MetaClient(*ms_b.address) as meta:
                    assert meta.pick("noop").port == worker.address[1]
                # Next beats land on both again (fan-out is idempotent).
                reporter.metaservers.append(ms_b.address)
                clock.t = 4.0
                assert reporter.beat_now() == 2
                assert (ms_a.directory.get(*worker.address).seq
                        == ms_b.directory.get(*worker.address).seq)


def test_degraded_mode_serves_stale_and_recovers():
    clock = Clock()
    pmap = PartitionMap()
    metrics = MetricsRegistry()
    with NinfServer(_registry(), num_pes=1) as worker:
        ms = Metaserver(poll_interval=3600.0, clock=clock)
        with ms:
            addr = ms.address
            reporter = HeartbeatReporter(worker, [addr], interval=1.0,
                                         epoch=1)
            clock.t = 1.0
            reporter.beat_now()
            meta = MetaClient(
                replicas=[addr],
                breaker=CircuitBreaker(threshold=1, cooldown=1.0,
                                       clock=clock),
                cache=PickCache(ttl=2.0, clock=clock),
                metrics=metrics,
                fault_plan=FaultPlan(partitions=pmap, src="client"))
            cache_metric = metrics.counter(names.CLIENT_PICK_CACHE,
                                           labelnames=("result",))
            gauge = metrics.gauge(names.CLIENT_DEGRADED)
            with meta:
                # Wire pick populates the cache.
                assert meta.pick("noop").port == worker.address[1]
                assert cache_metric.value(result="refresh") == 1.0
                assert not meta.degraded
                # Fresh hits never touch the wire.
                assert meta.pick("noop").port == worker.address[1]
                assert cache_metric.value(result="fresh") == 1.0
                # Partition the client; age the cache past its TTL.
                pmap.isolate("client")
                clock.t = 5.0
                chosen = meta.pick("noop")
                assert chosen.port == worker.address[1]
                assert meta.degraded
                assert gauge.value() == 1.0
                assert cache_metric.value(result="degraded") == 1.0
                # Still pinned across repeated degraded picks.
                meta.pick("noop")
                assert gauge.value() == 1.0
                # Heal; past the breaker cooldown the next pick
                # revalidates over the wire and clears the gauge.
                pmap.heal()
                clock.t = 8.0
                assert meta.pick("noop").port == worker.address[1]
                assert not meta.degraded
                assert gauge.value() == 0.0
                assert cache_metric.value(result="refresh") == 2.0


def test_degraded_pick_without_cache_fails():
    """No cache, no degraded mode: the partition surfaces as an error."""
    pmap = PartitionMap()
    with NinfServer(_registry(), num_pes=1) as worker:
        ms = Metaserver(poll_interval=3600.0)
        with ms:
            reporter = HeartbeatReporter(worker, [ms.address],
                                         interval=1.0, epoch=1)
            reporter.beat_now()
            meta = MetaClient(
                replicas=[ms.address],
                breaker=CircuitBreaker(threshold=1, cooldown=60.0),
                fault_plan=FaultPlan(partitions=pmap, src="client"))
            with meta:
                assert meta.pick("noop").port == worker.address[1]
                pmap.isolate("client")
                with pytest.raises(OSError):
                    meta.pick("noop")


@pytest.mark.slow
def test_partition_ablation_acceptance():
    """The PR's acceptance bar: replicated+cached holds >= 95% pick
    availability through the partition window while the single-replica
    baseline visibly degrades; every cell converges after heal."""
    single, replicated, degraded = partition_ablation(steps=120)
    assert single.config == "single"
    assert replicated.config == "replicated"
    assert degraded.config == "replicated+degraded"
    # Replication + cache ride out one partitioned replica.
    assert replicated.availability >= 0.95
    # Total client cut-off: stale-while-revalidate keeps picks flowing.
    assert degraded.availability >= 0.95
    assert degraded.picks_degraded > 0
    # The baseline visibly loses the partition window.
    assert single.availability <= replicated.availability - 0.15
    # Partitions actually dropped traffic, deterministically.
    for cell in (single, replicated, degraded):
        assert cell.partition_drops > 0
        assert cell.converged
        assert cell.heartbeats_accepted > 0
