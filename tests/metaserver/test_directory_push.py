"""Directory push/lease/gossip semantics (DESIGN.md §3.7).

Everything runs on a virtual clock: leases, phi, and poll eligibility
are pure functions of the injected time source.
"""

from repro.metaserver.directory import Directory
from repro.protocol.messages import (
    DirectoryDelta,
    LoadReply,
    LoadReport,
    MessageType,
    ServerInfo,
    pack,
    unpack,
)


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def info(port=7000, functions=("f",)):
    return ServerInfo(name=f"s{port}", host="127.0.0.1", port=port,
                      num_pes=2, functions=tuple(functions))


def load(running=0, queued=0):
    return LoadReply(num_pes=2, running=running, queued=queued,
                     load_average=0.0, completed=0)


def report(seq, port=7000, lease=3.0, running=0):
    return LoadReport(info=info(port), load=load(running=running),
                      seq=seq, lease=lease)


def test_apply_report_registers_unknown_server():
    clock = Clock()
    directory = Directory(clock=clock)
    assert directory.apply_report(report(seq=1))
    entry = directory.get("127.0.0.1", 7000)
    assert entry is not None
    assert entry.seq == 1
    assert entry.alive
    assert entry.leased()


def test_apply_report_lww_rejects_stale():
    clock = Clock()
    directory = Directory(clock=clock)
    assert directory.apply_report(report(seq=5, running=1))
    # Equal or older seq is stale: a replayed/reordered beat never
    # regresses the entry.
    assert not directory.apply_report(report(seq=5, running=9))
    assert not directory.apply_report(report(seq=4, running=9))
    entry = directory.get("127.0.0.1", 7000)
    assert entry.seq == 5
    assert entry.load.running == 1
    assert directory.apply_report(report(seq=6, running=2))
    assert directory.get("127.0.0.1", 7000).load.running == 2


def test_restart_epoch_supersedes_old_incarnation():
    """seq = (epoch << 20) | counter: a restarted server's counter
    resets but its reports still win."""
    clock = Clock()
    directory = Directory(clock=clock)
    old = (1 << 20) | 500
    new = (2 << 20) | 1
    assert directory.apply_report(report(seq=old))
    assert directory.apply_report(report(seq=new))
    assert directory.get("127.0.0.1", 7000).seq == new


def test_lease_expiry_restores_poll_eligibility():
    clock = Clock()
    directory = Directory(clock=clock)
    directory.apply_report(report(seq=1, lease=3.0))
    # Leased: push is authoritative, the poller skips the entry.
    assert directory.poll_candidates() == []
    clock.t = 2.9
    assert directory.poll_candidates() == []
    # Lease lapsed: the pre-push polling fallback takes over.
    clock.t = 3.1
    assert len(directory.poll_candidates()) == 1


def test_registered_unleased_entry_is_always_poll_eligible():
    clock = Clock()
    directory = Directory(clock=clock)
    directory.register(info())
    assert len(directory.poll_candidates()) == 1
    entry = directory.get("127.0.0.1", 7000)
    assert not entry.leased()
    assert entry.seq == 0  # any pushed report supersedes it


def test_heartbeat_feeds_phi_detector():
    clock = Clock()
    directory = Directory(clock=clock)
    for beat in range(10):
        clock.t = float(beat)
        directory.apply_report(report(seq=beat + 1))
    entry = directory.get("127.0.0.1", 7000)
    assert entry.suspicion(9.0) == 0.0
    assert entry.suspicion(20.0) > 1.0
    assert entry.health_factor(9.0) == 1.0
    assert entry.health_factor(20.0) > 2.0


def test_deltas_carry_relative_lease():
    clock = Clock()
    directory = Directory(clock=clock)
    directory.apply_report(report(seq=1, lease=5.0))
    clock.t = 2.0
    (delta,) = directory.deltas()
    assert delta.seq == 1
    assert abs(delta.lease_remaining - 3.0) < 1e-9
    assert delta.alive


def test_merge_is_lww_and_reanchors_lease():
    src_clock, dst_clock = Clock(), Clock()
    src = Directory(clock=src_clock)
    dst = Directory(clock=dst_clock)
    src.apply_report(report(seq=3, lease=4.0))
    # The receiving replica's clock is wildly different: the relative
    # lease re-anchors locally, so skew cannot corrupt it.
    dst_clock.t = 1000.0
    assert dst.merge(src.deltas()) == 1
    entry = dst.get("127.0.0.1", 7000)
    assert entry.seq == 3
    assert entry.leased(1000.0 + 3.9)
    assert not entry.leased(1000.0 + 4.1)
    # Replaying the same batch is a no-op (idempotent anti-entropy).
    assert dst.merge(src.deltas()) == 0


def test_gossip_does_not_feed_phi():
    """Only real heartbeats are arrival evidence; second-hand gossip
    must not make a silent server look freshly alive."""
    clock = Clock()
    directory = Directory(clock=clock)
    delta = DirectoryDelta(info=info(), seq=7, lease_remaining=5.0,
                           alive=True, load=load())
    assert directory.apply_delta(delta)
    entry = directory.get("127.0.0.1", 7000)
    assert entry.detector.last_beat is None


def test_merge_bidirectional_convergence():
    a_clock, b_clock = Clock(), Clock()
    a, b = Directory(clock=a_clock), Directory(clock=b_clock)
    a.apply_report(report(seq=2, port=7000))
    b.apply_report(report(seq=9, port=7001))
    a.merge(b.deltas())
    b.merge(a.deltas())
    for d in (a, b):
        assert d.get("127.0.0.1", 7000).seq == 2
        assert d.get("127.0.0.1", 7001).seq == 9


# -- LoadReport signing -------------------------------------------------------

def test_load_report_sign_verify_roundtrip():
    secret = b"shared-secret"
    signed = report(seq=1).signed(secret)
    (decoded,) = unpack(MessageType.MS_HEARTBEAT,
                        pack(MessageType.MS_HEARTBEAT, signed))
    assert decoded == signed
    assert decoded.verify(secret)
    assert not decoded.verify(b"wrong-secret")
    # An unsecured deployment accepts anything.
    assert decoded.verify(None)
    assert report(seq=1).verify(None)


def test_load_report_tamper_detected():
    secret = b"shared-secret"
    signed = report(seq=1).signed(secret)
    forged = LoadReport(info=signed.info, load=signed.load, seq=99,
                        lease=signed.lease, signature=signed.signature)
    assert not forged.verify(secret)
