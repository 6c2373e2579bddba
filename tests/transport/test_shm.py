"""Shared-memory transport: ring semantics, framing parity, negotiation.

The contract under test is PROTOCOL.md §"Shared-memory handshake": an
:class:`~repro.transport.ShmRing` pair carries the *same* framed bytes
as a TCP socket (CRC rejection and EOF semantics included), the
upgrade is negotiated in-band over SHM_HELLO/SHM_HELLO_REPLY with
silent TCP fallback on refusal, and injected faults surface the same
exceptions on both media.

The cross-process stress at the bottom is the regression test for a
real race: the ring's control words were originally read through
``struct.unpack_from``, which assembles multi-byte values one byte at
a time -- a counter being advanced by the peer process could be
observed *torn* (a mix of old and new bytes), breaking the ring
invariants and corrupting the stream far downstream.  The words are
now accessed only through a ``memoryview.cast("Q")`` view (one aligned
machine load/store); ``test_control_words_are_single_word_access``
pins the mechanism and ``test_cross_process_stream_integrity`` pins
the behaviour.
"""

import glob
import hashlib
import multiprocessing
import threading

import pytest

from repro.obs import names
from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    TimeoutError,
)
from repro.protocol.framing import encode_header
from repro.protocol.messages import MessageType
from repro.server import NinfServer
from repro.transport import Endpoint, FaultPlan, ShmRing, ShmTransport, connect
from repro.transport.faults import CORRUPT
from repro.transport.shm import is_local_host, shm_enabled
from tests.rpc.conftest import build_registry

CAP = 1 << 14  # small rings so every test exercises wrap-around


@pytest.fixture
def ring():
    r = ShmRing.create(CAP)
    yield r
    r.close()


# -- ring byte semantics ---------------------------------------------------


def test_ring_roundtrip_and_attach(ring):
    peer = ShmRing.attach(ring.name, CAP)
    try:
        ring.write(b"hello shm")
        assert bytes(peer.read_exact(9)) == b"hello shm"
        assert peer.readable() == 0
    finally:
        peer.close()


def test_attach_rejects_undersized_segment(ring):
    with pytest.raises(ProtocolError):
        ShmRing.attach(ring.name, CAP * 16)


def test_ring_streams_payloads_larger_than_capacity(ring):
    """A frame bigger than the ring flows in pieces while the reader
    drains -- capacity bounds memory, not message size."""
    payload = (bytes(range(256)) * 1024)[: CAP * 5 + 37]
    writer = threading.Thread(target=ring.write, args=(payload,))
    writer.start()
    try:
        got = ring.read_exact(len(payload))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert bytes(got) == payload


def test_ring_wraparound_odd_chunks(ring):
    """Many unaligned writes cross the wrap point at every offset."""
    chunks = [bytes([i % 256]) * 37 for i in range(600)]  # >1 capacity

    def pump():
        for chunk in chunks:
            ring.write(chunk)

    writer = threading.Thread(target=pump)
    writer.start()
    try:
        got = ring.read_exact(sum(len(c) for c in chunks))
    finally:
        writer.join(timeout=10)
    assert bytes(got) == b"".join(chunks)


def test_reader_drains_buffered_bytes_then_eof(ring):
    ring.write(b"last words")
    ring.mark_closed()
    assert bytes(ring.read_exact(10)) == b"last words"
    with pytest.raises(ConnectionClosed):
        ring.read_exact(1)


def test_writer_fails_fast_on_closed_ring(ring):
    ring.mark_closed()
    with pytest.raises(ConnectionClosed):
        ring.write(b"x")


def test_read_deadline_expires(ring):
    import time
    with pytest.raises(TimeoutError):
        ring.read_exact(1, deadline=time.monotonic() + 0.05)


def test_write_deadline_expires_on_full_ring(ring):
    import time
    ring.write(bytes(CAP))  # fill it exactly
    with pytest.raises(TimeoutError):
        ring.write(b"x", deadline=time.monotonic() + 0.05)


def test_detached_ring_raises_connection_closed(ring):
    peer = ShmRing.attach(ring.name, CAP)
    peer.close()
    with pytest.raises(ConnectionClosed):
        peer.write(b"x")
    with pytest.raises(ConnectionClosed):
        peer.read_exact(1)


def test_control_words_are_single_word_access(ring):
    """Regression pin: control words must be read/written through a
    u64-cast memoryview (single aligned load/store), never assembled
    byte-by-byte -- the torn-read bug this file's docstring describes."""
    assert ring._ctrl.format == "Q"
    assert ring._ctrl.itemsize == 8
    assert len(ring._ctrl) * 8 >= 24  # write_pos, read_pos, closed
    ring.write(b"abcd")
    assert ring._ctrl[0] == 4   # write_pos advanced ...
    assert ring._ctrl[1] == 0   # ... read_pos untouched
    ring.read_exact(4)
    assert ring._ctrl[1] == 4


# -- framed I/O over rings: byte-parity with TCP framing -------------------


def transport_pair():
    a2b, b2a = ShmRing.create(CAP), ShmRing.create(CAP)
    a = ShmTransport(send_ring=a2b, recv_ring=b2a)
    b = ShmTransport(send_ring=b2a, recv_ring=a2b)
    return a, b


def test_transport_frame_roundtrip():
    a, b = transport_pair()
    try:
        a.send_frame(MessageType.PING, b"payload")
        assert b.recv_frame() == (MessageType.PING, b"payload")
        b.send_frame(MessageType.PONG)
        assert a.recv_frame() == (MessageType.PONG, b"")
    finally:
        a.close()


def test_transport_streams_large_frames():
    a, b = transport_pair()
    payload = bytes(range(256)) * (CAP // 32)  # 8x ring capacity
    sender = threading.Thread(
        target=a.send_frame, args=(MessageType.CALL, payload))
    sender.start()
    try:
        assert b.recv_frame(timeout=10) == (MessageType.CALL, payload)
    finally:
        sender.join(timeout=10)
        a.close()


def test_transport_rejects_corrupted_frame():
    """A flipped payload byte fails the CRC exactly like TCP framing."""
    a, b = transport_pair()
    try:
        frame = bytearray(encode_header(MessageType.PING, b"payload"))
        frame += b"paYload"  # corrupted relative to the header's CRC
        a.sendall(bytes(frame))
        with pytest.raises(ProtocolError, match="checksum"):
            b.recv_frame()
    finally:
        a.close()


def test_transport_rejects_bad_magic():
    a, b = transport_pair()
    try:
        a.sendall(b"BOGUS-HEADER-16B")
        with pytest.raises(ProtocolError, match="magic"):
            b.recv_frame()
    finally:
        a.close()


def test_transport_healthy_tracks_peer_close():
    a, b = transport_pair()
    assert a.healthy() and b.healthy()
    b.close()
    assert not a.healthy()
    a.close()


# -- negotiation over a live endpoint --------------------------------------


def test_connect_upgrades_to_shm_and_keeps_working():
    with Endpoint(shm=True) as ep:
        channel = connect(*ep.address, shm=True)
        try:
            assert channel.via_shm
            for _ in range(3):  # frames flow over the rings
                _type, _ = channel.request(
                    MessageType.PING, expect=MessageType.PONG, timeout=5.0)
        finally:
            channel.close()
        assert ep.metrics.counter(names.SHM_UPGRADES).value() == 1


def test_connect_falls_back_when_server_refuses():
    with Endpoint(shm=False) as ep:
        channel = connect(*ep.address, shm=True)
        try:
            assert not channel.via_shm  # refused -> silent TCP fallback
            channel.request(MessageType.PING, expect=MessageType.PONG,
                            timeout=5.0)
        finally:
            channel.close()
        assert ep.metrics.counter(
            names.SHM_FALLBACKS,
            labelnames=("reason",)).value(reason="disabled") == 1


def test_env_opt_out_skips_negotiation(monkeypatch):
    monkeypatch.setenv("NINF_SHM", "0")
    assert not shm_enabled()
    assert shm_enabled(True)  # the explicit flag beats the environment
    with Endpoint(shm=True) as ep:
        channel = connect(*ep.address, shm=None)  # auto: env says no
        try:
            assert not channel.via_shm
        finally:
            channel.close()


def test_is_local_host():
    assert is_local_host("127.0.0.1")
    assert is_local_host("localhost")
    assert not is_local_host("ninf.example.org")


def test_client_offers_shm_only_when_asked():
    """A default ``NinfClient`` never sends SHM_HELLO, even to a local
    shm-enabled server (perf/ counts on exactly that); ``shm=True``
    upgrades its one pooled connection exactly once."""
    from repro.client import NinfClient

    def counts(server):
        snapshot = server.metrics.snapshot()
        return tuple(sum(v["value"] for v in snapshot[name]["values"])
                     if name in snapshot else 0
                     for name in (names.SHM_UPGRADES, names.SHM_FALLBACKS))

    with NinfServer(build_registry(), num_pes=1) as server:
        with NinfClient(*server.address, timeout=5.0) as client:
            assert client.ping() and "dmmul" in client.list_functions()
        assert counts(server) == (0, 0)
        with NinfClient(*server.address, timeout=5.0, shm=True) as client:
            assert client.ping() and "dmmul" in client.list_functions()
        assert counts(server) == (1, 0)


def test_stop_releases_the_rings_of_a_connection_still_open():
    """``stop()`` ends and joins its connection threads: the rings of a
    client that is still connected are closed and unlinked by their
    owning thread before ``stop`` returns (they used to outlive it, to
    be reaped by the resource tracker at process exit)."""
    from repro.client import NinfClient

    def segments():
        return set(glob.glob("/dev/shm/psm_*"))

    before = segments()
    threads_before = set(threading.enumerate())
    server = NinfServer(build_registry(), num_pes=1).start()
    client = NinfClient(*server.address, shm=True,
                        timeout=5.0)
    try:
        assert "dmmul" in client.list_functions()
        assert server.metrics.counter(names.SHM_UPGRADES).value() == 1
        assert len(segments() - before) == 2  # c2s + s2c, pooled and open
        server.stop()
        assert segments() - before == set()
        left = [t for t in set(threading.enumerate()) - threads_before
                if t.name.endswith("-conn") or not t.daemon]
        assert left == []
    finally:
        client.close()
        server.stop()


# -- fault injection parity (the chaos contract) ---------------------------


def test_corrupt_fault_over_shm_is_rejected_by_crc():
    """CORRUPT over the rings surfaces exactly like CORRUPT over TCP:
    the peer's CRC rejects the frame, the connection burns, the next
    call re-dials (and re-upgrades) cleanly."""
    from repro.client import NinfClient

    plan = FaultPlan(seed=7, rate=1.0, kinds=(CORRUPT,), max_faults=1)
    with NinfServer(build_registry(), num_pes=1) as server:
        with NinfClient(*server.address, shm=True,
                        timeout=5.0, fault_plan=plan) as client:
            with pytest.raises((ProtocolError, ConnectionClosed, OSError)):
                client.list_functions()
            assert "dmmul" in client.list_functions()
        upgrades = server.metrics.counter(names.SHM_UPGRADES).value()
        assert upgrades >= 1
    assert plan.injected == {CORRUPT: 1}


# -- cross-process integrity (the torn-counter regression) -----------------


def _pump_child(c2s_name: str, s2c_name: str, capacity: int,
                total: int) -> None:
    """Child side of the stress: drain ``total`` bytes, answer with the
    SHA-256 of what actually arrived."""
    c2s = ShmRing.attach(c2s_name, capacity)
    s2c = ShmRing.attach(s2c_name, capacity)
    try:
        digest = hashlib.sha256()
        got = 0
        while got < total:
            chunk = c2s.read_exact(min(1 << 16, total - got))
            digest.update(chunk)
            got += len(chunk)
        s2c.write(digest.digest())
    finally:
        c2s.close()
        s2c.close()


def test_cross_process_stream_integrity():
    """Push well past the 64-bit-counter wrap granularity of a tiny ring
    from another process and verify every byte arrived in order.  With
    torn counter reads this corrupted the stream (observed as slice
    length mismatches and checksum failures); with single-word access
    it must be bit-perfect every time."""
    capacity = 1 << 16
    total = 16 << 20  # 16 MiB through a 64 KiB ring: ~256 full wraps
    c2s = ShmRing.create(capacity)
    s2c = ShmRing.create(capacity)
    context = multiprocessing.get_context("spawn")
    proc = context.Process(
        target=_pump_child,
        args=(c2s.name, s2c.name, capacity, total), daemon=True)
    proc.start()
    try:
        pattern = (bytes(range(256)) * 512)  # 128 KiB tile
        digest = hashlib.sha256()
        sent = 0
        while sent < total:
            chunk = pattern[: min(len(pattern), total - sent)]
            c2s.write(chunk, deadline=None)
            digest.update(chunk)
            sent += len(chunk)
        import time
        echoed = s2c.read_exact(32, deadline=time.monotonic() + 30)
        assert bytes(echoed) == digest.digest()
    finally:
        proc.join(timeout=30)
        if proc.is_alive():  # pragma: no cover - stuck child
            proc.terminate()
            proc.join()
        c2s.close()
        s2c.close()
    assert proc.exitcode == 0
