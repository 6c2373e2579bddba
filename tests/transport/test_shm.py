"""Shared-memory transport: ring semantics, framing parity, negotiation.

The contract under test is PROTOCOL.md §"Shared-memory handshake": an
:class:`~repro.transport.ShmRing` pair carries frames with the TCP
header layout whose ``crc`` word covers the header only (a
desynchronised ring is rejected, with TCP's EOF semantics; a payload
byte is never checked), the upgrade is negotiated in-band over
SHM_HELLO/SHM_HELLO_REPLY -- ring format named both ways -- with silent
TCP fallback on refusal and a redial on a handshake that dies half-way,
and injected faults surface the same exceptions on both media.

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

import contextlib
import glob
import hashlib
import multiprocessing
import random
import socket
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import names
from repro.protocol import framing
from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    TimeoutError,
)
from repro.protocol.messages import MessageType
from repro.server import NinfServer
from repro.transport import Channel, Endpoint, FaultPlan, ShmRing, \
    ShmTransport, connect
from repro.transport import shm as shm_mod
from repro.transport.faults import CORRUPT, DROP_POST, TRUNCATE, _corrupt
from repro.transport.shm import RING_FORMAT, negotiate
from repro.xdr import XdrEncoder
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
    with pytest.raises(TimeoutError):
        ring.read_exact(1, deadline=time.monotonic() + 0.05)


def test_write_deadline_expires_on_full_ring(ring):
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


# -- framed I/O over rings: TCP's header layout, the ring's own check ------


def transport_pair(capacity=CAP):
    a2b, b2a = ShmRing.create(capacity), ShmRing.create(capacity)
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
    """A flipped *header* byte (here: of the type word) fails the ring's
    CRC with the error TCP framing raises.  A ring payload byte is
    outside the ring's fault model -- the ``crc`` word does not cover
    it, no pass is made over it, and flipping one goes unnoticed: that
    is the format, shown by the first frame."""
    a, b = transport_pair()
    try:
        frame = framing.encode_frame(MessageType.PING, b"payload",
                                     covers_payload=False)
        at = frame.index(b"payload")        # after header and table
        a.sendall(frame[:at] + b"paYload" + frame[at + 7:])
        assert b.recv_frame() == (MessageType.PING, b"paYload")
        flipped = bytearray(frame)
        flipped[7] ^= 0x01
        a.sendall(bytes(flipped))
        with pytest.raises(ProtocolError, match="checksum"):
            b.recv_frame()
    finally:
        a.close()


@pytest.mark.parametrize("mask", [0x01, 0xFF])
@pytest.mark.parametrize("index", range(framing.HEADER.size))
def test_every_ring_header_byte_is_checked(index, mask):
    """Magic, type, length or crc: whichever header byte flips, the
    frame is rejected outright -- not as a timeout or an EOF after
    waiting for a payload the flipped length announced."""
    a, b = transport_pair()
    try:
        frame = bytearray(framing.encode_frame(
            MessageType.PING, b"payload", covers_payload=False))
        frame[index] ^= mask
        a.sendall(bytes(frame))
        with pytest.raises(ProtocolError) as caught:
            b.recv_frame(timeout=5.0)
        assert type(caught.value) is ProtocolError
    finally:
        a.close()


def test_ring_header_is_verified_before_the_payload_is_allocated():
    """A flipped length byte announcing ~16 MB (plausible: under
    ``MAX_FRAME_SIZE``) fails the header CRC before any buffer of that
    size exists."""
    a, b = transport_pair()
    tracemalloc.start()
    try:
        frame = bytearray(framing.encode_frame(
            MessageType.PING, b"payload", covers_payload=False))
        frame[9] ^= 0xFF
        announced = framing.HEADER.unpack(bytes(frame[:16]))[2]
        assert 1 << 23 < announced <= framing.MAX_FRAME_SIZE
        a.sendall(bytes(frame))
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ProtocolError, match="checksum"):
            b.recv_frame(timeout=5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        a.close()
    assert peak - base < 1 << 16


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(min_value=0, max_value=8 << 12),
                      min_size=1, max_size=12),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_frame_sequences_cross_a_tiny_ring_intact(sizes, seed):
    """Frames of 0 B to 8x capacity, in any sequence, through a 4 KiB
    ring: every one arrives bit-exact and in order, across wraparound --
    the property the payload CRC used to stand guard over."""
    rng = random.Random(seed)
    frames = [(rng.randrange(1, 40), rng.randbytes(size)) for size in sizes]
    a, b = transport_pair(1 << 12)

    def pump():
        for msg_type, payload in frames:
            a.send_frame(msg_type, payload, timeout=30.0)

    writer = threading.Thread(target=pump)
    writer.start()
    try:
        got = [b.recv_frame(timeout=30.0) for _ in frames]
    finally:
        writer.join(timeout=30.0)
        a.close()
    assert not writer.is_alive()
    assert got == frames


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
    with Endpoint() as ep:
        channel = connect(*ep.address, shm=True)
        try:
            assert channel.via_shm
            for _ in range(3):  # frames flow over the rings
                _type, _ = channel.request(
                    MessageType.PING, expect=MessageType.PONG, timeout=5.0)
        finally:
            channel.close()
        assert ep.metrics.counter(names.SHM_UPGRADES).value() == 1


def test_connect_falls_back_when_server_refuses(monkeypatch):
    """The server cannot allocate the rings: it answers an
    ``ErrorReply``, counts the fallback, and the client keeps TCP."""
    def no_room(capacity=shm_mod.DEFAULT_CAPACITY):
        raise OSError("no space left on /dev/shm")

    monkeypatch.setattr(ShmRing, "create", staticmethod(no_room))
    with Endpoint() as ep:
        channel = connect(*ep.address, shm=True)
        try:
            assert not channel.via_shm  # refused -> silent TCP fallback
            channel.request(MessageType.PING, expect=MessageType.PONG,
                            timeout=5.0)
        finally:
            channel.close()
        assert ep.metrics.counter(
            names.SHM_FALLBACKS,
            labelnames=("reason",)).value(reason="alloc-failed") == 1


def _hello(*words: int, trailing: bytes = b"") -> bytes:
    enc = XdrEncoder()
    for word in words:
        enc.pack_uint(word)
    return enc.getvalue() + trailing


def _fallbacks(endpoint: Endpoint, reason: str) -> float:
    return endpoint.metrics.counter(
        names.SHM_FALLBACKS, labelnames=("reason",)).value(reason=reason)


@pytest.mark.parametrize("payload, code, reason", [
    (b"", "bad-request", "bad-request"),
    (_hello(CAP), "bad-request", "bad-request"),  # pre-format-word client
    (_hello(CAP, RING_FORMAT, trailing=b"\0\0\0\7"),
     "bad-request", "bad-request"),
    (_hello(CAP, RING_FORMAT - 1), "shm-ring-format", "ring-format"),
    (_hello(CAP, RING_FORMAT + 1), "shm-ring-format", "ring-format"),
])
def test_server_refuses_a_hello_it_cannot_take_at_its_word(payload, code,
                                                           reason):
    """A ``SHM_HELLO`` without the format word, with trailing bytes, or
    naming a ring format this server does not speak is refused with an
    ``ErrorReply`` and counted as a fallback; nothing is upgraded and
    the caller is left with a working TCP channel."""
    with Endpoint() as ep:
        with connect(*ep.address, timeout=5.0) as channel:
            with pytest.raises(RemoteError) as caught:
                channel.request(MessageType.SHM_HELLO, payload,
                                expect=MessageType.SHM_HELLO_REPLY)
            assert caught.value.code == code
            assert not channel.via_shm
            assert channel.request(MessageType.PING, b"still tcp",
                                   expect=MessageType.PONG)[1] == b"still tcp"
        assert _fallbacks(ep, reason) == 1
        assert ep.metrics.counter(names.SHM_UPGRADES).value() == 0


def test_a_second_hello_on_an_upgraded_connection_is_refused():
    """The one refusal a well-formed hello can get: its connection is on
    the ring already.  It is answered over the ring, counted under its
    own reason, and the ring keeps carrying frames."""
    with Endpoint() as ep:
        with connect(*ep.address, timeout=5.0, shm=True) as channel:
            assert channel.via_shm
            with pytest.raises(RemoteError) as caught:
                channel.request(MessageType.SHM_HELLO,
                                _hello(CAP, RING_FORMAT),
                                expect=MessageType.SHM_HELLO_REPLY)
            assert caught.value.code == "bad-request"
            assert channel.via_shm
            assert channel.request(MessageType.PING, b"ring",
                                   expect=MessageType.PONG)[1] == b"ring"
        assert _fallbacks(ep, "already-upgraded") == 1
        assert ep.metrics.counter(names.SHM_UPGRADES).value() == 1


@contextlib.contextmanager
def scripted_peer(first):
    """A listener that hands its first connection to ``first(channel)``
    and answers PING on every later one: the peer that mishandles the
    handshake, and the plain TCP server the redial must then reach.
    Yields ``(address, accepted, release)``: the accepted sockets, and
    an event set on exit for a ``first`` that holds its connection."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []
    release = threading.Event()

    def echo(channel):
        with channel:
            try:
                while True:
                    msg_type, payload = channel.recv()
                    assert msg_type == MessageType.PING
                    channel.send(MessageType.PONG, payload)
            except (ProtocolError, OSError):
                pass

    def serve():
        while True:
            try:
                sock, _peer = listener.accept()
            except OSError:
                return
            accepted.append(sock)
            handler = echo if len(accepted) > 1 else first
            threading.Thread(target=handler, args=(Channel(sock),),
                             daemon=True).start()

    acceptor = threading.Thread(target=serve, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname(), accepted, release
    finally:
        release.set()
        listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        acceptor.join(timeout=5.0)
        for sock in accepted:
            sock.close()


def _assert_working_tcp_channel(channel):
    assert not channel.via_shm
    assert channel.request(MessageType.PING, b"tcp", expect=MessageType.PONG,
                           timeout=5.0)[1] == b"tcp"


def _advertise(channel, rings, *trailing_words):
    """Send the ``SHM_HELLO_REPLY`` a server would, for a fresh ring
    pair kept in ``rings`` for the test to close."""
    rings += [ShmRing.create(CAP), ShmRing.create(CAP)]
    enc = XdrEncoder()
    enc.pack_string(rings[-2].name)
    enc.pack_string(rings[-1].name)
    for word in (CAP,) + trailing_words:
        enc.pack_uint(word)
    channel.send(MessageType.SHM_HELLO_REPLY, enc.getvalue())


def test_negotiate_raises_on_a_peer_that_accepts_and_stays_silent(
        monkeypatch):
    """No answer is not a refusal (it used to be reported as one, and
    ``connect`` handed back the dead channel): ``negotiate`` raises, so
    ``connect`` burns the connection and redials plain TCP."""
    monkeypatch.setattr(shm_mod, "NEGOTIATE_TIMEOUT", 0.3)

    def silent(channel):
        release.wait(10.0)

    with scripted_peer(silent) as (address, accepted, release):
        with connect(*address, timeout=5.0) as channel:
            with pytest.raises(TimeoutError):
                negotiate(channel, timeout=0.3)
    with scripted_peer(silent) as (address, accepted, release):
        with connect(*address, timeout=5.0, shm=True) as channel:
            _assert_working_tcp_channel(channel)
        assert len(accepted) == 2


def test_negotiate_raises_on_a_peer_that_reads_the_hello_and_closes():
    def hang_up(channel):
        with channel:
            assert channel.recv(timeout=5.0)[0] == MessageType.SHM_HELLO

    with scripted_peer(hang_up) as (address, accepted, release):
        with connect(*address, timeout=5.0) as channel:
            with pytest.raises(ConnectionClosed):
                negotiate(channel, timeout=5.0)
    with scripted_peer(hang_up) as (address, accepted, release):
        with connect(*address, timeout=5.0, shm=True) as channel:
            _assert_working_tcp_channel(channel)
        assert len(accepted) == 2


def test_a_reply_after_the_handshake_timeout_is_not_left_in_flight(
        monkeypatch):
    """The server upgrades, but too late: the client has given up, and
    must not keep the connection the late ``SHM_HELLO_REPLY`` is about
    to arrive on (the server already listens on the rings there)."""
    monkeypatch.setattr(shm_mod, "NEGOTIATE_TIMEOUT", 0.3)
    rings, replied = [], threading.Event()

    def late(channel):
        with channel:
            assert channel.recv(timeout=5.0)[0] == MessageType.SHM_HELLO
            time.sleep(0.6)
            try:
                _advertise(channel, rings, RING_FORMAT)
            except OSError:
                pass  # the client is gone already, as it should be
            replied.set()

    try:
        with scripted_peer(late) as (address, accepted, release):
            with connect(*address, timeout=5.0, shm=True) as channel:
                _assert_working_tcp_channel(channel)
                assert replied.wait(5.0)
                _assert_working_tcp_channel(channel)
            assert len(accepted) == 2
    finally:
        for ring in rings:
            ring.close()


@pytest.mark.parametrize("trailing_words", [(), (RING_FORMAT - 1,)])
def test_a_reply_in_another_ring_format_makes_the_client_redial(
        trailing_words):
    """A server from before the format word upgrades whatever hello it
    is sent and replies without the word: a poisoned handshake, not a
    ring whose frames would fail their checksums mid-stream."""
    rings = []

    def old_server(channel):
        with channel:
            assert channel.recv(timeout=5.0)[0] == MessageType.SHM_HELLO
            _advertise(channel, rings, *trailing_words)
            release.wait(10.0)

    try:
        with scripted_peer(old_server) as (address, accepted, release):
            with connect(*address, timeout=5.0) as channel:
                with pytest.raises(ProtocolError,
                                   match="SHM_HELLO_REPLY|ring format"):
                    negotiate(channel, timeout=5.0)
                assert not channel.via_shm
        with scripted_peer(old_server) as (address, accepted, release):
            with connect(*address, timeout=5.0, shm=True) as channel:
                _assert_working_tcp_channel(channel)
            assert len(accepted) == 2
    finally:
        for ring in rings:
            ring.close()


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


def upgraded_channel_pair(stack):
    """Two channels over a socketpair, frames rerouted onto a ring pair
    the way the handshake leaves them."""
    left, right = socket.socketpair()
    a, b = stack.enter_context(Channel(left)), stack.enter_context(
        Channel(right))
    c2s, s2c = ShmRing.create(CAP), ShmRing.create(CAP)
    a.attach_io(ShmTransport(send_ring=ShmRing.attach(c2s.name, CAP),
                             recv_ring=ShmRing.attach(s2c.name, CAP)))
    b.attach_io(ShmTransport(send_ring=s2c, recv_ring=c2s))
    return a, b


def test_fault_frames_are_framed_by_the_ring_codec():
    """The fault seam frames with the codec of the medium the channel is
    on: a DROP_POST frame -- delivered whole, then the drop -- is one
    the ring accepts (framed as for a socket it would fail the header
    CRC), a CORRUPT one is rejected by that CRC whatever the payload,
    a TRUNCATE one ends mid-frame."""
    for kind, outcome in ((DROP_POST, None),
                          (CORRUPT, ProtocolError),
                          (TRUNCATE, ConnectionClosed)):
        plan = FaultPlan(seed=3, rate=1.0, kinds=(kind,), max_faults=1)
        with contextlib.ExitStack() as stack:
            a, b = upgraded_channel_pair(stack)
            faulty = plan.wrap(a)
            assert faulty.via_shm
            try:
                faulty.send(MessageType.PING, b"probe" * 100)
            except ConnectionClosed:
                assert kind == TRUNCATE
            if outcome is None:
                assert b.recv(timeout=5.0) == (MessageType.PING,
                                               b"probe" * 100)
            else:
                with pytest.raises(outcome) as caught:
                    b.recv(timeout=5.0)
                assert type(caught.value) is outcome
        assert plan.injected == {kind: 1}


@pytest.mark.parametrize("ratio", [0.0, 0.124, 0.3, 0.49, 0.51, 0.7, 0.876,
                                   0.999999])
def test_corrupt_lands_where_the_medium_checks(ratio):
    """On a ring the flipped byte is in the type or crc word -- never in
    the payload, which the ring does not check; on a socket it stays in
    the payload."""
    frame = framing.encode_frame(MessageType.PING, b"payload",
                                 covers_payload=False)
    flipped = _corrupt(frame, ratio)
    (index,) = [i for i in range(len(frame)) if frame[i] != flipped[i]]
    assert index in (4, 5, 6, 7, 12, 13, 14, 15)
    a, b = transport_pair()
    try:
        a.sendall(flipped)
        with pytest.raises(ProtocolError, match="checksum"):
            b.recv_frame(timeout=5.0)
    finally:
        a.close()
    frame = framing.encode_frame(MessageType.PING, b"payload")
    flipped = _corrupt(frame, ratio)
    (index,) = [i for i in range(len(frame)) if frame[i] != flipped[i]]
    assert index >= framing.HEADER.size


def test_corrupt_fault_over_shm_is_rejected_by_crc(monkeypatch):
    """CORRUPT over the rings surfaces exactly like CORRUPT over TCP:
    the peer's CRC rejects the frame (counted here, so the test cannot
    pass for another reason), the connection burns, the next call
    re-dials (and re-upgrades) cleanly."""
    from repro.client import NinfClient

    rejected = []
    mismatch = framing.checksum_mismatch
    monkeypatch.setattr(
        framing, "checksum_mismatch",
        lambda *args: rejected.append(args) or mismatch(*args))
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
    assert len(rejected) == 1


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
