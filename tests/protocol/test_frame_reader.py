"""FrameReader: the one socket receive state machine, fed without a
socket, and the ring's reader beside it.

The blocking socket and the reactor only move bytes into
:meth:`FrameReader.buffer`; everything a socket receiver checks is
here, so it is tested here byte by byte -- any chunking, both ``crc``
forms, frames with bulk regions of every wire dtype, a corrupted frame
in the middle of a stream.  The shm ring reads its own frames in order;
the same properties are pinned for it through a ring.
"""

import contextlib
import socket
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.protocol import framing
from repro.protocol.errors import ConnectionClosed, ProtocolError, \
    TimeoutError
from repro.protocol.framing import HEADER, FrameReader, encode_frame, \
    recv_frame, send_frame, table_size
from repro.protocol.messages import MessageType
from repro.transport import ShmRing, ShmTransport
from repro.xdr import XdrEncoder, bulk
from tests.transport.test_ring_regions import _array, _decoded, _same_bits

MISMATCH = "checksum mismatch"


@contextlib.contextmanager
def _small_pieces(region_min=8, piece=48):
    """Arrays of ``region_min`` bytes and up are regions, and a region is
    received (and sent) ``piece`` bytes at a time -- 3 elements of the
    widest dtype -- so a few hundred bytes cross many piece edges."""
    saved = bulk.REGION_MIN, framing.PIECE
    bulk.REGION_MIN, framing.PIECE = region_min, piece
    try:
        yield
    finally:
        bulk.REGION_MIN, framing.PIECE = saved


#: A message: bytes, or the ``(wire, count, seed)`` of each array of
#: an XDR message (:func:`_built`) -- every wire dtype, in sizes that
#: are no multiple of the piece.
messages = st.one_of(
    st.binary(max_size=300),
    st.lists(st.tuples(st.sampled_from(bulk.WIRE_DTYPES),
                       st.integers(1, 40), st.integers(0, 2**32 - 1)),
             max_size=3))

frames_strategy = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), messages, st.booleans()),
    min_size=1, max_size=6)


def _built(message):
    """``(payload, wires)``: bytes and None, or an XDR message -- a name,
    then per array a marker word and the array -- whose arrays are
    regions once they reach ``bulk.REGION_MIN``."""
    if isinstance(message, bytes):
        return message, None
    enc = XdrEncoder()
    enc.pack_string("frame")
    for marker, (wire, count, seed) in enumerate(message):
        enc.pack_uint(marker)
        enc.pack_ndarray(_array(wire, count, seed))
    return enc.payload(), [wire for wire, _count, _seed in message]


def feed(reader: FrameReader, wire: bytes, cuts: list) -> list:
    """``wire`` into ``reader`` in the pieces ``cuts`` makes (each piece
    split again wherever the reader's buffer ends); every completed
    frame, or ``MISMATCH`` where one failed its checksum."""
    out = []
    view = memoryview(wire)
    edges = sorted({min(cut, len(wire)) for cut in cuts} | {len(wire)})
    start = 0
    for edge in edges:
        chunk, start = view[start:edge], edge
        while len(chunk):
            room = reader.buffer()
            nbytes = min(len(room), len(chunk))
            room[:nbytes] = chunk[:nbytes]
            chunk = chunk[nbytes:]
            try:
                frame = reader.advance(nbytes)
            except ProtocolError as error:
                assert MISMATCH in str(error)
                assert reader.at_boundary  # reset: the next frame reads
                out.append(MISMATCH)
                continue
            if frame is not None:
                out.append(frame)
    assert reader.at_boundary
    return out


def _check(got, frames):
    """``got`` from :func:`feed` against the ``(type, (payload, wires))``
    sent: a frame with regions decodes equal to the flat decode of what
    was sent, any other is the bytes sent."""
    assert len(got) == len(frames)
    for item, want in zip(got, frames):
        if want == MISMATCH:
            assert item == MISMATCH
            continue
        msg_type, (payload, wires) = want
        assert item != MISMATCH and item[0] == msg_type
        if wires is None:
            assert type(item[1]) is bytearray and item[1] == payload
            continue
        received = item[1]
        if not isinstance(payload, bulk.Payload):   # no array a region
            assert type(received) is bytearray
        _same_bits(_decoded(received, wires),
                   _decoded(bytes(bulk.flat(payload)), wires))
        for region in getattr(received, "regions", ()):
            assert region.array.dtype.isnative
            assert region.array.nbytes == region.nbytes


@settings(max_examples=80, deadline=None)
@given(frames=frames_strategy, cuts=st.lists(st.integers(0, 2400),
                                             max_size=40),
       data=st.data())
def test_any_chunking_yields_the_frames_and_one_mismatch_at_its_index(
        frames, cuts, data):
    """Frames of both ``crc`` forms, with and without regions, one
    payload-covering frame with a flipped byte past its region table
    among them: the reader yields every frame as given to
    ``encode_frame``, the mismatch at its own index, and goes on with
    the next frame."""
    with _small_pieces():
        bad = data.draw(st.integers(0, len(frames) - 1))
        msg_type, message, _covers = frames[bad]
        frames[bad] = (msg_type, message, True)
        frames = [(t, _built(m), c) for t, m, c in frames]
        wires = [encode_frame(t, p, covers_payload=c)
                 for t, (p, _w), c in frames]
        flipped = bytearray(wires[bad])
        # The one frame the rule cannot catch: a covering word that equals
        # the header-only one (the CRC register at its fixed point, here
        # type 0xFFFFFFFF and zero words).  Real traffic meets it with
        # CRC-32's own miss rate, 2**-32.
        assume(flipped[12:16] != encode_frame(
            msg_type, frames[bad][1][0], covers_payload=False)[12:16])
        index = data.draw(st.integers(
            HEADER.size + table_size(flipped), len(flipped) - 1))
        flipped[index] ^= data.draw(st.integers(1, 255))
        wires[bad] = bytes(flipped)
        expected = [(t, m) for t, m, _c in frames]
        expected[bad] = MISMATCH
        _check(feed(FrameReader(), b"".join(wires), cuts), expected)


@settings(max_examples=10, deadline=None)
@given(wire=st.sampled_from(bulk.WIRE_DTYPES), covers=st.booleans(),
       extra=st.integers(1, 3), cuts=st.lists(
           st.integers(0, 3 * framing.PIECE), max_size=12))
def test_a_region_larger_than_a_piece_arrives_whole(wire, covers, extra,
                                                    cuts):
    """At the real piece size: a region a few elements past one and a
    half pieces, sent in any chunking, is received into one native array
    per region, equal bit for bit to what was sent."""
    itemsize = np.dtype(wire).itemsize
    array = _array(wire, framing.PIECE * 3 // 2 // itemsize + extra, 5)
    enc = XdrEncoder()
    enc.pack_string("frame")
    enc.pack_uint(0)
    enc.pack_ndarray(array)
    payload = enc.payload()
    assert isinstance(payload, bulk.Payload)
    got = feed(FrameReader(), encode_frame(3, payload, covers_payload=covers),
               cuts)
    _check(got, [(3, (payload, [wire]))])


@pytest.mark.parametrize("covers", [True, False])
def test_a_flipped_region_byte_fails_a_covering_frame_only(covers):
    """One flipped byte inside a region: the covering frame raises the
    checksum mismatch, and a header-only one -- loopback's and the
    ring's fault model -- hands on the region with that byte."""
    array = np.arange(float(bulk.REGION_MIN // 8))
    enc = XdrEncoder()
    enc.pack_ndarray(array)
    wire = bytearray(encode_frame(7, enc.payload(), covers_payload=covers))
    wire[-1000] ^= 0x01
    reader = FrameReader()
    got = feed(reader, bytes(wire), [])
    if covers:
        assert got == [MISMATCH]
        return
    ((msg_type, got),) = got
    assert msg_type == 7 and isinstance(got, bulk.Payload)
    assert np.count_nonzero(got.regions[0].array != array) == 1


def _refused(reader: FrameReader, wire: bytes) -> ProtocolError:
    """The error ``reader`` raises once the last byte of ``wire``, one
    frame, has landed."""
    view = memoryview(wire)
    while len(view) > 1:
        room = reader.buffer()
        nbytes = min(len(room), len(view) - 1)
        room[:nbytes] = view[:nbytes]
        del room    # released before the reader trims the buffer behind it
        assert reader.advance(nbytes) is None
        view = view[nbytes:]
    reader.buffer()[:1] = view
    with pytest.raises(ProtocolError) as refused:
        reader.advance(1)
    return refused.value


@pytest.mark.parametrize("regions", [False, True])
def test_a_flipped_pad_byte_fails_a_header_only_frame(regions):
    """The last byte of a header-only frame is a pad byte -- after the
    payload, or after its one region of three doubles: it must be zero,
    so a flipped one is refused, though no ``crc`` covers it, and the
    reader goes on with the next frame."""
    with _small_pieces():
        enc = XdrEncoder()
        enc.pack_ndarray(np.arange(3.0))
        payload = enc.payload() if regions else b"abc"
        assert isinstance(payload, bulk.Payload) == regions
        wire = bytearray(encode_frame(7, payload, covers_payload=False))
        wire[-1] ^= 0x01
        reader = FrameReader()
        assert "pad is not zeros" in str(_refused(reader, bytes(wire)))
        assert reader.at_boundary
        assert feed(reader, encode_frame(8, b"next"), []) == [(8, b"next")]


def test_a_zero_payload_frame_at_the_crc_fixed_point_checks_its_pad():
    """Type 0xFFFFFFFF with an empty payload: the header CRC leaves the
    CRC register at zero, so zeros folded in do not move it and both
    ``crc`` forms are one word.  The reader takes the frame as header
    only; its pad check still refuses a flipped pad byte."""
    frame = encode_frame(0xFFFFFFFF, b"")
    assert frame == encode_frame(0xFFFFFFFF, b"", covers_payload=False)
    for index in range(HEADER.size + table_size(frame), len(frame)):
        corrupted = bytearray(frame)
        corrupted[index] ^= 0x01
        assert "pad is not zeros" in str(
            _refused(FrameReader(), bytes(corrupted)))


def _ring_pair():
    """``(writer, reader)`` over one 4 KiB ring each way."""
    ring, idle = ShmRing.create(1 << 12), ShmRing.create(1 << 12)
    return (ShmTransport(send_ring=ring, recv_ring=idle),
            ShmTransport(send_ring=idle, recv_ring=ring))


@settings(max_examples=40, deadline=None)
@given(frames=frames_strategy, cuts=st.lists(st.integers(0, 2400),
                                             max_size=20))
def test_a_ring_reader_takes_header_only_frames(frames, cuts):
    """Header-only frames -- header, region table, payload, pad, then
    any regions -- written into the ring in any chunking, read back in
    order, one native array per region."""
    with _small_pieces():
        frames = [(t, _built(m)) for t, m, _c in frames]
        wire = b"".join(encode_frame(t, p, covers_payload=False)
                        for t, (p, _w) in frames)
    edges = sorted({min(cut, len(wire)) for cut in cuts} | {len(wire)})
    writer, reader = _ring_pair()

    def write():
        for start, edge in zip([0] + edges, edges):
            writer.sendall(wire[start:edge], timeout=5.0)

    thread = threading.Thread(target=write)
    thread.start()
    try:
        got = [reader.recv_frame(timeout=5.0) for _ in frames]
    finally:
        thread.join(timeout=5.0)
        reader.close()
        writer.close()
    assert not thread.is_alive()
    _check(got, frames)


def test_a_ring_reader_refuses_a_covering_header_before_any_room(
        monkeypatch):
    """A socket's payload-covering ``crc`` word fails the ring's check
    of header and table: raised before ``bulk.room`` sizes anything by
    it."""
    header = encode_frame(7, b"payload" * 1000)[:HEADER.size]
    writer, reader = _ring_pair()
    rooms = []
    room = bulk.room
    monkeypatch.setattr(bulk, "room",
                        lambda n: rooms.append(n) or room(n))
    try:
        writer.sendall(header + bytes(4))   # an empty region table
        with pytest.raises(ProtocolError, match=MISMATCH):
            reader.recv_frame(timeout=5.0)
    finally:
        reader.close()
        writer.close()
    assert rooms == []


def _past_count(cut: int) -> int:
    """``cut`` header and payload bytes as a frame offset: past the
    header, the region count word is in too."""
    return cut + (4 if cut >= HEADER.size else 0)


@pytest.mark.parametrize("landed, outstanding, receiving", [
    (0, 16, "header"),
    (5, 11, "header"),
    (HEADER.size, 100, "payload"),
    (HEADER.size + 40, 60, "payload"),
])
def test_outstanding_names_the_part_being_received(landed, outstanding,
                                                   receiving):
    wire = memoryview(encode_frame(7, b"x" * 100))[:_past_count(landed)]
    reader = FrameReader()
    while len(wire):
        room = reader.buffer()
        nbytes = min(len(room), len(wire))
        room[:nbytes], wire = wire[:nbytes], wire[nbytes:]
        assert reader.advance(nbytes) is None
    assert (reader.outstanding, reader.receiving) == (outstanding, receiving)


def test_the_count_word_is_received_with_the_header():
    """Past the header, the count word is still owed to the same part."""
    reader = FrameReader()
    room = reader.buffer()
    assert len(room) == HEADER.size + 4
    room[:HEADER.size] = encode_frame(7, b"x" * 100)[:HEADER.size]
    assert reader.advance(HEADER.size) is None
    assert (reader.outstanding, reader.receiving) == (4, "header")


def _socket_eof(wire: bytes):
    left, right = socket.socketpair()
    try:
        left.sendall(wire)
        left.close()
        recv_frame(right, timeout=5.0)
    finally:
        right.close()


def _ring_eof(wire: bytes):
    ring = ShmRing.create(1 << 12)
    idle = ShmRing.create(1 << 12)
    reader = ShmTransport(send_ring=idle, recv_ring=ring)
    try:
        ring.write(wire)
        ring.mark_closed()
        reader.recv_frame(timeout=5.0)
    finally:
        reader.close()


@pytest.mark.parametrize("eof", [_socket_eof, _ring_eof])
@pytest.mark.parametrize("cut, outstanding", [
    (0, 16), (9, 7), (HEADER.size, 100), (HEADER.size + 40, 60)])
def test_eof_reports_what_the_reader_still_owed(eof, cut, outstanding):
    """The same frame cut at the same header or payload byte, on a
    socket and on a ring."""
    wire = encode_frame(7, b"x" * 100,
                        covers_payload=False)[:_past_count(cut)]
    with pytest.raises(ConnectionClosed,
                       match=f"with {outstanding} bytes outstanding"):
        eof(wire)


# -- the blocking socket's deadline, errors and limits ------------------------


def test_trickled_payload_cannot_stretch_the_whole_frame_deadline():
    """Every byte arrives well inside 0.2 s of the previous one; the
    frame as a whole does not: repro TimeoutError, naming the part."""
    frame = encode_frame(MessageType.PONG, b"x" * 64)
    left, right = socket.socketpair()
    stop = threading.Event()

    def trickle():
        left.sendall(frame[:20])            # header and region count
        for i in range(20, len(frame)):
            if stop.wait(0.05):
                return
            left.sendall(frame[i:i + 1])

    writer = threading.Thread(target=trickle)
    writer.start()
    try:
        with pytest.raises(TimeoutError,
                           match="payload (timed out|deadline expired)"):
            recv_frame(right, timeout=0.2)
    finally:
        stop.set()
        writer.join(5.0)
        left.close()
        right.close()
    assert not writer.is_alive()


def test_one_flipped_byte_is_a_protocol_error_naming_type_and_length():
    frame = bytearray(encode_frame(MessageType.PONG, b"ninf"))
    frame[22] ^= 0x01       # a payload byte, past header and count word
    left, right = socket.socketpair()
    with left, right:
        left.sendall(bytes(frame) + encode_frame(MessageType.PING, b"ok"))
        with pytest.raises(ProtocolError) as info:
            recv_frame(right, timeout=5.0)
        assert MISMATCH in str(info.value)
        assert f"message {int(MessageType.PONG)}" in str(info.value)
        assert "(4-byte payload)" in str(info.value)
        # Frame boundaries survive a bad checksum.
        assert recv_frame(right, timeout=5.0) == (MessageType.PING, b"ok")


@pytest.mark.parametrize("header, message", [
    (HEADER.pack(b"NOPE", 9, 1 << 29, 0), "bad frame magic"),
    (HEADER.pack(framing.MAGIC, 9, framing.MAX_FRAME_SIZE + 1, 0),
     "implausible frame length"),
])
def test_bad_header_is_rejected_before_any_payload_allocation(header,
                                                              message):
    reader = FrameReader()
    wire = header + bytes(4) + b"trailing bytes nobody should parse"
    tracemalloc.start()
    try:
        room = reader.buffer()
        room[:] = wire[:len(room)]
        with pytest.raises(ProtocolError, match=message):
            reader.advance(len(room))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the header claimed half a gigabyte and up
    assert reader.receiving == "header"   # no payload buffer
    assert len(reader.buffer()) == 0      # a desync: nothing more parses


def test_oversize_payload_is_refused_on_the_way_out():
    class Huge(bytes):
        def __len__(self):
            return framing.MAX_FRAME_SIZE + 1

    left, right = socket.socketpair()
    with left, right, pytest.raises(ProtocolError, match="too large"):
        send_frame(left, MessageType.CALL, Huge())
