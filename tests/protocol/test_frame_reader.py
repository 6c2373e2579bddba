"""FrameReader: the one socket receive state machine, fed without a
socket, and the ring's reader beside it.

The blocking socket and the event loop only move bytes into
:meth:`FrameReader.buffer`; everything a socket receiver checks is here,
so it is tested here byte by byte -- any chunking, both ``crc`` forms,
a corrupted frame in the middle of a stream.  The shm ring reads its own
frames in order; the same properties are pinned for it through a ring.
"""

import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.framing import HEADER, FrameReader, encode_frame, \
    recv_frame
from repro.transport import ShmRing, ShmTransport
from repro.xdr import bulk

MISMATCH = "checksum mismatch"

frames_strategy = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.binary(max_size=300),
              st.booleans()),
    min_size=1, max_size=6)


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


@settings(max_examples=80, deadline=None)
@given(frames=frames_strategy, cuts=st.lists(st.integers(0, 2400),
                                             max_size=40),
       data=st.data())
def test_any_chunking_yields_the_frames_and_one_mismatch_at_its_index(
        frames, cuts, data):
    """Frames of both ``crc`` forms, one payload-covering frame with a
    flipped payload byte among them: the reader yields every frame as
    given to ``encode_frame``, the mismatch at its own index, and goes
    on with the next frame."""
    bad = data.draw(st.integers(0, len(frames) - 1))
    msg_type, payload, _covers = frames[bad]
    frames[bad] = (msg_type, payload or b"\x00", True)
    wires = [encode_frame(t, p, covers_payload=c) for t, p, c in frames]
    flipped = bytearray(wires[bad])
    index = data.draw(st.integers(HEADER.size, len(flipped) - 1))
    flipped[index] ^= data.draw(st.integers(1, 255))
    wires[bad] = bytes(flipped)
    expected = [(t, p) for t, p, _c in frames]
    expected[bad] = MISMATCH
    assert feed(FrameReader(), b"".join(wires), cuts) == expected


def _ring_pair():
    """``(writer, reader)`` over one 4 KiB ring each way."""
    ring, idle = ShmRing.create(1 << 12), ShmRing.create(1 << 12)
    return (ShmTransport(send_ring=ring, recv_ring=idle),
            ShmTransport(send_ring=idle, recv_ring=ring))


@settings(max_examples=40, deadline=None)
@given(frames=frames_strategy, cuts=st.lists(st.integers(0, 2400),
                                             max_size=20))
def test_a_ring_reader_takes_header_only_frames(frames, cuts):
    """Ring frames -- header, an empty region table, payload, pad --
    written into the ring in any chunking, read back in order."""
    wire = b"".join(ShmTransport.encode_frame(t, p) for t, p, _c in frames)
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
    assert got == [(t, p) for t, p, _c in frames]


def test_a_ring_reader_refuses_a_covering_header_before_any_room(
        monkeypatch):
    """A socket's payload-covering ``crc`` word fails the ring's check
    of header and table: raised before ``bulk.room`` sizes anything by
    it."""
    writer, reader = _ring_pair()
    rooms = []
    room = bulk.room
    monkeypatch.setattr(bulk, "room",
                        lambda n: rooms.append(n) or room(n))
    header = encode_frame(7, b"payload" * 1000)[:HEADER.size]
    try:
        writer.sendall(header + bytes(4))   # an empty region table
        with pytest.raises(ProtocolError, match=MISMATCH):
            reader.recv_frame(timeout=5.0)
    finally:
        reader.close()
        writer.close()
    assert rooms == []


@pytest.mark.parametrize("landed, outstanding, receiving", [
    (0, 16, "header"),
    (5, 11, "header"),
    (HEADER.size, 100, "payload"),
    (HEADER.size + 40, 60, "payload"),
])
def test_outstanding_names_the_part_being_received(landed, outstanding,
                                                   receiving):
    wire = memoryview(encode_frame(7, b"x" * 100))[:landed]
    reader = FrameReader()
    while len(wire):
        room = reader.buffer()
        nbytes = min(len(room), len(wire))
        room[:nbytes], wire = wire[:nbytes], wire[nbytes:]
        assert reader.advance(nbytes) is None
    assert (reader.outstanding, reader.receiving) == (outstanding, receiving)


def _socket_eof(wire: bytes):
    left, right = socket.socketpair()
    try:
        left.sendall(wire)
        left.close()
        recv_frame(right, timeout=5.0)
    finally:
        right.close()


def _ring_eof(wire: bytes):
    """The ring's frame of the same payload, cut at the same header or
    payload byte (past the header, its empty region table is in)."""
    frame = ShmTransport.encode_frame(7, b"x" * 100)
    cut = len(wire) + (4 if len(wire) >= HEADER.size else 0)
    ring = ShmRing.create(1 << 12)
    idle = ShmRing.create(1 << 12)
    reader = ShmTransport(send_ring=idle, recv_ring=ring)
    try:
        ring.write(frame[:cut])
        ring.mark_closed()
        reader.recv_frame(timeout=5.0)
    finally:
        reader.close()


@pytest.mark.parametrize("eof", [_socket_eof, _ring_eof])
@pytest.mark.parametrize("cut, outstanding", [
    (0, 16), (9, 7), (HEADER.size, 100), (HEADER.size + 40, 60)])
def test_eof_reports_what_the_reader_still_owed(eof, cut, outstanding):
    wire = encode_frame(7, b"x" * 100, covers_payload=False)[:cut]
    with pytest.raises(ConnectionClosed,
                       match=f"with {outstanding} bytes outstanding"):
        eof(wire)
