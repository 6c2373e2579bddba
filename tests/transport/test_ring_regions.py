"""Bulk regions on the shared-memory ring (ring frame format 3).

A payload's large arrays cross a ring as regions: converted from the
sender's array into ring memory and out of it into the receiver's
native array, placed by a region table the reader checks before it
sizes anything.  Pinned here: any mix of regions and ring phases
arrives bit-equal to the socket decode of the same payload, a hostile
table is refused before allocation, region bytes are never read as XDR,
and the server survives a peer that tries.
"""

import contextlib
import os
import queue
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol.errors import ConnectionClosed, ProtocolError, \
    RemoteError
from repro.protocol.framing import HEADER, MAGIC, encode_frame, \
    header_crc, recv_frame
from repro.protocol.messages import MessageType, pack
from repro.server import NinfServer, Registry
from repro.transport import Channel, Endpoint, ShmRing, ShmTransport, \
    connect
from repro.transport import shm as shm_mod
from repro.transport.shm import MAX_REGIONS
from repro.xdr import XdrDecoder, XdrEncoder, XdrError, bulk

#: Doubles enough for an array to be a region.
DOUBLES = 2 * bulk.REGION_MIN // 8

ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')


def _ring_pair(capacity):
    """``(writer, reader)`` over one ring each way, the writer attached
    to the reader's segments as a client attaches to a server's."""
    ring, idle = ShmRing.create(capacity), ShmRing.create(capacity)
    writer = ShmTransport(send_ring=ShmRing.attach(ring.name, capacity),
                          recv_ring=ShmRing.attach(idle.name, capacity))
    return writer, ShmTransport(send_ring=idle, recv_ring=ring)


def _decoded(payload, wires):
    """What the frames of the state machine carry: a name, then per
    array a marker word and the array."""
    dec = XdrDecoder(payload)
    values = [dec.unpack_string()]
    for _ in wires:
        values += [dec.unpack_uint(), dec.unpack_ndarray()]
    dec.done()
    return values


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


def _array(wire, count, seed):
    """``count`` elements of ``wire``'s native dtype, floats carrying a
    signalling NaN with a payload, both infinities and -0.0."""
    native = np.dtype(wire).newbyteorder("=")
    rng = np.random.default_rng(seed)
    if native.kind == "i" or native.kind == "u":
        info = np.iinfo(native)
        return rng.integers(info.min, info.max, count, dtype=native,
                            endpoint=True)
    halves = 2 if native.kind == "c" else 1
    parts = rng.standard_normal(count * halves).astype(
        f"f{native.itemsize // halves}")
    bits = parts.view(f"u{parts.itemsize}")
    bits[0] = 0x7FA00001 if parts.itemsize == 4 else 0x7FF4000000000001
    parts[1:4] = (np.inf, -np.inf, -0.0)[:len(parts) - 1]
    return parts.view(native)


class RingRegions(RuleBasedStateMachine):
    """One 4 KiB ring pair, a writer thread fed frames in order, and a
    reader interleaved with it at whatever phase the ring is in.  Arrays
    from 64 bytes up are regions here, so frames carry 0-3 of them,
    small and up to many times the ring."""

    CAPACITY = 1 << 12

    def __init__(self):
        super().__init__()
        self._region_min = bulk.REGION_MIN
        bulk.REGION_MIN = 64
        self.errors = []
        self._open()

    def _open(self):
        self.writer, self.reader = _ring_pair(self.CAPACITY)
        self.outbox = queue.Queue()
        self.expected = []          # (type, wires, decoded socket values)
        self.closed = False
        self.thread = threading.Thread(target=self._write, daemon=True)
        self.thread.start()

    def _shut(self):
        self.outbox.put(None)
        self.writer.shutdown()
        self.reader.shutdown()
        self.thread.join(timeout=30.0)
        self.writer.close()
        self.reader.close()

    def _write(self):
        while True:
            item = self.outbox.get()
            if item is None:
                return
            try:
                if isinstance(item, (bytes, bytearray)):    # cut short
                    self.writer.sendall(item, timeout=30.0)
                    self.writer.send_ring.mark_closed()
                else:
                    self.writer.send_frame(*item, timeout=30.0)
            except Exception as exc:  # surfaced by the invariant
                self.errors.append(exc)

    @precondition(lambda self: not self.closed and len(self.expected) < 4)
    @rule(msg_type=st.integers(1, 40), flatten=st.booleans(),
          arrays=st.lists(st.tuples(st.sampled_from(bulk.WIRE_DTYPES),
                                    st.integers(1, 3000),
                                    st.integers(0, 2**32 - 1)),
                          max_size=3))
    def send(self, msg_type, flatten, arrays):
        enc = XdrEncoder()
        enc.pack_string("frame")
        for marker, (wire, count, seed) in enumerate(arrays):
            enc.pack_uint(marker)
            enc.pack_ndarray(_array(wire, count, seed))
        wires = [wire for wire, _count, _seed in arrays]
        want = _decoded(bytes(enc.getbuffer()), wires)
        payload = enc.payload()
        if flatten:
            bulk.flat(payload)
        self.expected.append((msg_type, wires, want))
        self.outbox.put((msg_type, payload))

    @precondition(lambda self: self.expected)
    @rule()
    def receive(self):
        msg_type, wires, want = self.expected.pop(0)
        got_type, got = self.reader.recv_frame(timeout=30.0)
        assert got_type == msg_type
        _same_bits(_decoded(got, wires), want)

    @precondition(lambda self: not self.closed and not self.expected)
    @rule(data=st.data())
    def close_mid_frame(self, data):
        enc = XdrEncoder()
        enc.pack_string("cut")
        enc.pack_ndarray(_array(">f8", 700, 1))
        frame = encode_frame(7, enc.payload(), covers_payload=False)
        self.outbox.put(frame[:data.draw(st.integers(0, len(frame) - 1))])
        self.closed = True
        with pytest.raises(ConnectionClosed):
            self.reader.recv_frame(timeout=30.0)

    @precondition(lambda self: self.closed)
    @rule()
    def reopen(self):
        self._shut()
        self._open()

    @invariant()
    def writer_is_fine(self):
        assert self.errors == []

    def teardown(self):
        bulk.REGION_MIN = self._region_min
        self._shut()


TestRingRegions = RingRegions.TestCase
TestRingRegions.settings = settings(max_examples=50,
                                    stateful_step_count=16, deadline=None)


# -- the region table is checked before anything is sized by it --------------


def _ring_head(length, words, msg_type=7):
    """Header and table of a ring frame whose table is ``words``, with
    the CRC a peer would compute for them."""
    table = struct.pack(f">{len(words)}I", *words)
    crc = zlib.crc32(table, header_crc(msg_type, length))
    return HEADER.pack(MAGIC, msg_type, length, crc) + table


F8 = bulk.WIRE_DTYPES.index(">f8")


@pytest.mark.parametrize("words, match", [
    ([MAX_REGIONS + 1], "at most"),
    ([2, 0, 64, F8, 32, 64, F8], "out of order or overlapping"),
    ([2, 128, 64, F8, 0, 64, F8], "out of order or overlapping"),
    ([1, 2, 64, F8], "unaligned"),
    ([1, 4064, 64, F8], "past the"),
    ([1, 0, 20, F8], "no whole number"),
    ([1, 0, 0, F8], "no whole number"),
    ([1, 0, 64, len(bulk.WIRE_DTYPES)], "unknown dtype"),
], ids=["count", "overlap", "order", "unaligned", "past-length",
        "itemsize", "empty", "dtype"])
@contextlib.contextmanager
def _ring_refusal():
    """``receive(head)``: the head into a ring, one frame read back."""
    writer, reader = _ring_pair(1 << 16)
    try:
        def receive(head):
            writer.sendall(head)
            reader.recv_frame(timeout=5.0)
        yield receive
    finally:
        writer.close()
        reader.close()


@contextlib.contextmanager
def _socket_refusal():
    """``receive(head)``: the head onto a socket, one frame read back."""
    left, right = socket.socketpair()
    try:
        def receive(head):
            left.sendall(head)
            recv_frame(right, timeout=5.0)
        yield receive
    finally:
        left.close()
        right.close()


HOSTILE = [
    ("count", [MAX_REGIONS + 1], "at most"),
    ("overlap", [2, 0, 64, F8, 32, 64, F8], "out of order or overlapping"),
    ("order", [2, 128, 64, F8, 0, 64, F8], "out of order or overlapping"),
    ("unaligned", [1, 2, 64, F8], "unaligned"),
    ("past-length", [1, 4064, 64, F8], "past the"),
    ("itemsize", [1, 0, 20, F8], "no whole number"),
    ("empty", [1, 0, 0, F8], "no whole number"),
    ("dtype", [1, 0, 64, len(bulk.WIRE_DTYPES)], "unknown dtype"),
]


@pytest.mark.parametrize("receive, words, match", [
    pytest.param(receive, words, match, id=name + suffix)
    for receive, suffix in ((_ring_refusal, ""), (_socket_refusal, "-socket"))
    for name, words, match in HOSTILE])
def test_a_hostile_table_is_refused_before_anything_is_sized_by_it(
        monkeypatch, receive, words, match):
    """Over a ring or a socket: ``ProtocolError`` before any payload
    buffer or region array exists."""
    head = _ring_head(4096, words)
    rooms, arrays = [], []
    room, empty = bulk.room, np.empty
    with receive() as refuse:
        monkeypatch.setattr(bulk, "room",
                            lambda n: rooms.append(n) or room(n))
        monkeypatch.setattr(np, "empty", lambda *a, **k:
                            arrays.append(a) or empty(*a, **k))
        with pytest.raises(ProtocolError, match=match):
            refuse(head)
        monkeypatch.undo()
    # Only the entries themselves were made room for, sized by the
    # bounded count -- after, on a socket, the reader's own fixed room
    # for a header and its count word.
    entries = 4 * (len(words) - 1)
    fixed = [HEADER.size + 4] if receive is _socket_refusal else []
    assert rooms == fixed + ([entries] if entries else [])
    assert arrays == []


def test_a_flipped_table_byte_fails_the_frame_check():
    enc = XdrEncoder()
    enc.pack_ndarray(np.arange(float(DOUBLES)))
    frame = bytearray(encode_frame(7, enc.payload(), covers_payload=False))
    frame[HEADER.size + 9] ^= 0x10         # the first region's nbytes
    writer, reader = _ring_pair(1 << 18)
    try:
        writer.sendall(bytes(frame[:HEADER.size + 16]))   # header, table
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            reader.recv_frame(timeout=5.0)
    finally:
        writer.close()
        reader.close()


# -- region bytes are never read as XDR ---------------------------------------


def _received(payload):
    """``payload``'s regions as a ring reader would hand them on: native
    1-D arrays of their own."""
    return bulk.Payload(bytes(payload.rest),
                        [region._replace(array=region.array.reshape(-1)
                                         .copy())
                         for region in payload.regions],
                        len(payload), received=True)


def _one_region(array):
    enc = XdrEncoder()
    enc.pack_uint(5)
    enc.pack_ndarray(array)
    return enc


def test_the_decoder_takes_the_regions_array():
    array = np.arange(DOUBLES, dtype=np.int64).reshape(2, -1)
    payload = _received(_one_region(array).payload())
    dec = XdrDecoder(payload)
    assert dec.unpack_uint() == 5
    got = dec.unpack_ndarray()
    dec.done()
    assert got.base is payload.regions[0].array   # taken, not copied
    assert np.array_equal(got, array)


@pytest.mark.parametrize("read", [
    lambda dec: dec.unpack_hyper(),
    lambda dec: dec.unpack_opaque(),
    lambda dec: dec.unpack_double_array(),
    lambda dec: dec.unpack_fopaque(8),
], ids=["scalar", "opaque", "double-array", "fopaque"])
def test_reading_a_region_as_xdr_raises(read):
    """Past the array header, anything but ``unpack_ndarray`` runs into
    the region."""
    payload = _received(_one_region(np.arange(float(DOUBLES))).payload())
    dec = XdrDecoder(payload)
    for _ in range(5):      # marker, rank, dim, dtype string, nbytes
        (dec.unpack_string if _ == 3 else dec.unpack_uint)()
    with pytest.raises(XdrError, match="run into the bulk region"):
        read(dec)


def test_a_region_its_header_does_not_announce_raises():
    payload = _received(_one_region(np.arange(float(DOUBLES))).payload())
    (region,) = payload.regions
    payload = bulk.Payload(payload.rest, [region._replace(
        wire=">i8", array=region.array.view(np.int64))], len(payload),
        received=True)
    dec = XdrDecoder(payload)
    dec.unpack_uint()
    with pytest.raises(XdrError, match=f"holds {8 * DOUBLES} bytes of >i8"):
        dec.unpack_ndarray()


@pytest.mark.parametrize("strict", [True, False])
def test_a_decode_that_leaves_a_region_unread_raises(strict):
    dec = XdrDecoder(_received(_one_region(np.arange(float(DOUBLES))).payload()))
    dec.unpack_uint()
    with pytest.raises(XdrError, match="unconsumed|left unread"):
        dec.done(strict=strict)


def test_an_opaque_window_carries_its_regions():
    enc = XdrEncoder()
    token = enc.begin_opaque()
    enc.pack_ndarray(np.arange(float(DOUBLES)))
    enc.pack_uint(9)
    enc.end_opaque(token)
    enc.pack_string("after")
    payload = _received(enc.payload())
    dec = XdrDecoder(payload)
    window = dec.unpack_opaque_view()
    assert dec.unpack_string() == "after"
    dec.done()
    inner = XdrDecoder(window)
    assert np.array_equal(inner.unpack_ndarray(), np.arange(float(DOUBLES)))
    assert inner.unpack_uint() == 9
    inner.done()
    assert bytes(window) == bytes(enc.getbuffer())[4:4 + len(window)]


# -- ... and a server answers a peer that tries, then keeps serving -----------


def _echo_registry():
    registry = Registry()
    registry.register(ECHO_IDL, lambda n, a, b: a)
    return registry


def _with_region(flat, offset, wire):
    """``flat`` with ``wire`` elements at ``offset`` sent as a region."""
    array = np.frombuffer(flat, dtype=wire, count=1, offset=offset)
    nbytes = array.nbytes
    return bulk.Payload(flat[:offset] + flat[offset + nbytes:],
                        [bulk.Region(offset, nbytes, wire,
                                     array.astype(array.dtype.newbyteorder(
                                         "=")))], len(flat))


def test_the_server_answers_region_misuse_and_keeps_the_connection():
    signature = Signature.from_idl(ECHO_IDL)
    call = _CallPayload("bench_echo", signature, 3,
                        (4, np.arange(4.0), None))
    flat = bytes(call.stamp(None, time.monotonic))
    n_at = call._header_end + 4             # the args block's first word
    inquiry = bytes(pack(MessageType.INTERFACE_REQUEST, "bench_echo"))
    trailing = bulk.Payload(inquiry, [bulk.Region(
        len(inquiry), 64, ">f8", np.zeros(8))], len(inquiry) + 64)
    cases = [
        (_with_region(flat, n_at, ">i4"), MessageType.CALL,
         "bad-arguments"),                  # a scalar argument as a region
        (_with_region(flat, 16, ">u8"), MessageType.CALL,
         "bad-request"),                    # the header's call_id
        (trailing, MessageType.INTERFACE_REQUEST,
         "bad-request"),                    # a region past the fields
    ]
    with NinfServer(_echo_registry(), num_pes=1) as server:
        with connect(*server.address, timeout=10.0, shm=True) as channel:
            assert channel.via_shm
            for payload, op, code in cases:
                with pytest.raises(RemoteError) as caught:
                    channel.request(op, payload)
                assert caught.value.code == code
                assert channel.request(MessageType.PING, b"still here",
                                       expect=MessageType.PONG)[1] \
                    == b"still here"


# -- the handshake ------------------------------------------------------------


def test_the_server_rounds_the_ring_capacity_down_to_sixteen():
    with Endpoint() as endpoint:
        with connect(*endpoint.address, timeout=5.0) as channel:
            assert shm_mod.negotiate(channel, capacity=5000)
            assert channel._io.send_ring.capacity == 4992
            assert channel.request(MessageType.PING, b"x" * 9000,
                                   expect=MessageType.PONG)[1] == b"x" * 9000


def test_a_failed_advertisement_leaves_no_segment(monkeypatch):
    """The server made both rings, then could not send SHM_HELLO_REPLY:
    it closes them there, while it keeps running."""
    made = []
    create = ShmRing.create

    def recording(capacity=shm_mod.DEFAULT_CAPACITY):
        ring = create(capacity)
        made.append(ring.name)
        return ring

    send = Channel.send

    def failing(self, msg_type, *args, **kwargs):
        if msg_type == MessageType.SHM_HELLO_REPLY:
            raise ConnectionResetError("advertisement lost")
        return send(self, msg_type, *args, **kwargs)

    monkeypatch.setattr(ShmRing, "create", staticmethod(recording))
    monkeypatch.setattr(Channel, "send", failing)
    with Endpoint() as endpoint:
        with connect(*endpoint.address, timeout=5.0, shm=True) as channel:
            assert not channel.via_shm      # redialled over TCP
            assert len(made) == 2
            deadline = time.monotonic() + 5.0
            while (any(os.path.exists(f"/dev/shm/{name}") for name in made)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert [name for name in made
                    if os.path.exists(f"/dev/shm/{name}")] == []
            assert channel.request(MessageType.PING, b"tcp",
                                   expect=MessageType.PONG)[1] == b"tcp"
