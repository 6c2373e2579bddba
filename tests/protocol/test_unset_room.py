"""Bulk buffers are not zero-filled, and no unset byte reaches the wire.

``repro.xdr.bulk.room`` hands out ``bytearray`` room whose contents are
unspecified from ``UNZEROED_MIN`` up.  Here every buffer it returns is
poisoned with ``0xA5``, whatever its size: the encoder must still write
every byte of a payload itself (padding and reserved words as zeros), and
a receiver must deliver a frame only once all of its bytes have landed.
"""

import ast
import socket
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol import ConnectionClosed
from repro.protocol.framing import HEADER, encode_frame, recv_frame
from repro.protocol.marshal import marshal_outputs, unmarshal_inputs, \
    unmarshal_outputs
from repro.protocol.messages import JobTimestamps, MessageType, pack, unpack
from repro.transport import Endpoint, ShmRing, ShmTransport
from repro.xdr import XdrEncoder, XdrError, bulk
from tests.protocol.test_wire_golden import GOLDEN, VALUES
from tests.rpc.test_async_close import wait_until

ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')
DOUBLES = 150_000                  # 1.2 MB: above UNZEROED_MIN
BIG = bulk.UNZEROED_MIN + 4096     # a payload whose buffer is left unset
FIXED_LOGICAL_ID = "0123456789abcdef0123456789abcdef"


def _poisoned_room(nbytes: int) -> bytearray:
    return bytearray(b"\xa5" * nbytes)


@pytest.fixture
def poisoned(monkeypatch):
    """Every ``room`` buffer, the 128-byte encoder start included, comes
    back full of ``0xA5`` instead of zeros."""
    monkeypatch.setattr(bulk, "room", _poisoned_room)


def test_room_is_a_bytearray_of_the_asked_size():
    for nbytes in (0, 16, bulk.UNZEROED_MIN - 1, BIG):
        buf = bulk.room(nbytes)
        assert type(buf) is bytearray and len(buf) == nbytes
    assert bulk.room(100) == bytes(100)  # below the constant: zeros


@pytest.mark.parametrize("op", list(MessageType), ids=lambda op: op.name)
def test_every_golden_vector_encodes_the_same_from_poisoned_room(poisoned, op):
    assert bytes(pack(op, *VALUES[op.name])) == bytes.fromhex(GOLDEN[op.name])


@pytest.mark.parametrize("pack", [
    lambda enc: enc.pack_opaque("text, not bytes"),
    lambda enc: enc.pack_fopaque(3, "abc"),
    lambda enc: enc.pack_fixed(struct.Struct(">II"), 1, "two"),
], ids=["opaque", "fopaque", "fixed"])
def test_a_failed_pack_leaves_no_unset_byte_below_the_cursor(poisoned, pack):
    enc = XdrEncoder()
    enc.ensure_room(BIG)
    enc.pack_uint(7)
    with pytest.raises((TypeError, XdrError)):
        pack(enc)
    assert bytes(enc.getbuffer()) == b"\x00\x00\x00\x07"


def _bench_echo_call_and_result() -> tuple[bytes, bytes]:
    signature = Signature.from_idl(ECHO_IDL)
    array = np.random.default_rng(27).random(DOUBLES)
    call = _CallPayload("bench_echo", signature, 7, (DOUBLES, array, None),
                        logical_id=FIXED_LOGICAL_ID)
    payload = bytes(call.stamp(None, lambda: 0.0))
    values = unmarshal_inputs(signature, memoryview(payload)[
        call._header_end + 4:call._header_end + 4 + call.args_bytes])
    values[2] = values[1]  # B = A

    def fill(enc):
        marshal_outputs(signature, values, into=enc)
    result = pack(MessageType.RESULT, 7, JobTimestamps(1.0, 1.5, 4.0), fill)
    return payload, bytes(result)


def _bench_echo_deferred() -> tuple[bulk.Payload, bulk.Payload]:
    """The CALL and RESULT of :func:`_bench_echo_call_and_result` as
    they are handed to a channel: their arrays still regions."""
    signature = Signature.from_idl(ECHO_IDL)
    array = np.random.default_rng(27).random(DOUBLES)
    call = _CallPayload("bench_echo", signature, 7, (DOUBLES, array, None),
                        logical_id=FIXED_LOGICAL_ID)

    def fill(enc):
        marshal_outputs(signature, [DOUBLES, array, array], into=enc)
    return (call.stamp(None, lambda: 0.0),
            pack(MessageType.RESULT, 7, JobTimestamps(1.0, 1.5, 4.0), fill))


def _decoded_echo(op: MessageType, payload) -> list:
    signature = Signature.from_idl(ECHO_IDL)
    if op == MessageType.CALL:
        _header, args = unpack(op, payload)
        return unmarshal_inputs(signature, args)
    _id, _stamps, results = unpack(op, payload)
    return unmarshal_outputs(signature, results)


def test_the_ring_delivers_a_bench_echo_call_and_result_bit_equal(
        poisoned):
    """Through a ring from poisoned room, arrays converted straight in
    and out of ring memory: each payload decodes bit-equal to the socket
    decode of the same payload, and flattens to the same bytes."""
    wires = _bench_echo_call_and_result()
    ring, idle = ShmRing.create(1 << 18), ShmRing.create(1 << 12)
    writer = ShmTransport(send_ring=ShmRing.attach(ring.name, ring.capacity),
                          recv_ring=ShmRing.attach(idle.name, idle.capacity))
    reader = ShmTransport(send_ring=idle, recv_ring=ring)
    ops = (MessageType.CALL, MessageType.RESULT)
    try:
        for op, sent, wire in zip(ops, _bench_echo_deferred(), wires):
            assert sent.rest is not None        # not flattened
            sender = threading.Thread(
                target=writer.send_frame, args=(op, sent, 30.0))
            sender.start()
            got_op, got = reader.recv_frame(timeout=30.0)
            sender.join(30.0)
            assert got_op == op and got.received
            for a, b in zip(_decoded_echo(op, got), _decoded_echo(op, wire)):
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                else:
                    assert a == b
            assert bytes(got) == wire
    finally:
        writer.close()
        reader.close()


def test_a_bench_echo_call_and_result_encode_the_same_from_poisoned_room(
        monkeypatch):
    clean = _bench_echo_call_and_result()
    monkeypatch.setattr(bulk, "room", _poisoned_room)
    call, result = _bench_echo_call_and_result()
    assert (call, result) == clean
    # The padding of "bench_echo" (10 bytes) and of each ">f8" is zeros.
    assert call[:16] == b"\x00\x00\x00\x0abench_echo\x00\x00"
    for payload in (call, result):
        assert payload.count(b"\x00\x00\x00\x03>f8\x00") == 1


def test_no_bytearray_is_sized_outside_room():
    """A new receive or encode path must not bring the memset back: in
    ``xdr``, ``protocol`` and ``transport`` a ``bytearray`` of a computed
    size is made by ``bulk.room`` alone."""
    root = Path(repro.__file__).parent
    hits = []
    for package in ("xdr", "protocol", "transport"):
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            exempt = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "room" \
                        and path.name == "bulk.py":
                    exempt.update(range(node.lineno, node.end_lineno + 1))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "bytearray"
                        and any(not isinstance(arg, ast.Constant)
                                for arg in node.args)
                        and node.lineno not in exempt):
                    hits.append(f"{path.relative_to(root)}:{node.lineno}")
    assert hits == []


# -- a truncated frame is never delivered -------------------------------------


def _truncated(frame: bytes) -> bytes:
    """The header and half the payload of ``frame``."""
    return frame[:HEADER.size + (len(frame) - HEADER.size) // 2]


def test_a_truncated_frame_is_not_delivered_by_the_sync_receiver(poisoned):
    left, right = socket.socketpair()
    sent = _truncated(encode_frame(MessageType.CALL, bytes(BIG)))

    def send():
        left.sendall(sent)
        left.shutdown(socket.SHUT_WR)
    sender = threading.Thread(target=send)
    sender.start()
    try:
        with pytest.raises(ConnectionClosed, match="bytes outstanding"):
            recv_frame(right, timeout=30.0)
    finally:
        sender.join(30.0)
        left.close()
        right.close()


def test_a_truncated_frame_is_not_delivered_by_the_reactor(poisoned):
    sent = _truncated(encode_frame(MessageType.CALL, bytes(BIG)))
    delivered = []
    with Endpoint() as endpoint:
        endpoint.register_handler(
            MessageType.CALL, lambda conn, payload: delivered.append(payload))
        with socket.create_connection(endpoint.address, timeout=30.0) as sock:
            sock.sendall(sent)
        assert wait_until(lambda: endpoint.connections_accepted == 1
                          and endpoint.connections_open == 0)
    assert delivered == []


def test_a_truncated_frame_is_not_delivered_by_the_ring(poisoned):
    ring = ShmRing.create(1 << 21)
    idle = ShmRing.create(1 << 12)
    reader = ShmTransport(send_ring=idle, recv_ring=ring)
    try:
        ring.write(_truncated(encode_frame(MessageType.CALL, bytes(BIG),
                                           covers_payload=False)))
        ring.mark_closed()
        with pytest.raises(ConnectionClosed, match="bytes outstanding"):
            reader.recv_frame(timeout=30.0)
    finally:
        reader.close()
