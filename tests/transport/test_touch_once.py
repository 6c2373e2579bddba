"""The bulk path touches an argument once per hop -- pinned by allocation.

A fresh 8 MB buffer is a full pass over the argument plus its page
faults, so the copies that PR 17 removed are kept out by measuring what
each step allocates (``tracemalloc`` peak over the step) against the
payload it moves: one buffer of the payload's size, plus slack, and no
second one.
"""

import asyncio
import contextlib
import re
import socket
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol.framing import recv_frame, send_frame
from repro.protocol.messages import MessageType
from repro.server import NinfServer, Registry
from repro.transport import AsyncEndpoint, Channel, ShmRing, ShmTransport, \
    aconnect
from repro.xdr import XdrDecoder

ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')
DOUBLES = 1_000_000
NBYTES = 8 * DOUBLES


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _peak_over(step) -> tuple[int, object]:
    """Bytes allocated at the peak of ``step()`` beyond what was live
    when it started, and what it returned."""
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = step()
    _, peak = tracemalloc.get_traced_memory()
    return peak - base, result


# -- encode: one buffer per payload -------------------------------------------


def test_client_call_encode_allocates_the_payload_once(traced):
    signature = Signature.from_idl(ECHO_IDL)
    array = np.random.default_rng(17).random(DOUBLES)

    def encode():
        call = _CallPayload("bench_echo", signature, 7, (DOUBLES, array, None))
        return call, call.stamp(None, time.monotonic)

    peak, (call, payload) = _peak_over(encode)
    assert peak <= 1.25 * NBYTES
    assert call.args_bytes >= NBYTES
    # A retry restamps the same buffer: nothing new of the payload's size.
    peak, again = _peak_over(lambda: call.stamp(5.0, time.monotonic))
    assert peak < 4096
    assert again.obj is payload.obj


def test_server_result_encode_allocates_the_payload_once(traced):
    """From the moment the executable returns to the moment the reply is
    handed to the channel: marshal into the RESULT encoder, dedup park,
    send -- one payload-sized buffer."""
    marks = {}
    sent = threading.Event()

    def echo(n, a, b):
        marks["base"], _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return a

    class Sink:
        def send(self, msg_type, payload, timeout=None):
            _, marks["peak"] = tracemalloc.get_traced_memory()
            marks["reply"] = (msg_type, payload)
            sent.set()

    registry = Registry()
    registry.register(ECHO_IDL, echo)
    signature = Signature.from_idl(ECHO_IDL)
    array = np.random.default_rng(18).random(DOUBLES)
    request = _CallPayload("bench_echo", signature, 9,
                           (DOUBLES, array, None)).stamp(None, time.monotonic)
    with NinfServer(registry, num_pes=1) as server:
        server._handlers[int(MessageType.CALL)](Sink(), request)
        assert sent.wait(30.0)
    msg_type, payload = marks["reply"]
    assert msg_type == MessageType.RESULT
    assert marks["peak"] - marks["base"] <= 1.25 * NBYTES
    assert isinstance(payload, memoryview)  # the encoder's buffer, not a copy
    dec = XdrDecoder(payload)
    assert dec.unpack_uhyper() == 9


# -- receive: straight into the final buffer ----------------------------------


def _send_from_thread(send) -> threading.Thread:
    thread = threading.Thread(target=send)
    thread.start()
    return thread


def test_sync_recv_frame_receives_into_one_buffer(traced):
    payload = bytes(NBYTES)
    left, right = socket.socketpair()
    try:
        sender = _send_from_thread(
            lambda: send_frame(left, MessageType.CALL, payload, timeout=30.0))
        peak, (msg_type, got) = _peak_over(
            lambda: recv_frame(right, timeout=30.0))
        sender.join(30.0)
    finally:
        left.close()
        right.close()
    assert peak <= 1.1 * NBYTES
    assert msg_type == MessageType.CALL and len(got) == NBYTES
    assert isinstance(got, bytearray)


@contextlib.contextmanager
def _ring_transports():
    """``(writer, reader)``: one 256 KiB ring from the first to the
    second, attached on the writer's side as a client attaches."""
    ring = ShmRing.create(1 << 18)
    idle = ShmRing.create(1 << 12)
    writer = ShmTransport(send_ring=ShmRing.attach(ring.name, ring.capacity),
                          recv_ring=ShmRing.attach(idle.name, idle.capacity))
    reader = ShmTransport(send_ring=idle, recv_ring=ring)
    try:
        yield writer, reader
    finally:
        writer.close()
        reader.close()


def test_shm_recv_frame_receives_into_one_buffer(traced):
    payload = bytes(NBYTES)
    with _ring_transports() as (writer, reader):
        sender = _send_from_thread(
            lambda: writer.send_frame(MessageType.CALL, payload, timeout=30.0))
        peak, (msg_type, got) = _peak_over(
            lambda: reader.recv_frame(timeout=30.0))
        sender.join(30.0)
    assert peak <= 1.1 * NBYTES
    assert msg_type == MessageType.CALL and len(got) == NBYTES
    assert isinstance(got, bytearray)


# -- checksum: a ring frame checks its header, not its payload ----------------


@pytest.fixture
def crc_fed(monkeypatch):
    """The byte count of every buffer handed to ``zlib.crc32``."""
    fed = []
    crc32 = zlib.crc32

    def counting(data, *seed):
        fed.append(memoryview(data).nbytes)
        return crc32(data, *seed)

    monkeypatch.setattr(zlib, "crc32", counting)
    return fed


@pytest.mark.parametrize("nbytes", [0, 5, NBYTES])
def test_a_ring_frame_feeds_the_crc_eight_bytes_a_side(crc_fed, nbytes):
    """Sender and receiver each checksum the type and length words --
    eight bytes -- whatever the payload: no pass over payload bytes on
    either side of a ring."""
    payload = bytes(nbytes)
    with _ring_transports() as (writer, reader):
        sender = _send_from_thread(
            lambda: writer.send_frame(MessageType.CALL, payload, timeout=30.0))
        msg_type, got = reader.recv_frame(timeout=30.0)
        sender.join(30.0)
    assert msg_type == MessageType.CALL and got == payload
    assert sorted(crc_fed) == [8, 8]


def test_a_socket_frame_still_feeds_the_crc_its_payload(crc_fed):
    """The same 8 MB frame over a socket pair: header words plus the
    whole payload, on each side -- TCP keeps its CRC."""
    payload = bytes(NBYTES)
    left, right = socket.socketpair()
    try:
        sender = _send_from_thread(
            lambda: send_frame(left, MessageType.CALL, payload, timeout=30.0))
        msg_type, got = recv_frame(right, timeout=30.0)
        sender.join(30.0)
    finally:
        left.close()
        right.close()
    assert msg_type == MessageType.CALL and len(got) == NBYTES
    assert sum(crc_fed) == 2 * (8 + NBYTES)


@pytest.mark.parametrize("probe", [b"", b"probe"])
def test_recv_returns_a_private_bytearray_on_all_three_transports(probe):
    with AsyncEndpoint() as endpoint:
        # asyncio: AsyncNinfClient's channel.
        async def ping():
            channel = await aconnect(*endpoint.address, timeout=5.0)
            try:
                return await channel.request(MessageType.PING, probe,
                                             expect=MessageType.PONG)
            finally:
                channel.close()

        _type, pong = asyncio.run(ping())
        assert type(pong) is bytearray and pong == probe

    left, right = socket.socketpair()
    with Channel(left) as a, Channel(right) as b:
        # sync TCP framing ...
        a.send(MessageType.PING, probe, timeout=5.0)
        _type, got = b.recv(timeout=5.0)
        assert type(got) is bytearray and got == probe
        # ... and the same channels upgraded to a shm ring pair.
        c2s, s2c = ShmRing.create(1 << 12), ShmRing.create(1 << 12)
        a.attach_io(ShmTransport(
            send_ring=ShmRing.attach(c2s.name, c2s.capacity),
            recv_ring=ShmRing.attach(s2c.name, s2c.capacity)))
        b.attach_io(ShmTransport(send_ring=s2c, recv_ring=c2s))
        a.send(MessageType.PING, probe, timeout=5.0)
        _type, got = b.recv(timeout=5.0)
        assert type(got) is bytearray and got == probe


# -- the copies stay out of the source ----------------------------------------


def test_no_stream_reader_or_join_in_the_byte_path():
    root = Path(repro.__file__).parent
    banned = re.compile(r'StreamReader|readexactly|b""\.join')
    hits = [f"{path.relative_to(root)}:{number}: {line.strip()}"
            for package in ("protocol", "transport")
            for path in sorted((root / package).rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []
