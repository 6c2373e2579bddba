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
from repro.protocol.errors import ProtocolError
from repro.protocol.framing import HEADER, crc_covers_payload, encode_frame, \
    recv_frame, send_frame
from repro.protocol.messages import MessageType
from repro.server import NinfServer, Registry
from repro.protocol.aframing import FrameStream
from repro.transport import Channel, Endpoint, ShmRing, ShmTransport, \
    aconnect, connect
from repro.xdr import XdrDecoder, bulk

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
    """The argument stays the caller's array, a region of the payload:
    encoding allocates nothing of its size, and a socket attempt
    flattens it once -- one payload-sized buffer, which every later
    attempt reuses."""
    signature = Signature.from_idl(ECHO_IDL)
    array = np.random.default_rng(17).random(DOUBLES)

    def encode():
        call = _CallPayload("bench_echo", signature, 7, (DOUBLES, array, None))
        return call, call.stamp(None, time.monotonic)

    peak, (call, payload) = _peak_over(encode)
    assert peak < 1 << 20
    assert call.args_bytes >= NBYTES
    assert isinstance(payload, bulk.Payload)
    assert payload.regions[0].array is array
    peak, flat = _peak_over(payload.flat)
    assert NBYTES <= peak <= 1.1 * NBYTES
    # A retry restamps the same buffer: nothing new of the payload's size.
    peak, again = _peak_over(lambda: call.stamp(5.0, time.monotonic))
    assert peak < 4096
    assert again is payload and again.flat() is flat


def _result_of(compute) -> tuple[bulk.Payload, int, np.ndarray]:
    """One bench_echo call whose executable returns ``compute(A)``, run
    through a server's CALL handler into a sink: the RESULT payload the
    sink was handed, the bytes allocated at the peak between the
    executable's return and that hand-over (marshal into the RESULT
    encoder, dedup park), and the array returned."""
    marks = {}
    sent = threading.Event()

    def echo(n, a, b):
        marks["out"] = out = compute(a)
        marks["base"], _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return out

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
    assert isinstance(payload, bulk.Payload)
    assert XdrDecoder(payload.head).unpack_uhyper() == 9
    return payload, marks["peak"] - marks["base"], marks["out"]


def test_server_result_encode_allocates_the_payload_once(traced):
    """An output that is one of the call's own buffers (here the decoded
    argument) is parked by reference: from the executable's return to
    the dedup park nothing of the payload's size is allocated, and the
    region holds that memory."""
    payload, peak, out = _result_of(lambda a: a)
    assert peak < 1 << 20
    (region,) = payload.regions
    assert region.array.ctypes.data == out.ctypes.data
    assert region.array.nbytes == NBYTES


def test_a_ring_send_of_a_held_result_allocates_no_frame_sized_buffer(
        traced):
    payload, _peak, out = _result_of(lambda a: a)
    with _ring_transports(1 << 24) as (writer, reader):
        peak, _ = _peak_over(lambda: writer.send_frame(
            MessageType.RESULT, payload, timeout=30.0))
        _type, got = reader.recv_frame(timeout=30.0)
    assert peak < 1 << 20
    assert payload.rest is not None         # still held, never flattened
    assert got.regions[0].array.tobytes() == out.tobytes()


def test_a_socket_send_of_a_held_result_flattens_it_on_the_sending_thread(
        traced, monkeypatch):
    """One payload-sized buffer, built by the thread that sends, which
    then stands in for the array."""
    payload, _peak, out = _result_of(lambda a: a)
    flattened_on = []
    flat = bulk.Payload.flat

    def recording(self):
        flattened_on.append(threading.get_ident())
        return flat(self)

    monkeypatch.setattr(bulk.Payload, "flat", recording)
    frame = memoryview(bytearray(HEADER.size + len(payload)))
    left, right = socket.socketpair()
    try:
        def drain():
            got = 0
            while got < len(frame):
                got += right.recv_into(frame[got:])
        reader = _send_from_thread(drain)
        peak, _ = _peak_over(lambda: send_frame(
            left, MessageType.RESULT, payload, timeout=30.0))
        reader.join(30.0)
    finally:
        left.close()
        right.close()
    assert NBYTES <= peak <= 1.1 * NBYTES
    assert flattened_on and set(flattened_on) == {threading.get_ident()}
    assert [region.array for region in payload.regions] == [None]
    assert frame[HEADER.size:] == payload.flat()
    assert frame.tobytes().endswith(out.astype(">f8").tobytes())


def test_a_foreign_output_is_flattened_at_completion(traced):
    """A fresh array (so, too, a module global or a view the executable
    keeps) may change before a replay: it is converted into the payload
    once, at completion, and no array of the executable's is held."""
    payload, peak, _out = _result_of(lambda a: a * 2)
    assert NBYTES <= peak <= 1.25 * NBYTES
    assert [region.array for region in payload.regions] == [None]


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
def _ring_transports(capacity=1 << 18):
    """``(writer, reader)``: one 256 KiB ring from the first to the
    second, attached on the writer's side as a client attaches."""
    ring = ShmRing.create(capacity)
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


def _echo_call(seed: int) -> tuple[np.ndarray, bulk.Payload]:
    array = np.random.default_rng(seed).random(DOUBLES)
    call = _CallPayload("bench_echo", Signature.from_idl(ECHO_IDL), 7,
                        (DOUBLES, array, None))
    return array, call.stamp(None, time.monotonic)


def test_a_ring_call_send_allocates_no_frame_sized_buffer(traced):
    """The 8 MB argument goes from the caller's array into ring memory:
    the send allocates nothing near its size (a ring that holds the
    whole frame, so nothing is read while the send is measured)."""
    array, payload = _echo_call(19)
    with _ring_transports(1 << 24) as (writer, reader):
        peak, _ = _peak_over(lambda: writer.send_frame(
            MessageType.CALL, payload, timeout=30.0))
        _type, got = reader.recv_frame(timeout=30.0)
    assert peak < 1 << 20
    assert np.array_equal(got.regions[0].array, array)


def test_a_ring_receive_allocates_one_native_array_per_region(traced):
    array, payload = _echo_call(20)
    with _ring_transports() as (writer, reader):
        sender = _send_from_thread(lambda: writer.send_frame(
            MessageType.CALL, payload, timeout=30.0))
        peak, (msg_type, got) = _peak_over(
            lambda: reader.recv_frame(timeout=30.0))
        sender.join(30.0)
    assert NBYTES <= peak <= 1.1 * NBYTES
    assert msg_type == MessageType.CALL and len(got) == len(payload)
    (region,) = got.regions
    assert region.array.dtype == np.float64 and region.array.nbytes == NBYTES
    assert len(got.rest) < 256      # the header and the scalars
    assert np.array_equal(region.array, array)


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
    eight bytes -- and the region table, here its count word alone,
    whatever the payload: no pass over payload bytes on either side of
    a ring."""
    payload = bytes(nbytes)
    with _ring_transports() as (writer, reader):
        sender = _send_from_thread(
            lambda: writer.send_frame(MessageType.CALL, payload, timeout=30.0))
        msg_type, got = reader.recv_frame(timeout=30.0)
        sender.join(30.0)
    assert msg_type == MessageType.CALL and got == payload
    assert sorted(crc_fed) == [4, 4, 8, 8]


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


# -- checksum: a loopback socket frame checks its header, like a ring ---------


def _sync_to_loop():
    """A blocking :class:`Channel` pings an asyncio :class:`FrameStream`
    listener, which echoes the frame back."""
    payload = bytes(NBYTES)

    async def echo(stream):
        _type, got = await stream.read_frame(timeout=30.0)
        await stream.write_frame(MessageType.PONG, got, timeout=30.0)

    async def main():
        tasks = []
        server = await asyncio.get_running_loop().create_server(
            lambda: FrameStream(on_connect=lambda stream: tasks.append(
                asyncio.ensure_future(echo(stream)))), "127.0.0.1", 0)

        def ping():
            with connect(*server.sockets[0].getsockname()[:2],
                         timeout=30.0) as channel:
                assert channel.covers_payload is False
                return channel.request(MessageType.PING, payload,
                                       expect=MessageType.PONG)
        try:
            return await asyncio.to_thread(ping)
        finally:
            server.close()
            await asyncio.gather(*tasks)

    return payload, asyncio.run(main())


def _loop_to_sync():
    """An :class:`AsyncChannel`'s :class:`FrameStream` pings an
    :class:`Endpoint`, whose reactor reads the frame and whose
    :class:`Channel` echoes it back."""
    payload = bytes(NBYTES)

    async def ping(address):
        channel = await aconnect(*address, timeout=30.0)
        try:
            assert channel.stream.covers_payload is False
            return await channel.request(MessageType.PING, payload,
                                         expect=MessageType.PONG)
        finally:
            channel.close()

    with Endpoint() as endpoint:
        return payload, asyncio.run(ping(endpoint.address))


@pytest.mark.parametrize("exchange", [_sync_to_loop, _loop_to_sync])
def test_a_loopback_frame_feeds_the_crc_eight_bytes_a_side(crc_fed,
                                                           exchange):
    """8 MB over 127.0.0.1 and back, sync sender to loop receiver and
    the other way round: each of the four ends checksums the type and
    length words only."""
    payload, (msg_type, echoed) = exchange()
    assert msg_type == MessageType.PONG and echoed == payload
    assert crc_fed == [8, 8, 8, 8]


def _covering_frame_with_a_flipped_payload_byte() -> bytes:
    frame = bytearray(encode_frame(MessageType.PING, b"payload" * 100))
    frame[HEADER.size + 350] ^= 0x01
    return bytes(frame)


def test_a_flipped_payload_byte_is_rejected_by_the_sync_receiver_on_loopback():
    with socket.create_server(("127.0.0.1", 0)) as listener, \
            socket.create_connection(listener.getsockname()) as client:
        server, _peer = listener.accept()
        with server:
            client.sendall(_covering_frame_with_a_flipped_payload_byte())
            with pytest.raises(ProtocolError, match="checksum mismatch"):
                recv_frame(server, timeout=5.0)


def test_a_flipped_payload_byte_is_rejected_by_the_loop_receiver_on_loopback():
    async def receive(port):
        channel = await aconnect("127.0.0.1", port, timeout=5.0)
        try:
            return await channel.recv()
        finally:
            channel.close()

    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5.0)

        def write():
            peer, _ = listener.accept()
            with peer:
                peer.sendall(_covering_frame_with_a_flipped_payload_byte())
                peer.recv(1)  # until the receiver hangs up
        writer = _send_from_thread(write)
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            asyncio.run(receive(listener.getsockname()[1]))
        writer.join(5.0)


@pytest.mark.parametrize("peer, covers", [
    (("127.0.0.1", 5656), False),
    (("127.8.9.10", 1), False),
    (("::1", 1, 0, 0), False),
    (("::ffff:127.0.0.1", 1, 0, 0), False),
    (("10.0.0.1", 5656), True),
    (("::ffff:10.0.0.1", 1, 0, 0), True),
    ("", True),          # AF_UNIX
    (None, True),        # getpeername() failed
])
def test_the_sender_rule_over_peer_addresses(peer, covers):
    assert crc_covers_payload(peer) is covers


def test_a_dual_stack_listener_agrees_with_its_ipv4_client(crc_fed):
    """A listener on ``::`` sees a 127.0.0.1 client as
    ``::ffff:127.0.0.1``: both ends still send header-only frames, and
    8 MB each way feeds the CRC eight bytes a side."""
    try:
        listener = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
    except OSError:
        pytest.skip("no IPv6 sockets on this host")
    with listener:
        try:
            listener.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 0)
            listener.bind(("::", 0))
        except OSError:
            pytest.skip("no dual-stack IPv6 listener on this host")
        listener.listen(1)
        dialled = socket.create_connection(
            ("127.0.0.1", listener.getsockname()[1]), timeout=5.0)
        accepted, peer = listener.accept()
    assert peer[0] == "::ffff:127.0.0.1"
    payload = bytes(NBYTES)
    with Channel(dialled, timeout=30.0) as client, \
            Channel(accepted, timeout=30.0) as server:
        assert not client.covers_payload and not server.covers_payload
        for sender, receiver in ((client, server), (server, client)):
            thread = _send_from_thread(
                lambda: sender.send(MessageType.CALL, payload))
            msg_type, got = receiver.recv()
            thread.join(30.0)
            assert msg_type == MessageType.CALL and got == payload
    assert crc_fed == [8, 8, 8, 8]


@pytest.mark.parametrize("probe", [b"", b"probe"])
def test_recv_returns_a_private_bytearray_on_all_three_transports(probe):
    with Endpoint() as endpoint:
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
