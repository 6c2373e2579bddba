"""FrameStream: the asyncio frame protocol, byte by byte.

The contract is the sync :func:`repro.protocol.framing.recv_frame`'s:
same wire bytes, same errors, same whole-frame deadline -- however the
bytes are cut up on arrival.  Raw peers here are plain asyncio streams
or sockets writing hand-made bytes; the side under test is always a
:class:`~repro.protocol.aframing.FrameStream`.
"""

import asyncio
import socket
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocol import ConnectionClosed, ProtocolError, TimeoutError
from repro.protocol.aframing import FrameStream
from repro.protocol.framing import HEADER, MAGIC, MAX_FRAME_SIZE, \
    encode_frame, recv_frame, send_frame
from repro.protocol.messages import MessageType


async def _dial(port):
    _transport, stream = await asyncio.get_running_loop().create_connection(
        FrameStream, "127.0.0.1", port)
    return stream


def _against_raw_peer(script, check):
    """Run ``check(stream)`` on a FrameStream dialled to a raw peer
    whose connection handler is ``script(reader, writer)``."""

    async def main():
        peers = []

        async def peer(reader, writer):
            peers.append(asyncio.current_task())
            try:
                await script(reader, writer)
                await reader.read()  # hold the connection until the end
            except ConnectionError:
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(peer, "127.0.0.1", 0)
        stream = await _dial(server.sockets[0].getsockname()[1])
        try:
            return await check(stream)
        finally:
            stream.transport.close()
            server.close()
            for task in peers:
                task.cancel()
            await asyncio.gather(*peers, return_exceptions=True)

    return asyncio.run(main())


# -- arrival patterns ---------------------------------------------------------


def test_header_split_across_reads():
    frame = encode_frame(MessageType.PONG, b"payload!")

    async def script(reader, writer):
        for piece in (frame[:3], frame[3:11], frame[11:16], frame[16:]):
            writer.write(piece)
            await writer.drain()
            await asyncio.sleep(0.02)

    result = _against_raw_peer(
        script, lambda stream: stream.read_frame(timeout=5.0))
    assert result == (MessageType.PONG, b"payload!")
    assert isinstance(result[1], bytearray)


def test_two_frames_in_one_segment_are_both_delivered_in_order():
    async def script(reader, writer):
        writer.write(encode_frame(MessageType.PING, b"first")
                     + encode_frame(MessageType.PONG, b"")
                     + encode_frame(MessageType.CALL, b"third"))
        await writer.drain()

    async def check(stream):
        # Let everything arrive before the first read: frames beyond the
        # first wait in the kernel (reading is paused), none is lost.
        await asyncio.sleep(0.1)
        return [await stream.read_frame(timeout=5.0) for _ in range(3)]

    assert _against_raw_peer(script, check) == [
        (MessageType.PING, b"first"), (MessageType.PONG, b""),
        (MessageType.CALL, b"third")]


def test_trickled_payload_cannot_stretch_the_whole_frame_deadline():
    """Every byte arrives well inside 0.2 s of the previous one; the
    frame as a whole does not: repro TimeoutError, naming the part."""
    frame = encode_frame(MessageType.PONG, b"x" * 64)

    async def script(reader, writer):
        writer.write(frame[:16])
        for i in range(16, len(frame)):
            writer.write(frame[i:i + 1])
            await writer.drain()
            await asyncio.sleep(0.05)

    async def check(stream):
        with pytest.raises(TimeoutError, match="payload timed out"):
            await stream.read_frame(timeout=0.2)
        with pytest.raises(TimeoutError, match="deadline expired"):
            await stream.read_frame(timeout=0)

    _against_raw_peer(script, check)


def test_eof_mid_frame_names_the_outstanding_bytes():
    frame = encode_frame(MessageType.PONG, b"x" * 100)

    async def script(reader, writer):
        writer.write(frame[:16 + 40])
        await writer.drain()
        writer.close()  # FIN with 60 payload bytes unsent

    async def check(stream):
        with pytest.raises(ConnectionClosed, match="60 bytes outstanding"):
            await stream.read_frame(timeout=5.0)
        # Terminal: every later read reports the same.
        with pytest.raises(ConnectionClosed, match="60 bytes outstanding"):
            await stream.read_frame(timeout=5.0)
        assert not stream.idle()

    _against_raw_peer(script, check)


def test_clean_eof_reads_as_a_whole_header_outstanding():
    async def script(reader, writer):
        writer.write(encode_frame(MessageType.PONG, b"last"))
        await writer.drain()
        writer.close()

    async def check(stream):
        await asyncio.sleep(0.1)  # frame and FIN both arrived
        assert await stream.read_frame(timeout=5.0) \
            == (MessageType.PONG, b"last")
        with pytest.raises(ConnectionClosed, match="16 bytes outstanding"):
            await stream.read_frame(timeout=5.0)

    _against_raw_peer(script, check)


# -- rejection ----------------------------------------------------------------


def test_one_flipped_byte_is_a_protocol_error_naming_type_and_length():
    frame = bytearray(encode_frame(MessageType.PONG, b"ninf"))
    frame[-2] ^= 0x01

    async def script(reader, writer):
        writer.write(bytes(frame) + encode_frame(MessageType.PING, b"ok"))
        await writer.drain()

    async def check(stream):
        with pytest.raises(ProtocolError) as info:
            await stream.read_frame(timeout=5.0)
        assert "checksum mismatch" in str(info.value)
        assert f"message {int(MessageType.PONG)}" in str(info.value)
        assert "(4-byte payload)" in str(info.value)
        # Frame boundaries survive a bad checksum, as on the sync side.
        assert await stream.read_frame(timeout=5.0) \
            == (MessageType.PING, b"ok")

    _against_raw_peer(script, check)


@pytest.mark.parametrize("header, message", [
    (HEADER.pack(b"NOPE", 9, 1 << 29, 0), "bad frame magic"),
    (HEADER.pack(MAGIC, 9, MAX_FRAME_SIZE + 1, 0), "implausible frame length"),
])
def test_bad_header_is_rejected_before_any_payload_allocation(header,
                                                              message):
    async def script(reader, writer):
        writer.write(header + b"trailing bytes nobody should parse")
        await writer.drain()

    async def check(stream):
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match=message):
                await stream.read_frame(timeout=5.0)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the header claimed half a gigabyte and up
        assert stream._frames.receiving == "header"  # no payload buffer
        with pytest.raises(ProtocolError, match=message):  # desync: terminal
            await stream.read_frame(timeout=5.0)

    _against_raw_peer(script, check)


def test_oversize_payload_is_refused_on_the_way_out():
    class Huge(bytes):
        def __len__(self):
            return MAX_FRAME_SIZE + 1

    async def script(reader, writer):
        pass

    async def check(stream):
        with pytest.raises(ProtocolError, match="too large"):
            await stream.write_frame(MessageType.CALL, Huge())

    _against_raw_peer(script, check)


# -- any chunking == the sync reader ------------------------------------------


class _FedTransport(asyncio.Transport):
    """Just enough transport for a FrameStream fed by hand."""

    def __init__(self):
        super().__init__()
        self.paused = False

    def pause_reading(self):
        self.paused = True

    def resume_reading(self):
        self.paused = False


def _sync_reference(wire: bytes) -> list:
    left, right = socket.socketpair()
    try:
        left.sendall(wire)
        left.close()
        frames = []
        while True:
            try:
                frames.append(recv_frame(right, timeout=5.0))
            except ConnectionClosed:
                return frames
    finally:
        right.close()


async def _feed(wire: bytes, cuts: list) -> list:
    stream = FrameStream()
    transport = _FedTransport()
    stream.connection_made(transport)
    frames = []
    view = memoryview(wire)
    edges = sorted({min(cut, len(wire)) for cut in cuts} | {len(wire)})
    start = 0
    for edge in edges:
        chunk, start = view[start:edge], edge
        while len(chunk):
            if transport.paused:  # one frame parked: the reader's turn
                frames.append(await stream.read_frame(timeout=1.0))
                continue
            room = stream.get_buffer(-1)
            nbytes = min(len(room), len(chunk))
            room[:nbytes] = chunk[:nbytes]
            stream.buffer_updated(nbytes)
            chunk = chunk[nbytes:]
    stream.eof_received()
    while True:
        try:
            frames.append(await stream.read_frame(timeout=1.0))
        except ConnectionClosed:
            return frames


@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                              st.binary(max_size=600), st.booleans()),
                    max_size=5),
    cuts=st.lists(st.integers(0, 4000), max_size=40),
)
def test_any_chunking_yields_what_the_sync_reader_yields(frames, cuts):
    """Frames of both ``crc`` forms (payload-covering or header-only)."""
    wire = b"".join(encode_frame(t, p, covers_payload=c)
                    for t, p, c in frames)
    got = asyncio.run(_feed(wire, cuts))
    assert got == _sync_reference(wire) == [(t, p) for t, p, _c in frames]


# -- sync <-> async, both directions ------------------------------------------


def test_sync_client_speaks_to_a_frame_stream_server():
    ready = threading.Event()
    stop = None
    address = []

    def serve():
        nonlocal stop

        async def echo(stream):
            try:
                while True:
                    msg_type, payload = await stream.read_frame(timeout=5.0)
                    await stream.write_frame(msg_type, payload[::-1],
                                             timeout=5.0)
            except ConnectionClosed:
                pass
            finally:
                stream.transport.close()  # EOF leaves it open for writing

        async def main():
            nonlocal stop
            stop = asyncio.Event()
            tasks = []
            server = await asyncio.get_running_loop().create_server(
                lambda: FrameStream(on_connect=lambda s: tasks.append(
                    asyncio.ensure_future(echo(s)))), "127.0.0.1", 0)
            address.append((server.sockets[0].getsockname()[1],
                            asyncio.get_running_loop()))
            ready.set()
            await stop.wait()
            server.close()
            await asyncio.gather(*tasks)

        asyncio.run(main())

    thread = threading.Thread(target=serve)
    thread.start()
    assert ready.wait(5.0)
    port, loop = address[0]
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            big = bytes(range(256)) * 4096  # 1 MiB: many recv_into chunks
            for payload in (b"", b"abc", big):
                send_frame(sock, MessageType.CALL, payload, timeout=5.0)
                assert recv_frame(sock, timeout=5.0) \
                    == (MessageType.CALL, payload[::-1])
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join(10.0)
    assert not thread.is_alive()


def test_frame_stream_client_speaks_to_a_sync_server():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _peer = listener.accept()
        with conn:
            while True:
                try:
                    msg_type, payload = recv_frame(conn, timeout=5.0)
                except ConnectionClosed:
                    return
                send_frame(conn, msg_type, payload[::-1], timeout=5.0)

    thread = threading.Thread(target=serve)
    thread.start()

    async def main():
        stream = await _dial(listener.getsockname()[1])
        big = bytes(range(256)) * 4096
        try:
            for payload in (b"", b"abc", memoryview(big)):
                await stream.write_frame(MessageType.CALL, payload,
                                         timeout=5.0)
                assert await stream.read_frame(timeout=5.0) \
                    == (MessageType.CALL, bytes(payload)[::-1])
        finally:
            stream.transport.close()

    try:
        asyncio.run(main())
    finally:
        thread.join(10.0)
        listener.close()
    assert not thread.is_alive()
