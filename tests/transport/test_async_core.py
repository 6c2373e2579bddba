"""The asyncio transport core -- framing, channel, pool -- against the
one server driver, and that driver's handler contract.

No pytest-asyncio in the toolchain: each test drives its coroutines
with ``asyncio.run`` (client side) against an :class:`Endpoint`, whose
reactor thread is started from sync code.
"""

import asyncio
import socket
import threading

import pytest

from repro.protocol import ConnectionClosed, ProtocolError, TimeoutError
from repro.protocol.errors import RemoteError
from repro.protocol.aframing import FrameStream
from repro.protocol.framing import encode_frame
from repro.protocol.messages import MessageType
from repro.xdr import XdrError
from repro.transport import (
    AsyncConnectionPool,
    Endpoint,
    aconnect,
    connect,
)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- framing ------------------------------------------------------------------


async def _serve_streams(on_connect):
    """A listening FrameStream server; returns ``(server, port)``."""
    server = await asyncio.get_running_loop().create_server(
        lambda: FrameStream(on_connect=on_connect), "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def _dial_stream(port):
    _transport, stream = await asyncio.get_running_loop().create_connection(
        FrameStream, "127.0.0.1", port)
    return stream


def test_async_framing_roundtrips_the_sync_wire_format():
    async def main():
        tasks = []

        async def echo(stream):
            msg_type, payload = await stream.read_frame(timeout=5.0)
            await stream.write_frame(msg_type, payload, timeout=5.0)
            stream.transport.close()

        server, port = await _serve_streams(
            lambda stream: tasks.append(asyncio.ensure_future(echo(stream))))
        stream = await _dial_stream(port)
        payload = bytes(range(256)) * 11
        await stream.write_frame(MessageType.CALL, payload, timeout=5.0)
        result = await stream.read_frame(timeout=5.0)
        stream.transport.close()
        server.close()
        await asyncio.gather(*tasks)
        return result

    assert asyncio.run(main()) == (MessageType.CALL, bytes(range(256)) * 11)


def test_async_framing_rejects_corrupt_crc():
    async def main():
        async def corrupter(reader, writer):
            frame = bytearray(encode_frame(MessageType.PONG, b"ninf"))
            frame[-1] ^= 0xFF  # flip a payload byte, keep the old CRC
            writer.write(bytes(frame))
            await writer.drain()

        server = await asyncio.start_server(corrupter, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        stream = await _dial_stream(port)
        try:
            with pytest.raises(ProtocolError, match="checksum"):
                await stream.read_frame(timeout=5.0)
        finally:
            stream.transport.close()
            server.close()

    asyncio.run(main())


def test_async_framing_deadline_covers_the_whole_frame():
    """A peer that sends the header then stalls cannot stretch the
    deadline: expiry raises the repro TimeoutError."""

    async def main():
        stall = asyncio.Event()

        async def trickler(reader, writer):
            frame = encode_frame(MessageType.PONG, b"x" * 64)
            writer.write(frame[:16])  # header only, then stall
            await writer.drain()
            await stall.wait()

        server = await asyncio.start_server(trickler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        stream = await _dial_stream(port)
        try:
            with pytest.raises(TimeoutError):
                await stream.read_frame(timeout=0.2)
        finally:
            stall.set()
            stream.transport.close()
            server.close()

    asyncio.run(main())


# -- channel against a live endpoint ------------------------------------------


def test_async_channel_pings_the_endpoint():
    with Endpoint() as endpoint:
        host, port = endpoint.address

        async def main():
            channel = await aconnect(host, port, timeout=5.0)
            reply = await channel.request(MessageType.PING, b"probe",
                                          expect=MessageType.PONG)
            assert channel.healthy()
            channel.close()
            return reply

        assert asyncio.run(main()) == (MessageType.PONG, b"probe")


def test_async_channel_local_close_raises_oserror():
    """I/O after a *local* close is OSError -- the sync channel's
    EBADF observable -- never ConnectionClosed."""
    with Endpoint() as endpoint:
        host, port = endpoint.address

        async def main():
            channel = await aconnect(host, port, timeout=5.0)
            channel.close()
            with pytest.raises(OSError) as info:
                await channel.recv()
            assert not isinstance(info.value, ConnectionClosed)

        asyncio.run(main())


def test_async_channel_peer_close_reads_as_connection_closed():
    endpoint = Endpoint().start()
    host, port = endpoint.address

    async def main():
        channel = await aconnect(host, port, timeout=5.0)
        # Roundtrip first so the server-side connection task is live.
        await channel.request(MessageType.PING, b"",
                              expect=MessageType.PONG)
        endpoint.stop()  # server side goes away
        with pytest.raises(ConnectionClosed):
            await channel.recv(timeout=5.0)

    asyncio.run(main())


# -- endpoint -----------------------------------------------------------------


def test_endpoint_listener_sets_reuseaddr_and_counts_connections():
    with Endpoint(backlog=128) as endpoint:
        assert endpoint.backlog == 128
        listener = endpoint._listener
        assert listener.getsockopt(socket.SOL_SOCKET,
                                   socket.SO_REUSEADDR) == 1
        host, port = endpoint.address

        async def main():
            channel = await aconnect(host, port, timeout=5.0)
            await channel.request(MessageType.PING, b"",
                                  expect=MessageType.PONG)
            open_now = endpoint.connections_open
            channel.close()
            return open_now

        assert asyncio.run(main()) == 1
        assert endpoint.connections_accepted == 1


def test_endpoint_runs_plain_handlers_on_the_loop():
    """A plain-function handler is called inline, on the reactor thread
    (the server's one select loop), with a connection whose ``send``
    writes in place."""
    seen = {}

    def handler(conn, payload):
        seen["thread"] = threading.current_thread().name
        conn.send(MessageType.HELLO_REPLY, payload.upper())

    with Endpoint(name="inline") as endpoint:
        endpoint.register_handler(MessageType.HELLO, handler)
        host, port = endpoint.address

        async def main():
            channel = await aconnect(host, port, timeout=5.0)
            reply = await channel.request(MessageType.HELLO, b"ninf",
                                          expect=MessageType.HELLO_REPLY)
            channel.close()
            return reply

        assert asyncio.run(main()) == (MessageType.HELLO_REPLY, b"NINF")
    assert seen["thread"] == "inline-reactor"


def test_a_bad_request_leaves_the_connection_open():
    """An XdrError escaping a handler is a ``bad-request`` reply, and
    the connection serves its next frame."""

    def echo(conn, payload):
        if not payload:
            raise XdrError("empty")
        conn.send(MessageType.HELLO_REPLY, bytes(payload))

    with Endpoint(name="contract") as endpoint:
        endpoint.register_handler(MessageType.HELLO, echo)
        with connect(*endpoint.address, timeout=5.0) as channel:
            assert channel.request(MessageType.HELLO, b"x") \
                == (MessageType.HELLO_REPLY, b"x")
            with pytest.raises(RemoteError) as info:
                channel.request(MessageType.HELLO, b"")
            assert info.value.code == "bad-request"
            assert channel.request(MessageType.HELLO, b"y") \
                == (MessageType.HELLO_REPLY, b"y")


# -- pool ---------------------------------------------------------------------


def test_async_pool_reuses_checked_in_channels():
    with Endpoint() as endpoint:
        host, port = endpoint.address

        async def main():
            pool = AsyncConnectionPool(timeout=5.0)
            first = await pool.checkout(host, port)
            pool.checkin(first)
            second = await pool.checkout(host, port)
            assert second is first
            pool.close()
            return pool.created, pool.reused

        assert asyncio.run(main()) == (1, 1)


def test_async_pool_counts_refused_dials():
    port = _free_port()  # nothing listening

    async def main():
        pool = AsyncConnectionPool(timeout=1.0)
        with pytest.raises(ConnectionRefusedError):
            await pool.checkout("127.0.0.1", port)
        return pool.dials_refused

    assert asyncio.run(main()) == 1


# -- replies from foreign threads ----------------------------------------------


def test_foreign_thread_send_reaches_the_peer_in_order():
    """``conn.send`` from a thread that is not the reactor (a PE
    thread's completion callback) reaches the peer, frames in the order
    sent."""
    workers = []

    def handler(conn, payload):
        def work():
            for i in range(5):
                conn.send(MessageType.CALLBACK, bytes([i]))
            conn.send(MessageType.RESULT, b"done")
        workers.append(threading.Thread(target=work))
        workers[-1].start()

    with Endpoint() as endpoint:
        endpoint.register_handler(MessageType.CALL, handler)
        with connect(*endpoint.address, timeout=5.0) as channel:
            channel.send(MessageType.CALL, b"")
            frames = [channel.recv() for _ in range(6)]
        workers[0].join(5.0)
    assert frames == [(MessageType.CALLBACK, bytes([i])) for i in range(5)] \
        + [(MessageType.RESULT, b"done")]
