"""The one server driver's contract, seen from a blocking channel.

An :class:`Endpoint`'s reactor thread accepts and reads every TCP
connection and runs each handler inline; a :class:`Channel` dialled by
:func:`connect` is the client side.  These are the connection-level
observables: what a channel sees when either side closes, what the
listener counts, where a handler runs, and how a reply sent from
another thread reaches the peer.
"""

import socket
import threading

import pytest

from repro.protocol import ConnectionClosed
from repro.protocol.errors import RemoteError
from repro.protocol.messages import MessageType
from repro.transport import ConnectionPool, Endpoint, connect
from repro.xdr import XdrError


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- channel against a live endpoint ------------------------------------------


def test_a_channel_pings_the_endpoint():
    with Endpoint() as endpoint, \
            connect(*endpoint.address, timeout=5.0) as channel:
        reply = channel.request(MessageType.PING, b"probe",
                                expect=MessageType.PONG)
        assert channel.healthy()
    assert reply == (MessageType.PONG, b"probe")


def test_a_locally_closed_channel_raises_oserror():
    """I/O after a *local* close is OSError (EBADF), never
    ConnectionClosed."""
    with Endpoint() as endpoint:
        channel = connect(*endpoint.address, timeout=5.0)
        channel.close()
        with pytest.raises(OSError) as info:
            channel.recv()
        assert not isinstance(info.value, ConnectionClosed)


def test_a_peer_close_reads_as_connection_closed():
    endpoint = Endpoint().start()
    with connect(*endpoint.address, timeout=5.0) as channel:
        # Round trip first so the reactor holds the connection.
        channel.request(MessageType.PING, b"", expect=MessageType.PONG)
        endpoint.stop()  # server side goes away
        with pytest.raises(ConnectionClosed):
            channel.recv(timeout=5.0)


# -- endpoint -----------------------------------------------------------------


def test_endpoint_listener_sets_reuseaddr_and_counts_connections():
    with Endpoint(backlog=128) as endpoint:
        assert endpoint.backlog == 128
        listener = endpoint._listener
        assert listener.getsockopt(socket.SOL_SOCKET,
                                   socket.SO_REUSEADDR) == 1
        with connect(*endpoint.address, timeout=5.0) as channel:
            channel.request(MessageType.PING, b"", expect=MessageType.PONG)
            assert endpoint.connections_open == 1
        assert endpoint.connections_accepted == 1


def test_endpoint_runs_plain_handlers_on_the_reactor():
    """A plain-function handler is called inline, on the reactor thread
    (the server's one select loop), with a connection whose ``send``
    writes in place."""
    seen = {}

    def handler(conn, payload):
        seen["thread"] = threading.current_thread().name
        conn.send(MessageType.HELLO_REPLY, payload.upper())

    with Endpoint(name="inline") as endpoint:
        endpoint.register_handler(MessageType.HELLO, handler)
        with connect(*endpoint.address, timeout=5.0) as channel:
            reply = channel.request(MessageType.HELLO, b"ninf",
                                    expect=MessageType.HELLO_REPLY)
    assert reply == (MessageType.HELLO_REPLY, b"NINF")
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


def test_pool_counts_refused_dials():
    port = _free_port()  # nothing listening
    with ConnectionPool(timeout=1.0) as pool:
        with pytest.raises(ConnectionRefusedError):
            pool.checkout("127.0.0.1", port)
        assert (pool.dials_refused, pool.created) == (1, 0)


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
