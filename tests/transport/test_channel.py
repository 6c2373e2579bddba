"""Channel + timeout-aware framing."""

import socket
import threading
import time

import pytest

from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    TimeoutError,
)
from repro.protocol.framing import recv_frame, send_frame
from repro.protocol.messages import ErrorReply, MessageType
from repro.transport import Channel
from repro.xdr import XdrEncoder


def make_pair():
    a, b = socket.socketpair()
    return a, b


def test_timeout_error_is_protocol_and_builtin_timeout():
    assert issubclass(TimeoutError, ProtocolError)
    import builtins

    assert issubclass(TimeoutError, builtins.TimeoutError)


def test_recv_frame_times_out_on_silent_peer():
    a, b = make_pair()
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            recv_frame(b, timeout=0.2)
        assert time.monotonic() - start < 2.0
    finally:
        a.close()
        b.close()


def test_recv_frame_times_out_mid_frame():
    """The deadline covers the whole frame, not each recv()."""
    a, b = make_pair()
    try:
        a.sendall(b"NINF")  # partial header, then silence
        with pytest.raises(TimeoutError):
            recv_frame(b, timeout=0.2)
    finally:
        a.close()
        b.close()


def test_a_deadline_past_one_poll_still_waits_for_the_frame():
    """A deadline is waited out with ``poll``, whose timeout is a C int
    of milliseconds: one too far for it is waited a day at a time."""
    a, b = make_pair()
    try:
        threading.Timer(0.1, send_frame, (a, MessageType.PING, b"late")).start()
        assert recv_frame(b, timeout=1e12) == (MessageType.PING, b"late")
        assert b.gettimeout() is None
    finally:
        a.close()
        b.close()


def test_recv_frame_restores_socket_timeout():
    a, b = make_pair()
    try:
        b.settimeout(7.5)
        send_frame(a, MessageType.PING, b"hello")
        msg_type, payload = recv_frame(b, timeout=1.0)
        assert (msg_type, payload) == (MessageType.PING, b"hello")
        assert b.gettimeout() == 7.5
    finally:
        a.close()
        b.close()


def test_recv_frame_without_timeout_does_not_touch_socket_mode():
    a, b = make_pair()
    try:
        send_frame(a, MessageType.PING, b"")
        recv_frame(b)
        assert b.gettimeout() is None
    finally:
        a.close()
        b.close()


def test_channel_roundtrip_over_socketpair():
    a, b = make_pair()
    left, right = Channel(a), Channel(b)
    try:
        left.send(MessageType.PING, b"payload")
        assert right.recv() == (MessageType.PING, b"payload")
    finally:
        left.close()
        right.close()


def test_channel_recv_deadline_expiry():
    a, b = make_pair()
    left, right = Channel(a), Channel(b, timeout=0.2)
    try:
        with pytest.raises(TimeoutError):
            right.recv()  # channel default deadline, nobody sends
        with pytest.raises(TimeoutError):
            Channel(a).recv(timeout=0.1)  # per-call deadline
    finally:
        left.close()
        right.close()


def test_channel_request_decodes_error_reply():
    a, b = make_pair()
    left, right = Channel(a), Channel(b)

    def responder():
        right.send_error("no-such-function", "nope")

    thread = threading.Thread(target=responder)
    thread.start()
    try:
        with pytest.raises(RemoteError) as excinfo:
            left.request(MessageType.INTERFACE_REQUEST, b"", timeout=5.0)
        assert excinfo.value.code == "no-such-function"
    finally:
        thread.join()
        left.close()
        right.close()


def test_channel_request_unexpected_type():
    a, b = make_pair()
    left, right = Channel(a), Channel(b)

    def responder():
        right.send(MessageType.PONG, b"")

    thread = threading.Thread(target=responder)
    thread.start()
    try:
        with pytest.raises(ProtocolError):
            left.request(MessageType.LIST_REQUEST, b"",
                         expect=MessageType.LIST_REPLY, timeout=5.0)
    finally:
        thread.join()
        left.close()
        right.close()


def test_channel_close_is_idempotent_and_marks_closed():
    a, b = make_pair()
    channel = Channel(a)
    assert not channel.closed
    channel.close()
    channel.close()
    assert channel.closed
    b.close()


def test_channel_recv_connection_closed():
    a, b = make_pair()
    left, right = Channel(a), Channel(b)
    left.close()
    try:
        with pytest.raises(ConnectionClosed):
            right.recv(timeout=1.0)
    finally:
        right.close()


def test_connect_sets_tcp_nodelay():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    from repro.transport import connect

    channel = connect(host, port, timeout=5.0)
    accepted, _peer = listener.accept()
    try:
        assert channel.sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
        assert channel.remote == (host, port)
    finally:
        channel.close()
        accepted.close()
        listener.close()


def test_connect_closes_socket_when_channel_construction_fails(monkeypatch):
    """Regression: connect() used to leak the freshly-dialled socket if
    Channel.__init__ raised.  ninf-lint rule: resource-lifecycle."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()[:2]
    captured = []

    class Boom:
        def __init__(self, sock, **kwargs):
            captured.append(sock)
            raise RuntimeError("channel construction failed")

    import repro.transport.channel as channel_mod

    monkeypatch.setattr(channel_mod, "Channel", Boom)
    try:
        with pytest.raises(RuntimeError, match="construction failed"):
            channel_mod.connect(host, port, timeout=5.0)
        assert len(captured) == 1
        assert captured[0].fileno() == -1  # closed on the error path
    finally:
        listener.close()
