"""Robustness: the server must survive malformed and hostile input.

The paper requires the server to "handle the concentration of requests
from multiple clients in a graceful manner" and to be "resilient to
various faults that could occur in network computing."
"""

import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import NinfClient
from repro.protocol.framing import MAGIC, send_frame
from repro.protocol.messages import MessageType
from repro.server import NinfServer
from tests.rpc.conftest import build_registry


@pytest.fixture(scope="module")
def hardened_server():
    with NinfServer(build_registry(), num_pes=2) as server:
        yield server


def raw_connect(server):
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def server_still_works(server) -> bool:
    with NinfClient(*server.address) as client:
        a = np.eye(3)
        (c,) = client.call("dmmul", 3, a, a, None)
        return bool(np.allclose(c, a))


def test_garbage_bytes_then_normal_call(hardened_server):
    sock = raw_connect(hardened_server)
    sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
    sock.close()
    assert server_still_works(hardened_server)


def test_bad_magic_closes_connection_only(hardened_server):
    sock = raw_connect(hardened_server)
    sock.sendall(b"XXXX" + struct.pack(">III", 1, 4, 0) + b"data")
    # The server drops us: EOF or RST, depending on timing.
    try:
        assert sock.recv(4096) == b""
    except ConnectionResetError:
        pass
    sock.close()
    assert server_still_works(hardened_server)


def test_oversize_frame_length_rejected(hardened_server):
    sock = raw_connect(hardened_server)
    sock.sendall(struct.pack(">4sIII", MAGIC, MessageType.CALL, 2**31, 0))
    try:
        assert sock.recv(4096) == b""
    except ConnectionResetError:
        pass
    sock.close()
    assert server_still_works(hardened_server)


def test_truncated_frame_then_disconnect(hardened_server):
    sock = raw_connect(hardened_server)
    sock.sendall(struct.pack(">4sIII", MAGIC, MessageType.CALL, 1000, 0)
                 + b"xx")
    sock.close()
    assert server_still_works(hardened_server)


def test_unknown_message_type_gets_error(hardened_server):
    from repro.protocol.framing import recv_frame

    sock = raw_connect(hardened_server)
    send_frame(sock, 999, b"")
    msg_type, _payload = recv_frame(sock)
    assert msg_type == MessageType.ERROR
    sock.close()


def test_call_with_corrupt_payload_gets_error(hardened_server):
    from repro.protocol.framing import recv_frame

    sock = raw_connect(hardened_server)
    send_frame(sock, MessageType.CALL, b"\x01\x02\x03\x04")
    msg_type, _payload = recv_frame(sock)
    assert msg_type == MessageType.ERROR
    sock.close()
    assert server_still_works(hardened_server)


def test_call_with_mismatched_args_payload(hardened_server):
    """Well-formed CALL header but argument bytes of the wrong shape."""
    from repro.protocol.framing import recv_frame
    from repro.protocol.messages import CallHeader, pack

    payload = pack(MessageType.CALL, CallHeader(function="dmmul", call_id=1),
                   b"\x00" * 16)  # not valid dmmul inputs
    sock = raw_connect(hardened_server)
    send_frame(sock, MessageType.CALL, payload)
    msg_type, _payload = recv_frame(sock)
    assert msg_type == MessageType.ERROR
    sock.close()
    assert server_still_works(hardened_server)


MANDEL_IDL = ("Define mandel(mode_in int w, mode_in int h, "
              "mode_out int counts[h][w]) \"one tile\";")


def test_unframeable_outputs_are_bad_arguments(server_cls):
    """The peer's scalars size the ``mode_out`` arrays: outputs past
    ``MAX_FRAME_SIZE`` (4 TiB here) are refused before allocation, and
    the connection stays up.

    Regression: NumPy's ``MemoryError`` escaped the handler, the
    connection died and the client saw ``ConnectionClosed``."""
    import time

    from repro.client.core import _CallPayload
    from repro.idl import Signature
    from repro.protocol.messages import unpack
    from repro.server import Registry
    from repro.transport import connect

    registry = Registry()
    registry.register(MANDEL_IDL, lambda w, h, counts: None)
    payload = bytes(_CallPayload(
        "mandel", Signature.from_idl(MANDEL_IDL), 1,
        (2 ** 20, 2 ** 20, None)).stamp(None, time.monotonic))
    with server_cls(registry, num_pes=1) as server:
        with connect(*server.address, timeout=5.0) as channel:
            channel.send(MessageType.CALL, payload)
            reply_type, reply = channel.recv()
            assert reply_type == MessageType.ERROR
            assert unpack(MessageType.ERROR, reply)[0].code == "bad-arguments"
            channel.request(MessageType.PING, expect=MessageType.PONG)
        assert server.executor.completed == 0


def test_overflowing_dimension_is_bad_arguments(server_cls):
    """The peer's scalars size ``y[2^x]``: an ``x`` whose power leaves
    the float range is answered ``bad-arguments``, and the connection
    keeps serving.

    Regression: the ``OverflowError`` escaped the handler, the
    connection died and the client saw ``ConnectionClosed``.  The
    client's cached signature (``y[1]``) binds the same input block, so
    the call reaches the server's own sizing."""
    from repro.idl import Signature
    from repro.protocol import RemoteError
    from repro.server import Registry

    registry = Registry()
    registry.register("Define f(mode_in double x, mode_out double y[2^x]);",
                      lambda x, y: None)
    with server_cls(registry, num_pes=1) as server:
        with NinfClient(*server.address, timeout=5.0) as client:
            client._signatures["f"] = Signature.from_idl(
                "Define f(mode_in double x, mode_out double y[1]);")
            with pytest.raises(RemoteError) as info:
                client.call("f", 1e4, None)
            assert info.value.code == "bad-arguments"
            client.ping()
        assert server.executor.completed == 0


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(min_size=0, max_size=64))
def test_fuzz_random_frames_never_kill_server(hardened_server, payload):
    """Random payloads on every message type: worst case is an ERROR
    reply or a dropped connection; the server keeps serving."""
    for msg_type in (MessageType.CALL, MessageType.INTERFACE_REQUEST,
                     MessageType.CALL_DETACHED, MessageType.FETCH_RESULT):
        sock = raw_connect(hardened_server)
        try:
            send_frame(sock, msg_type, payload)
            sock.settimeout(2.0)
            try:
                sock.recv(1 << 16)
            except socket.timeout:
                pass
        finally:
            sock.close()
    assert server_still_works(hardened_server)


def test_fuzz_raw_socket_noise(hardened_server):
    rng = np.random.default_rng(0)
    for _ in range(10):
        noise = rng.integers(0, 256, size=rng.integers(1, 200),
                             dtype=np.uint8).tobytes()
        sock = raw_connect(hardened_server)
        try:
            sock.sendall(noise)
        finally:
            sock.close()
    assert server_still_works(hardened_server)


def test_concurrent_load_and_errors(hardened_server):
    """Mix of valid calls, failing calls, and garbage, concurrently."""
    import threading

    errors = []

    def good():
        try:
            assert server_still_works(hardened_server)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def bad():
        try:
            with NinfClient(*hardened_server.address) as client:
                with pytest.raises(Exception):
                    client.call("always_fails", 1)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def ugly():
        sock = raw_connect(hardened_server)
        sock.sendall(b"\xff" * 50)
        sock.close()

    threads = [threading.Thread(target=fn)
               for fn in [good, bad, ugly] * 4]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    assert server_still_works(hardened_server)
