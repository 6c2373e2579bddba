"""Endpoint dispatch + the connection-reuse acceptance criteria."""

import socket
import threading

import numpy as np
import pytest

from repro.client import NinfClient
from repro.protocol.errors import RemoteError, TimeoutError
from repro.protocol.messages import MessageType, unpack
from repro.server import NinfServer, Registry
from repro.transport import Channel, Endpoint, connect

DMMUL_IDL = """
Define dmmul(mode_in int n, mode_in double A[n][n],
             mode_in double B[n][n], mode_out double C[n][n])
"double precision matrix multiply"
CalcOrder "2*n*n*n"
Calls "C" mmul(n, A, B, C);
"""


def _dmmul(n, a, b, c):
    np.matmul(a, b, out=c)


def build_registry() -> Registry:
    registry = Registry()
    registry.register(DMMUL_IDL, _dmmul)
    return registry


@pytest.fixture
def server():
    with NinfServer(build_registry(), num_pes=2) as srv:
        yield srv


# -- Endpoint dispatch ------------------------------------------------------


def test_unknown_message_type_gets_error_reply_and_keeps_connection(server):
    host, port = server.address
    with connect(host, port, timeout=5.0) as channel:
        channel.send(999, b"")
        msg_type, payload = channel.recv()
        assert msg_type == MessageType.ERROR
        (err,) = unpack(MessageType.ERROR, payload)
        assert err.code == "bad-message"
        # The connection survives: a PING on the same channel still works.
        channel.send(MessageType.PING, b"still-alive")
        assert channel.recv() == (MessageType.PONG, b"still-alive")


def test_ping_is_preregistered_on_bare_endpoint():
    with Endpoint(name="bare") as endpoint:
        host, port = endpoint.address
        with connect(host, port, timeout=5.0) as channel:
            _type, _payload = channel.request(MessageType.PING, b"x",
                                              expect=MessageType.PONG)
            assert _payload == b"x"


def test_endpoint_counts_accepted_connections():
    with Endpoint(name="counting") as endpoint:
        host, port = endpoint.address
        for expected in (1, 2, 3):
            with connect(host, port, timeout=5.0) as channel:
                channel.request(MessageType.PING, expect=MessageType.PONG)
            assert endpoint.connections_accepted == expected


def test_accepted_server_socket_has_nodelay():
    class Introspect(Endpoint):
        def __init__(self):
            super().__init__(name="introspect")
            self.seen = []

        def _read(self, selector, conn):
            self.seen.append(
                conn.channel.sock.getsockopt(socket.IPPROTO_TCP,
                                             socket.TCP_NODELAY)
            )
            super()._read(selector, conn)

    with Introspect() as endpoint:
        host, port = endpoint.address
        with connect(host, port, timeout=5.0) as channel:
            channel.request(MessageType.PING, expect=MessageType.PONG)
        assert endpoint.seen and all(flag != 0 for flag in endpoint.seen)


def test_deadline_expiry_surfaces_as_timeout_error():
    class Mute(Endpoint):
        """Swallows every PING instead of answering it."""

        def __init__(self):
            super().__init__(name="mute")
            self.register_handler(MessageType.PING, lambda ch, payload: None)

    with Mute() as endpoint:
        host, port = endpoint.address
        with connect(host, port, timeout=0.3) as channel:
            with pytest.raises(TimeoutError):
                channel.request(MessageType.PING, expect=MessageType.PONG)


def test_stop_is_clean_and_address_raises_after():
    endpoint = Endpoint(name="stoppable").start()
    endpoint.stop()
    with pytest.raises(RuntimeError):
        endpoint.address


def test_on_start_sees_running_endpoint():
    # Regression: on_start hooks spawn threads whose loops gate on
    # _running (the metaserver monitor).  start() once flipped _running
    # only after on_start, so a promptly-scheduled monitor thread saw
    # False and exited before its first poll.
    class Probe(Endpoint):
        def on_start(self):
            self.running_at_on_start = self._running

    with Probe(name="probe") as endpoint:
        assert endpoint.running_at_on_start is True


# -- acceptance: pooled vs per-call connections over the real stack ----------


def test_pooled_client_uses_single_connection_for_n_calls(server):
    host, port = server.address
    n = 4
    a = np.arange(float(n * n)).reshape(n, n)
    b = np.eye(n)
    with NinfClient(host, port, pool=True) as client:
        for _ in range(6):
            (out,) = client.call("dmmul", n, a, b, np.zeros((n, n)))
            np.testing.assert_allclose(out, a)
    # Signature fetch + all six calls rode one TCP connection.
    assert server.connections_accepted == 1


def test_unpooled_client_reproduces_per_call_connections(server):
    host, port = server.address
    n = 4
    a = np.arange(float(n * n)).reshape(n, n)
    b = np.eye(n)
    calls = 5
    with NinfClient(host, port, pool=False) as client:
        for _ in range(calls):
            client.call("dmmul", n, a, b, np.zeros((n, n)))
    # One connection for the signature fetch plus one per call.
    assert server.connections_accepted == calls + 1


def test_remote_error_burns_connection_but_client_recovers(server):
    host, port = server.address
    with NinfClient(host, port, pool=True) as client:
        with pytest.raises(RemoteError):
            client.get_signature("no-such-function")
        assert client.ping()


def test_no_raw_sockets_outside_transport():
    """Client/server/metaserver never construct sockets themselves."""
    import pathlib

    import repro

    src_root = pathlib.Path(repro.__file__).parent
    offenders = []
    for layer in ("client", "server", "metaserver"):
        for path in (src_root / layer).rglob("*.py"):
            text = path.read_text()
            if "socket.socket(" in text or "create_connection" in text:
                offenders.append(str(path))
    assert not offenders, f"raw socket use outside repro.transport: {offenders}"


# -- lifecycle races and leaks (found by ninf-lint) ---------------------------


def test_failed_bind_closes_listener_and_resets_state():
    """Regression: a failed bind()/listen() used to leak the listener
    fd and leave _running True, so the endpoint could never be
    restarted.  ninf-lint rule: resource-lifecycle."""
    occupant = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    occupant.bind(("127.0.0.1", 0))
    occupant.listen(1)
    _, busy_port = occupant.getsockname()[:2]
    try:
        endpoint = Endpoint(port=busy_port, name="collider")
        with pytest.raises(OSError):
            endpoint.start()
        assert endpoint._running is False
        assert endpoint._listener is None
        # The endpoint recovers: rebinding on an ephemeral port works.
        endpoint._bind_port = 0
        with endpoint:
            assert endpoint.address[1] != busy_port
    finally:
        occupant.close()


def test_failed_bind_does_not_leak_the_socket_fd():
    created = []
    real_socket = socket.socket

    class Capturing(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    occupant = real_socket(socket.AF_INET, socket.SOCK_STREAM)
    occupant.bind(("127.0.0.1", 0))
    occupant.listen(1)
    _, busy_port = occupant.getsockname()[:2]
    socket.socket = Capturing
    try:
        endpoint = Endpoint(port=busy_port, name="fd-probe")
        with pytest.raises(OSError):
            endpoint.start()
    finally:
        socket.socket = real_socket
        occupant.close()
    assert len(created) == 1
    assert created[0].fileno() == -1  # closed, not leaked


def test_concurrent_start_admits_exactly_one_caller():
    """Regression: start() used an unlocked check-then-act on _running,
    so two racing callers could both bind.  ninf-lint rule:
    lock-discipline (Endpoint._running)."""
    endpoint = Endpoint(name="racy")
    barrier = threading.Barrier(8)
    outcomes = []

    def contender():
        barrier.wait()
        try:
            endpoint.start()
            outcomes.append("started")
        except RuntimeError:
            outcomes.append("rejected")

    threads = [threading.Thread(target=contender) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
    try:
        assert outcomes.count("started") == 1
        assert outcomes.count("rejected") == 7
    finally:
        endpoint.stop()


def test_stop_while_never_started_is_a_no_op():
    endpoint = Endpoint(name="unstarted")
    endpoint.stop()  # must not raise
    assert endpoint._running is False
