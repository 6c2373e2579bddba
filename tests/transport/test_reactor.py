"""The reactor's invariants (DESIGN.md §3.6): one thread reads every TCP
connection, so an idle connection costs no thread, and no one peer --
idle, half-way through a frame, or not reading its replies -- holds up
another's call."""

import os
import select
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.client import NinfClient
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol.framing import HEADER, encode_frame
from repro.protocol.messages import MessageType, pack, unpack
from repro.server import NinfServer, Registry
from repro.transport import Channel, FaultPlan, connect
from repro.transport.faults import DROP_POST

NOOP_IDL = ('Define bench_noop(mode_in int x, mode_out int y) '
            '"benchmark: y = x + 1" Calls "C" bench_noop(x, y);')
ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')
IDLE = 256


def build_registry() -> Registry:
    registry = Registry()
    registry.register(NOOP_IDL, lambda x, y: int(x) + 1)
    registry.register(ECHO_IDL, lambda n, a, b: a)
    return registry


@pytest.fixture
def server():
    with NinfServer(build_registry(), num_pes=2, name="reactor") as srv:
        yield srv


def _ping(channel: Channel) -> None:
    assert channel.request(MessageType.PING, b"p",
                           expect=MessageType.PONG) \
        == (MessageType.PONG, b"p")


def _timed_noop(client: NinfClient) -> float:
    started = time.monotonic()
    assert client.call("bench_noop", 41, None) == [42]
    return time.monotonic() - started


def test_idle_connections_cost_no_thread(server):
    """256 idle connections: the thread count stays at its idle
    baseline, and every one of them still answers PING."""
    baseline = threading.active_count()
    channels = [connect(*server.address, timeout=10.0) for _ in range(IDLE)]
    try:
        assert _wait(lambda: server.connections_open == IDLE)
        assert threading.active_count() == baseline
        for channel in channels:
            _ping(channel)
        assert threading.active_count() == baseline
    finally:
        for channel in channels:
            channel.close()
    assert _wait(lambda: server.connections_open == 0)


def test_a_half_sent_frame_delays_no_other_call(server):
    """A peer that stops half-way through a frame holds the reactor for
    none of it: another client's call goes through meanwhile."""
    frame = encode_frame(MessageType.PING, bytes(1000))
    with NinfClient(*server.address, timeout=10.0) as client:
        _timed_noop(client)  # warm: dialled, signature fetched
        for cut in (HEADER.size // 2, HEADER.size + 500):
            with socket.create_connection(server.address) as stalled:
                stalled.sendall(frame[:cut])
                assert _wait(lambda: server.connections_open == 2)
                assert _timed_noop(client) < 1.0
                assert _timed_noop(client) < 1.0


@pytest.mark.parametrize("reply", ["result", "pong", "fetch"])
def test_a_peer_not_reading_its_reply_stops_no_ping(server, reply):
    """A reply bigger than both socket buffers, to a peer that never
    reads it -- a RESULT a PE thread writes, a PONG or a FETCH_RESULT
    replay the reactor writes -- holds up no other connection: the
    reactor goes on answering PINGs.  The reply is parked, not lost,
    and a PING the peer pipelined behind it is answered after it."""
    n = 1 << 20  # 8 MB of doubles
    if reply == "fetch":
        with NinfClient(*server.address, timeout=30.0) as client:
            call = client.call_detached("bench_echo", n, np.ones(n), None)
            assert len(call.fetch()[0]) == n
        request = (MessageType.FETCH_RESULT,
                   pack(MessageType.FETCH_RESULT, call.ticket))
    elif reply == "pong":
        request = (MessageType.PING, bytes(8 * n))
    else:
        request = (MessageType.CALL, _CallPayload(
            "bench_echo", Signature.from_idl(ECHO_IDL), 1,
            (n, np.ones(n), None)).stamp(None, time.monotonic))
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
    sock.connect(server.address)
    with Channel(sock) as deaf, connect(*server.address,
                                        timeout=10.0) as other:
        deaf.send(*request)
        # The reply has started, and cannot finish: 64 kB of receive
        # window and at most 4 MB of send buffer hold half of it.
        assert select.select([sock], [], [], 10.0)[0]
        deaf.send(MessageType.PING, b"behind")
        for _ in range(20):
            started = time.monotonic()
            _ping(other)
            assert time.monotonic() - started < 1.0
        msg_type, payload = deaf.recv(timeout=30.0)
        assert len(payload) >= 8 * n
        assert msg_type == (MessageType.PONG if reply == "pong"
                            else MessageType.RESULT)
        assert deaf.recv(timeout=30.0) == (MessageType.PONG, b"behind")


def test_a_burst_of_stats_requests_starts_one_thread(server):
    """STATS renders off the reactor on the endpoint's one stats
    thread: 200 pipelined requests start one thread, and are answered
    in order."""
    baseline = threading.active_count()
    formats = ["json", "prom"] * 100
    with connect(*server.address, timeout=30.0) as channel:
        for fmt in formats:
            channel.send(MessageType.STATS, pack(MessageType.STATS, fmt))
        for fmt in formats:
            msg_type, payload = channel.recv()
            assert msg_type == MessageType.STATS_REPLY
            assert unpack(MessageType.STATS_REPLY, payload)[0] == fmt
            assert threading.active_count() <= baseline + 1
    stats = [t for t in threading.enumerate()
             if t.name.startswith("reactor-stats")]
    assert len(stats) == 1
    server.stop()
    assert not stats[0].is_alive()


def test_churning_clients_all_get_their_replies(server):
    """More client threads than cores dial, call, ping and hang up
    while the interpreter switches threads every 10 us: every call
    gets its own answer, and every connection is accounted for."""
    workers, rounds = 8, 15
    failures = []

    def churn(seed):
        try:
            for i in range(rounds):
                with NinfClient(*server.address, timeout=10.0,
                                pool=False) as client:
                    x = seed * 1000 + i
                    assert client.call("bench_noop", x, None) == [x + 1]
                    assert client.ping()
        except Exception as exc:  # reported below, with its worker
            failures.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(seed,))
                   for seed in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not [t for t in threads if t.is_alive()]
    assert failures == []
    assert _wait(lambda: server.connections_open == 0)
    assert server.connections_accepted >= workers * rounds


def test_connections_a_send_fault_closed_are_not_counted_open():
    """A reply that drops its connection (a server-side send fault)
    closes the socket on the thread that wrote it -- the reactor for a
    PONG, a PE thread for a RESULT -- and the descriptor is reused by
    the next accept: every new connection is still served, and none of
    the dropped ones is counted open."""
    plan = FaultPlan(seed=1, rate=1.0, kinds=(DROP_POST,))
    with NinfServer(build_registry(), num_pes=1, fault_plan=plan) as server:
        for i in range(10):
            with connect(*server.address, timeout=10.0) as channel:
                _ping(channel)
            assert _wait(lambda: server.connections_open == 0)
            with connect(*server.address, timeout=10.0) as channel:
                channel.send(MessageType.CALL, _CallPayload(
                    "bench_noop", Signature.from_idl(NOOP_IDL), i,
                    (i, None)).stamp(None, time.monotonic))
                assert channel.recv()[0] == MessageType.RESULT
            assert _wait(lambda: server.connections_open == 0)
        assert plan.faults_injected == 20


def test_stop_leaves_no_reactor_thread_or_socket():
    before_sockets = _open_sockets()
    before = set(threading.enumerate())
    server = NinfServer(build_registry(), num_pes=1, name="leak").start()
    idle = [connect(*server.address, timeout=10.0) for _ in range(8)]
    ring = NinfClient(*server.address, timeout=10.0, shm=True)
    try:
        assert ring.call("bench_noop", 1, None) == [2]
        assert _wait(lambda: server.connections_open == 9)
        assert {t.name for t in set(threading.enumerate()) - before} \
            >= {"leak-reactor", "leak-ring"}
        server.stop()
        assert not [t.name for t in set(threading.enumerate()) - before
                    if t.name.startswith("leak-")]
        # Every server end is closed: each idle peer reads EOF.
        for channel in idle:
            assert channel.sock.recv(1) == b""
    finally:
        server.stop()
        ring.close()
        for channel in idle:
            channel.close()
    assert _open_sockets() == before_sockets


def _open_sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor, gone already
    return count


def _wait(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()
