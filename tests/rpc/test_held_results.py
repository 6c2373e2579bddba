"""A RESULT holds the call's own output arrays until a medium takes them
(DESIGN.md §3.1): replays stay exact, and one reply can be sent by two
threads at once.

The server parks a reply whose bulk outputs are the call's own buffers
by reference; anything else is flattened at completion.  A parked reply
may then be sent at the same moment by its owner and by a duplicate
attempt's replay, over a ring (which converts each array straight into
ring memory) and a socket (which flattens the payload and keeps the flat
bytes).  The interleavings are forced with events, not hoped for.
"""

import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol.framing import recv_frame, send_frame
from repro.protocol.marshal import marshal_outputs, unmarshal_outputs
from repro.protocol.messages import JobTimestamps, MessageType, pack, unpack
from repro.server import NinfServer, Registry
from repro.transport import Endpoint, ShmRing, ShmTransport, connect
from repro.xdr import bulk

ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')
GLOBAL_IDL = ('Define global_echo(mode_in int n, mode_in double A[n], '
              'mode_out double B[n]) "returns a module global";')
#: Four ring pieces: a ring send of the region waits on its reader.
DOUBLES = 4 * bulk.REGION_MIN // 8

#: What ``global_echo`` returns, changed by every call.
GLOBAL = np.zeros(DOUBLES)


def _global_echo(n, a, b):
    GLOBAL[:] += 1.0
    return GLOBAL


def _outputs(signature: Signature, payload) -> list:
    _id, _stamps, results = unpack(MessageType.RESULT, payload)
    return unmarshal_outputs(signature, results)


# -- (a) a replay is the first attempt's values -------------------------------


@pytest.mark.parametrize("shm", [False, True], ids=["socket", "ring"])
def test_a_replay_returns_the_values_of_its_call_not_what_followed(shm):
    """The executable returns a module global and changes it on the next
    call; a retried attempt of the first call still replays the values
    the first call returned."""
    registry = Registry()
    registry.register(GLOBAL_IDL, _global_echo)
    signature = Signature.from_idl(GLOBAL_IDL)
    argument = np.zeros(DOUBLES)
    first, second = (_CallPayload("global_echo", signature, call_id,
                                  (DOUBLES, argument, None))
                     for call_id in (1, 2))
    GLOBAL[:] = 0.0
    with NinfServer(registry, num_pes=1) as server, \
            connect(*server.address, timeout=30.0, shm=shm) as channel:
        assert channel.via_shm is shm
        replies = [channel.request(MessageType.CALL,
                                   call.stamp(None, time.monotonic),
                                   expect=MessageType.RESULT)[1]
                   for call in (first, second, first)]
        assert server.executor.completed == 2
    (one,), (two,), (replayed,) = (_outputs(signature, reply)
                                   for reply in replies)
    assert (one == 1.0).all() and (two == 2.0).all()
    assert replayed.tobytes() == one.tobytes()


# -- (b) one held reply, two senders ------------------------------------------


def _held_result(seed: int) -> tuple[bulk.Payload, np.ndarray]:
    """A RESULT whose bulk output is still a region holding its array,
    and that output as a plain socket decode of the RESULT reads it."""
    array = np.random.default_rng(seed).random(DOUBLES)
    signature = Signature.from_idl(ECHO_IDL)

    def fill(enc):
        marshal_outputs(signature, [DOUBLES, array, array], into=enc)

    def result():
        return pack(MessageType.RESULT, 7, JobTimestamps(1.0, 1.5, 4.0), fill)

    (plain,) = _outputs(signature, bytes(result()))
    payload = result()
    assert payload.rest is not None         # held, not flat
    return payload, plain


def _pause_flatten(monkeypatch) -> tuple[threading.Event, threading.Event,
                                         list]:
    """``(started, go, conversions)``: a flatten stops inside its lock,
    at its first array conversion, until ``go`` is set; every
    conversion is counted."""
    started, go, conversions = threading.Event(), threading.Event(), []
    convert = bulk.pack_array_into

    def paused(*args):
        conversions.append(args[3])      # the wire dtype
        started.set()
        assert go.wait(30.0)
        return convert(*args)

    monkeypatch.setattr(bulk, "pack_array_into", paused)
    return started, go, conversions


class _Run(threading.Thread):
    """``target()`` on a thread of its own, keeping what it returned or
    raised."""

    def __init__(self, target) -> None:
        super().__init__(daemon=True)
        self._step = target
        self.result = self.error = None
        self.start()

    def run(self) -> None:
        try:
            self.result = self._step()
        except BaseException as exc:  # handed to the test by outcome()
            self.error = exc

    def outcome(self):
        self.join(30.0)
        assert not self.is_alive(), "sender or receiver stuck"
        if self.error is not None:
            raise self.error
        return self.result


@contextlib.contextmanager
def _ring():
    """``(writer, reader)`` over a 256 KiB ring, less than the reply, so
    a ring send of it waits on its reader."""
    ring, idle = ShmRing.create(1 << 18), ShmRing.create(1 << 12)
    writer = ShmTransport(send_ring=ShmRing.attach(ring.name, ring.capacity),
                          recv_ring=ShmRing.attach(idle.name, idle.capacity))
    reader = ShmTransport(send_ring=idle, recv_ring=ring)
    try:
        yield writer, reader
    finally:
        writer.close()
        reader.close()


@contextlib.contextmanager
def _socket_pair():
    pair = socket.socketpair()
    with pair[0], pair[1]:
        yield pair


def _socket_send(pair, payload) -> tuple[_Run, _Run]:
    left, right = pair
    return (_Run(lambda: send_frame(left, MessageType.RESULT, payload,
                                    timeout=30.0)),
            _Run(lambda: recv_frame(right, timeout=30.0)))


def _decoded(frame) -> np.ndarray:
    msg_type, payload = frame
    assert msg_type == MessageType.RESULT
    (out,) = _outputs(Signature.from_idl(ECHO_IDL), payload)
    return out


def test_a_ring_send_does_not_wait_for_a_socket_flatten(monkeypatch):
    """A socket sender is mid-flatten when a ring sender takes the same
    reply: the ring send converts the arrays and completes meanwhile."""
    payload, plain = _held_result(1)
    started, go, _conversions = _pause_flatten(monkeypatch)
    with _ring() as (writer, reader), _socket_pair() as pair:
        sock_sent, sock_got = _socket_send(pair, payload)
        assert started.wait(30.0)
        ring_got = _Run(lambda: reader.recv_frame(timeout=30.0))
        _Run(lambda: writer.send_frame(MessageType.RESULT, payload,
                                       timeout=30.0)).outcome()
        ring_frame = ring_got.outcome()
        assert not go.is_set() and payload.rest is not None
        go.set()
        sock_sent.outcome()
        sock_frame = sock_got.outcome()
    assert _decoded(ring_frame).tobytes() == plain.tobytes()
    assert _decoded(sock_frame).tobytes() == plain.tobytes()


def test_a_ring_send_keeps_the_arrays_it_took_while_a_socket_flattens(
        monkeypatch):
    """A ring sender has taken the reply's arrays and stops before
    writing them; a socket send flattens the reply, which lets its
    arrays go.  The ring send then writes the arrays it took."""
    payload, plain = _held_result(2)
    taken, go = threading.Event(), threading.Event()
    write_array = ShmRing.write_array

    def paused(ring, array, wire, deadline=None):
        taken.set()
        assert go.wait(30.0)
        return write_array(ring, array, wire, deadline)

    monkeypatch.setattr(ShmRing, "write_array", paused)
    with _ring() as (writer, reader), _socket_pair() as pair:
        ring_sent = _Run(lambda: writer.send_frame(
            MessageType.RESULT, payload, timeout=30.0))
        assert taken.wait(30.0)
        sock_sent, sock_got = _socket_send(pair, payload)
        sock_sent.outcome()
        assert [region.array for region in payload.regions] == [None]
        go.set()
        ring_got = _Run(lambda: reader.recv_frame(timeout=30.0))
        ring_sent.outcome()
        ring_frame, sock_frame = ring_got.outcome(), sock_got.outcome()
    assert _decoded(ring_frame).tobytes() == plain.tobytes()
    assert _decoded(sock_frame).tobytes() == plain.tobytes()


def test_two_socket_sends_of_one_reply_flatten_it_once(monkeypatch):
    """The second socket sender enters the flatten while the first is
    mid-conversion: it waits for those bytes and builds none."""
    payload, plain = _held_result(3)
    started, go, conversions = _pause_flatten(monkeypatch)
    entered, both_in = [], threading.Event()
    flat = bulk.Payload.flat

    def counting(self):
        entered.append(threading.get_ident())
        if len(entered) == 2:
            both_in.set()
        return flat(self)

    monkeypatch.setattr(bulk.Payload, "flat", counting)
    with _socket_pair() as first, _socket_pair() as second:
        one = _socket_send(first, payload)
        assert started.wait(30.0)
        two = _socket_send(second, payload)
        assert both_in.wait(30.0)
        go.set()
        for sent, _got in (one, two):
            sent.outcome()
        frames = [got.outcome() for _sent, got in (one, two)]
    assert conversions == [">f8"] and len(set(entered)) == 2
    for frame in frames:
        assert _decoded(frame).tobytes() == plain.tobytes()


# -- the reactor's select loop never flattens another thread's reply ----------


def test_a_loop_connection_flattens_a_reply_from_another_thread_there(
        monkeypatch):
    """A reply a PE-like thread sends on a connection the reactor's
    select loop serves is flattened on that thread, never on the
    reactor's."""
    flattened_on = []
    flat = bulk.Payload.flat

    def recording(self):
        flattened_on.append(threading.get_ident())
        return flat(self)

    payload, plain = _held_result(4)
    monkeypatch.setattr(bulk.Payload, "flat", recording)
    threads = {}

    def handler(conn, _request):
        threads["loop"] = threading.get_ident()

        def reply():
            threads["sender"] = threading.get_ident()
            conn.send(MessageType.RESULT, payload)
        threading.Thread(target=reply).start()

    endpoint = Endpoint()
    endpoint.register_handler(MessageType.CALL, handler)
    with endpoint, connect(*endpoint.address, timeout=30.0) as channel:
        frame = channel.request(MessageType.CALL, b"",
                                expect=MessageType.RESULT)
    assert flattened_on and set(flattened_on) == {threads["sender"]}
    assert threads["loop"] != threads["sender"]
    assert _decoded(frame).tobytes() == plain.tobytes()
