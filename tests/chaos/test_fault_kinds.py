"""End-to-end chaos tests: every fault kind over real sockets.

Each test injects one seeded fault into a live client/server pair and
asserts (a) the bare client surfaces exactly the right exception, and
(b) a :class:`~repro.transport.RetryPolicy` heals the same fault.
"""

import socket
import threading

import numpy as np
import pytest

from repro.client import NinfClient
from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    TimeoutError,
)
from repro.protocol.framing import encode_frame, recv_frame
from repro.protocol.messages import MessageType
from repro.server import NinfServer
from repro.transport import FaultPlan
from repro.transport.faults import (
    CORRUPT,
    DELAY,
    DROP_POST,
    DROP_PRE,
    REFUSE_DIAL,
    TRUNCATE,
)
from repro.xdr import XdrEncoder, bulk
from tests.chaos.conftest import fast_retry
from tests.rpc.conftest import build_registry

# The kinds that make a bare request fail outright (DELAY only slows).
FAILING_KINDS = (TRUNCATE, CORRUPT, DROP_PRE, DROP_POST, REFUSE_DIAL)


def one_fault_plan(kind, seed=7):
    """Exactly one fault of ``kind``, then a clean plan."""
    return FaultPlan(seed=seed, rate=1.0, kinds=(kind,), max_faults=1)


# -- each kind, bare client: the right exception ---------------------------


def test_refuse_dial_raises_connection_refused(server):
    plan = one_fault_plan(REFUSE_DIAL)
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        with pytest.raises(ConnectionRefusedError):
            client.list_functions()
        # The plan is exhausted; the very next exchange succeeds.
        assert "dmmul" in client.list_functions()
    assert plan.injected == {REFUSE_DIAL: 1}


def test_truncated_send_raises_connection_closed(server):
    plan = one_fault_plan(TRUNCATE)
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        with pytest.raises(ConnectionClosed):
            client.list_functions()
        assert "linpack" in client.list_functions()
    assert plan.injected == {TRUNCATE: 1}


def test_corrupted_send_is_rejected_by_peer_crc(server):
    """A flipped payload byte must never decode as garbage: the peer's
    framing CRC rejects the frame and drops the connection, which this
    side observes as a transient transport error."""
    plan = one_fault_plan(CORRUPT)
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        with pytest.raises((ProtocolError, OSError)):
            client.list_functions()
        assert "ep" in client.list_functions()
    assert plan.injected == {CORRUPT: 1}


PROBE = b"probe" * 100


def _faulty_send_on_loopback(plan, msg_type=MessageType.PING,
                             payload=PROBE):
    """What a faulty channel dialled to 127.0.0.1 puts on the wire for
    one PING (or the given frame).  A truncating fault also closes the
    sender's channel, as it raises."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5.0)
        host, port = listener.getsockname()
        with plan.connector(host, port, timeout=5.0) as channel:
            try:
                channel.send(msg_type, payload)
            except ConnectionClosed:
                pass
        peer, _ = listener.accept()
        with peer:
            peer.settimeout(5.0)
            wire = b""
            while chunk := peer.recv(4096):
                wire += chunk
    return wire


# ``kind`` names the one channel driver left: the ids stay as the suite's
# pass-floor lists them.
@pytest.mark.parametrize("kind", ["sync"])
@pytest.mark.parametrize("seed", range(6))
def test_corrupt_on_loopback_flips_a_type_or_crc_byte(kind, seed):
    """A loopback frame's crc word covers the header only, so CORRUPT
    flips a byte of the type or crc word -- never the payload, which the
    peer does not check -- and the peer rejects it."""
    wire = _faulty_send_on_loopback(one_fault_plan(CORRUPT, seed))
    clean = encode_frame(MessageType.PING, PROBE, covers_payload=False)
    assert len(wire) == len(clean)
    (index,) = [i for i in range(len(wire)) if wire[i] != clean[i]]
    assert index in (4, 5, 6, 7, 12, 13, 14, 15)
    reader, writer = socket.socketpair()
    with reader, writer:
        writer.sendall(wire)
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            recv_frame(reader, timeout=5.0)


def _call_with_a_region():
    """A CALL-sized payload whose array the encoder holds as a bulk
    region (:class:`repro.xdr.bulk.Payload`), as ``messages.pack`` hands
    on any message with an array of ``REGION_MIN`` bytes or more."""
    enc = XdrEncoder()
    enc.pack_string("bench_echo")
    enc.pack_ndarray(np.arange(bulk.REGION_MIN // 8, dtype=np.float64))
    payload = enc.payload()
    assert isinstance(payload, bulk.Payload) and payload.regions
    return payload


@pytest.mark.parametrize("kind", ["sync"])
@pytest.mark.parametrize("fault, error", [
    (TRUNCATE, ConnectionClosed), (CORRUPT, ProtocolError)])
def test_a_fault_on_a_call_with_a_bulk_region_reaches_the_peer(kind, fault,
                                                               error):
    """A faulty socket channel frames a payload with a bulk region as it
    sends one -- flattened -- so the peer sees the injected fault."""
    wire = _faulty_send_on_loopback(one_fault_plan(fault), MessageType.CALL,
                                    _call_with_a_region())
    clean = encode_frame(MessageType.CALL, _call_with_a_region(),
                         covers_payload=False)
    assert 0 < len(wire) <= len(clean) and wire != clean
    reader, writer = socket.socketpair()

    def write():
        writer.sendall(wire)
        writer.shutdown(socket.SHUT_WR)

    with reader, writer:
        sender = threading.Thread(target=write)
        sender.start()
        with pytest.raises(error):
            recv_frame(reader, timeout=5.0)
        reader.close()
        sender.join(timeout=5.0)
        assert not sender.is_alive()


@pytest.mark.parametrize("covers", [True, False])
def test_a_payload_with_a_bulk_region_is_framed_as_its_wire_bytes(covers):
    """On and off loopback (the ``crc`` word folding the payload in or
    not), the frame of a payload with a bulk region -- its region table,
    the bytes around the region, then the region -- reads back as the
    payload's wire bytes."""
    flat = bytes(_call_with_a_region().flat())
    frame = encode_frame(MessageType.CALL, _call_with_a_region(),
                         covers_payload=covers)
    reader, writer = socket.socketpair()
    with reader, writer:
        sender = threading.Thread(target=writer.sendall, args=(frame,))
        sender.start()
        msg_type, got = recv_frame(reader, timeout=5.0)
        sender.join(timeout=5.0)
    assert msg_type == MessageType.CALL
    assert isinstance(got, bulk.Payload) and len(got.regions) == 1
    assert bytes(got) == flat


def test_drop_before_send_raises_reset(server):
    plan = one_fault_plan(DROP_PRE)
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        with pytest.raises((ConnectionResetError, ConnectionClosed)):
            client.list_functions()
        assert client.list_functions()


def test_drop_after_send_fails_on_reply(server):
    plan = one_fault_plan(DROP_POST)
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        with pytest.raises((OSError, ProtocolError)):
            client.list_functions()
        assert client.list_functions()


def test_delay_only_slows_never_fails(server):
    plan = FaultPlan(seed=7, rate=1.0, kinds=(DELAY,),
                     delay_range=(0.001, 0.002))
    with NinfClient(*server.address, timeout=5.0, fault_plan=plan) as client:
        assert "dmmul" in client.list_functions()
        assert client.ping() is True
    assert plan.faults_injected >= 2
    assert set(plan.injected) == {DELAY}


def test_server_side_delay_surfaces_as_client_timeout():
    """The Endpoint injection point: a slow *server* shows up client-side
    as a frame deadline expiry, not a hang."""
    plan = FaultPlan(seed=3, rate=1.0, kinds=(DELAY,),
                     delay_range=(0.5, 0.6))
    with NinfServer(build_registry(), num_pes=2, fault_plan=plan) as server:
        with NinfClient(*server.address, timeout=0.1) as client:
            with pytest.raises(TimeoutError):
                client.list_functions()
    assert plan.faults_injected >= 1


# -- the same faults, healed by RetryPolicy --------------------------------


@pytest.mark.parametrize("kind", FAILING_KINDS)
def test_retry_heals_a_single_fault(server, kind):
    plan = one_fault_plan(kind, seed=11)
    retry = fast_retry()
    with NinfClient(*server.address, timeout=5.0, retry=retry,
                    fault_plan=plan) as client:
        assert "dmmul" in client.list_functions()
        assert plan.faults_injected == 1
        assert client.faults_seen >= 1
        assert client.retries >= 1
    assert retry.retries >= 1


def test_remote_errors_are_never_retried(server):
    retry = fast_retry()
    with NinfClient(*server.address, timeout=5.0, retry=retry) as client:
        with pytest.raises(RemoteError):
            client.get_signature("no_such_function")
    assert retry.retries == 0


def test_call_is_never_auto_retried(server):
    """CALL is at-most-once: a mid-call fault propagates even when the
    client holds a retry policy (the server may have executed)."""
    with NinfClient(*server.address, timeout=5.0) as clean:
        signature = clean.get_signature("ep")
    plan = FaultPlan(seed=5, rate=1.0, kinds=(DROP_PRE,), max_faults=1)
    retry = fast_retry()
    with NinfClient(*server.address, timeout=5.0, retry=retry,
                    fault_plan=plan) as client:
        # Warm the cache so the CALL is the only wire exchange.
        client._signatures["ep"] = signature
        with pytest.raises((OSError, ProtocolError)):
            client.call("ep", 8, 0, 64, None, None, None)
        assert client.attempts == 1  # one shot, despite the retry policy
        assert client.faults_seen == 1
    assert retry.retries == 0
    assert plan.faults_injected == 1


# -- determinism -----------------------------------------------------------


def test_same_seed_same_schedule_direct():
    """Two plans with equal seeds driven through the same op sequence
    produce byte-identical schedules."""
    ops = ["dial", "send", "recv", "send", "recv"] * 25
    plans = [FaultPlan(seed=42, rate=0.4) for _ in range(2)]
    for plan in plans:
        for op in ops:
            plan.draw(op)
    assert plans[0].schedule() == plans[1].schedule()
    assert plans[0].faults_injected > 0
    other = FaultPlan(seed=43, rate=0.4)
    for op in ops:
        other.draw(op)
    assert other.schedule() != plans[0].schedule()


def test_same_seed_same_schedule_end_to_end(server):
    """Whole-stack determinism: same seed, same client op sequence, same
    injected schedule -- across two independent runs over real sockets."""

    def run(seed):
        plan = FaultPlan(seed=seed, rate=0.3)
        with NinfClient(*server.address, timeout=5.0,
                        retry=fast_retry(6), fault_plan=plan) as client:
            for _ in range(10):
                try:
                    client.list_functions()
                except (ProtocolError, OSError):
                    pass
        return plan.schedule()

    first = run(1997)
    second = run(1997)
    assert first == second
    assert first  # the runs did fault


# -- the availability criterion --------------------------------------------


def test_retry_restores_availability(server):
    """Where a bare client measurably fails, the retrying client reaches
    100% success on the byte-identical fault schedule."""
    n = 40
    kinds = FAILING_KINDS

    def attempt(client):
        try:
            client.list_functions()
            return True
        except (ProtocolError, OSError):
            return False

    bare_plan = FaultPlan(seed=1997, rate=0.15, kinds=kinds)
    with NinfClient(*server.address, timeout=5.0,
                    fault_plan=bare_plan) as bare:
        bare_ok = sum(attempt(bare) for _ in range(n))

    retry_plan = FaultPlan(seed=1997, rate=0.15, kinds=kinds)
    with NinfClient(*server.address, timeout=5.0, retry=fast_retry(8),
                    fault_plan=retry_plan) as retrying:
        retry_ok = sum(attempt(retrying) for _ in range(n))

    assert bare_plan.faults_injected > 0
    assert bare_ok < n, "bare client should measurably fail"
    assert retry_ok == n, "retrying client should reach 100% success"
