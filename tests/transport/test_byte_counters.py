"""The byte counters count a frame as it is on its medium.

``ninf_transport_bytes_sent_total`` and ``..._received_total`` add
:func:`~repro.protocol.framing.frame_size` per frame: the header, the
region table, the bytes outside the regions and each region, every part
with its pad -- ``len(encode_frame(...))``, byte for byte.  Checked for
frames with no, one and two bulk regions over every pad residue, on a
socket channel, on the reactor's ``received`` and on a shm ring.
"""

import socket
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry, names
from repro.protocol.framing import encode_frame, frame_size
from repro.protocol.messages import MessageType
from repro.transport import Channel, Endpoint, ShmRing, ShmTransport, \
    connect
from repro.xdr import XdrEncoder, bulk
from tests.rpc.test_async_close import wait_until


@pytest.fixture(autouse=True)
def small_regions(monkeypatch):
    """An array of two ``int32`` and up is a bulk region, so a region's
    size can take every residue a pad is cut to."""
    monkeypatch.setattr(bulk, "REGION_MIN", 8)


def _payloads():
    """Payloads with 0, 1 and 2 regions, whose header part and regions
    end at every residue modulo ``framing.ALIGN`` they can have: any for
    plain bytes, a multiple of 4 for XDR."""
    for size in range(40):
        yield bytes(range(size))
    for regions in (1, 2):
        for words in range(4):
            for count in range(2, 6):
                enc = XdrEncoder()
                for word in range(words):
                    enc.pack_uint(word)
                for region in range(regions):
                    enc.pack_ndarray(np.arange(count + region,
                                               dtype=np.int32))
                payload = enc.payload()
                assert len(payload.regions) == regions
                yield payload


def _expected(covers_payload=True):
    return [len(encode_frame(MessageType.HELLO, payload,
                             covers_payload=covers_payload))
            for payload in _payloads()]


def _bytes(registry, name):
    return int(registry.counter(name).value())


def test_frame_size_is_the_encoded_length():
    for payload, size in zip(_payloads(), _expected()):
        assert frame_size(payload) == size


def _metered_pair(left, right):
    sender, receiver = Channel(left), Channel(right)
    sender.metrics, receiver.metrics = MetricsRegistry(), MetricsRegistry()
    return sender, receiver


def _exchange(sender, receiver):
    """Every payload from ``sender`` to ``receiver``, one thread each
    way so no send waits on a full buffer."""
    thread = threading.Thread(target=lambda: [
        sender.send(MessageType.HELLO, payload, timeout=5.0)
        for payload in _payloads()])
    thread.start()
    for payload in _payloads():
        msg_type, got = receiver.recv(timeout=5.0)
        assert msg_type == MessageType.HELLO and len(got) == len(payload)
    thread.join(5.0)
    assert not thread.is_alive()


def test_a_socket_channel_counts_the_frame_on_the_wire():
    left, right = socket.socketpair()
    sender, receiver = _metered_pair(left, right)
    with sender, receiver:
        _exchange(sender, receiver)
    expected = sum(_expected())
    assert _bytes(sender.metrics, names.TRANSPORT_BYTES_SENT) == expected
    assert _bytes(receiver.metrics,
                  names.TRANSPORT_BYTES_RECEIVED) == expected


def test_a_ring_channel_counts_the_frame_in_the_ring():
    left, right = socket.socketpair()
    sender, receiver = _metered_pair(left, right)
    ring, idle = ShmRing.create(1 << 16), ShmRing.create(1 << 12)
    sender.attach_io(ShmTransport(
        send_ring=ShmRing.attach(ring.name, ring.capacity),
        recv_ring=ShmRing.attach(idle.name, idle.capacity)))
    receiver.attach_io(ShmTransport(send_ring=idle, recv_ring=ring))
    with sender, receiver:
        _exchange(sender, receiver)
    expected = sum(_expected(covers_payload=False))
    assert _bytes(sender.metrics, names.TRANSPORT_BYTES_SENT) == expected
    assert _bytes(receiver.metrics,
                  names.TRANSPORT_BYTES_RECEIVED) == expected


def test_the_reactor_counts_what_it_received():
    seen = []
    registry = MetricsRegistry()
    with Endpoint(metrics=registry) as endpoint:
        endpoint.register_handler(
            MessageType.HELLO, lambda conn, payload: seen.append(payload))
        with connect(*endpoint.address, timeout=5.0) as channel:
            for payload in _payloads():
                channel.send(MessageType.HELLO, payload)
            count = len(_expected())
            assert wait_until(lambda: len(seen) == count)
    assert _bytes(registry, names.TRANSPORT_BYTES_RECEIVED) \
        == sum(_expected(covers_payload=False))
