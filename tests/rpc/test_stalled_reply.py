"""A reply to a peer that stopped reading does not hold a PE for good.

On the threaded driver the RESULT is written by the PE thread that ran
the call.  Accepted channels idle without a timeout, so a reply bigger
than the peer's buffers (socket or shm ring) used to block that thread
indefinitely while the executor counted its PE free: one stalled reader
on a 1-PE server stopped all computation.  The write is now bounded by
``endpoint.REPLY_STALL_SECONDS``; past it the connection is given up.
"""

import socket
import time

import numpy as np
import pytest

from repro.client import NinfClient
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol import ProtocolError
from repro.protocol.messages import MessageType
from repro.server import NinfServer, Registry
from repro.transport import Channel, connect, endpoint

BIG_IDL = 'Define big(mode_in int n, mode_out double y[n]) "n zeros";'
GOOD_IDL = 'Define good(mode_in int x, mode_out int y) "y = x + 1";'
BIG_N = 1 << 20  # 8 MB of reply: more than loopback buffers or a ring hold


def build_registry() -> Registry:
    registry = Registry()
    registry.register(BIG_IDL, lambda n, y: np.zeros(int(n)))
    registry.register(GOOD_IDL, lambda x, y: int(x) + 1)
    return registry


def dial_tcp(address) -> Channel:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # Before connect, so the window is small from the first segment.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(address)
    return Channel(sock)


def dial_shm(address) -> Channel:
    channel = connect(*address, timeout=5.0, shm=True)
    assert channel.via_shm
    return channel


@pytest.mark.parametrize("dial", [dial_tcp, dial_shm])
def test_stalled_reader_costs_the_pe_only_the_stall_bound(monkeypatch, dial):
    monkeypatch.setattr(endpoint, "REPLY_STALL_SECONDS", 0.3)
    payload = bytes(_CallPayload(
        "big", Signature.from_idl(BIG_IDL), 1,
        (BIG_N, None)).stamp(None, time.monotonic))
    with NinfServer(build_registry(), num_pes=1) as server:
        with dial(server.address) as stalled:
            stalled.send(MessageType.CALL, payload)  # ... and never recv
            give_up = time.monotonic() + 5.0
            while not server.executor.completed:  # the PE is in the reply
                assert time.monotonic() < give_up
                time.sleep(0.005)
            # The timeout only bounds the failure: unbounded, the only
            # PE sits in the first reply and this call is never taken.
            with NinfClient(*server.address, timeout=5.0) as client:
                assert client.call("good", 3, None) == [4]
            # The stalled connection was given up mid-frame.
            with pytest.raises(ProtocolError):
                stalled.recv(timeout=5.0)
            assert server.executor.completed == 2
            assert server.executor.running == 0
