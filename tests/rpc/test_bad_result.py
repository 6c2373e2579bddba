"""An executable whose output cannot be marshalled answers ``bad-result``.

Regression: only ``XdrError``/``IdlError`` were caught around
``marshal_outputs``; a ``ValueError`` or ``TypeError`` raised out of
``on_complete`` on the PE thread, no reply was ever sent, the client
blocked until its own timeout (none by default) and the dedup key stayed
"running", so every retry parked behind it hung too.
"""

import time

import pytest

from repro.client import NinfClient
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.protocol import RemoteError
from repro.protocol.messages import MessageType, unpack
from repro.server import Registry
from repro.transport import connect

SCALAR_IDL = 'Define bad_scalar(mode_in int x, mode_out int y) "y is a str";'
ARRAY_IDL = ('Define bad_array(mode_in int x, mode_out double y[x]) '
             '"y is an object()";')
GOOD_IDL = 'Define good(mode_in int x, mode_out int y) "y = x + 1";'

# function -> the exception marshal_outputs raises for what it returns
BAD = {"bad_scalar": ValueError, "bad_array": TypeError}


def build_registry() -> Registry:
    registry = Registry()
    registry.register(SCALAR_IDL, lambda x, y: "abc")
    registry.register(ARRAY_IDL, lambda x, y: object())
    registry.register(GOOD_IDL, lambda x, y: int(x) + 1)
    return registry


@pytest.fixture(params=["blocking"])
def client_cls(request):
    return NinfClient


@pytest.mark.parametrize("function", sorted(BAD))
def test_call_answers_bad_result(server_cls, client_cls, function):
    with server_cls(build_registry(), num_pes=1) as server:
        # The timeout only bounds the failure: at the parent commit the
        # reply never comes.
        with client_cls(*server.address, timeout=5.0) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.call(function, 3, None)
            assert excinfo.value.code == "bad-result"
            # Same connection, same (only) PE: both still serve.
            assert client.call("good", 3, None) == [4]
        assert server.executor.completed == 2


@pytest.mark.parametrize("function", sorted(BAD))
def test_detached_call_answers_bad_result_at_fetch(server_cls, client_cls,
                                                   function):
    with server_cls(build_registry(), num_pes=1) as server:
        with client_cls(*server.address, timeout=5.0) as client:
            handle = client.call_detached(function, 3, None)
            with pytest.raises(RemoteError) as excinfo:
                client.fetch_detached(handle, timeout=5.0)
            assert excinfo.value.code == "bad-result"
            assert client.call("good", 3, None) == [4]


def test_bad_result_completes_the_dedup_key(server_cls):
    """A retry of the same logical call replays the ``bad-result`` reply
    instead of parking behind a key that never settles."""
    payload = bytes(_CallPayload(
        "bad_scalar", Signature.from_idl(SCALAR_IDL), 7, (3, None),
        logical_id="logical-bad").stamp(None, time.monotonic))
    with server_cls(build_registry(), num_pes=1) as server:
        replies = []
        for _attempt in range(2):
            with connect(*server.address, timeout=5.0) as channel:
                channel.send(MessageType.CALL, payload)
                replies.append(channel.recv())
        assert server.executor.completed == 1  # ran once, replayed once
        assert server.dedup.hits == 1
    assert replies[0] == replies[1]
    reply_type, reply = replies[0]
    assert reply_type == MessageType.ERROR
    assert unpack(MessageType.ERROR, reply)[0].code == "bad-result"
