"""The fixed cost of a ``Ninf_call`` in Python function calls: a warm
null call runs at most so many on each side of an in-process
``NinfServer``/``NinfClient`` pair, builtins counted too (the ``call``
and ``c_call`` events of a plain profile hook, one per thread).  Each
call costs about a third of a microsecond wherever it is, so this count
is the per-call work that does not show as any one hot spot.  The
ceilings are the counts measured when they were set plus 10%: a change
that puts work back on the path of every call raises the count and
fails here.

The count includes the standard library's own Python functions
(``threading``, ``selectors``, ``socket``), which differ between
interpreter versions, so a ceiling holds for the version it was
measured on and the gate runs only there."""

import sys
import threading
import time

import pytest

from repro.client import NinfClient
from repro.obs import names
from repro.server import NinfServer, Registry

NOOP_IDL = ('Define bench_noop(mode_in int x, mode_out int y) '
            '"benchmark: y = x + 1" Calls "C" bench_noop(x, y);')
CALLS = 200
#: Interpreter version -> (server, client) ceilings.  Measured at 249
#: (server) and 283-286 (client) per call on CPython 3.11.
CEILINGS = {(3, 11): (274, 315)}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] not in CEILINGS,
    reason="call-count ceilings are measured per interpreter version")


class _Count:
    """A profile hook that counts the calls of the thread it is set on:
    Python functions and builtins alike."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, _frame, event, _arg) -> None:
        if event == "call" or event == "c_call":
            self.calls += 1


def _settled(server: NinfServer) -> None:
    """Until the server has counted every reply it owes, and its PE has
    gone back to waiting for work."""
    sent = server.metrics.get(names.TRANSPORT_FRAMES_SENT)
    received = server.metrics.get(names.TRANSPORT_FRAMES_RECEIVED)
    deadline = time.monotonic() + 10.0
    while sent.value() != received.value():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    time.sleep(0.05)


def test_a_warm_null_call_runs_few_python_calls_on_either_side():
    registry = Registry()
    registry.register(NOOP_IDL, lambda x, y: int(x) + 1)
    server = NinfServer(registry, num_pes=2, name="count")
    counts: list[_Count] = []

    def count_this_thread(*_event):
        count = _Count()
        counts.append(count)
        sys.setprofile(count)   # replaces this hook on the thread

    threading.setprofile(count_this_thread)
    try:
        server.start()          # reactor, PE and expiry threads
    finally:
        threading.setprofile(None)
    try:
        with NinfClient(*server.address, timeout=10.0) as client:
            for i in range(20):  # warm: dialled, signature fetched, bound
                assert client.call("bench_noop", i, None) == [i + 1]
            _settled(server)
            before = sum(count.calls for count in counts)
            on_client = _Count()
            sys.setprofile(on_client)
            try:
                for i in range(CALLS):
                    client.call("bench_noop", i, None)
            finally:
                sys.setprofile(None)
            _settled(server)
            on_server = (sum(count.calls for count in counts)
                         - before) / CALLS
    finally:
        server.stop()
    server_ceiling, client_ceiling = CEILINGS[sys.version_info[:2]]
    assert counts, "no server thread was counted"
    assert on_server <= server_ceiling, on_server
    assert on_client.calls / CALLS <= client_ceiling, on_client.calls / CALLS
