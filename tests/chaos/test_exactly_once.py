"""Exactly-once CALL under chaos: drop_post + retry must never
double-execute and never lose a result (DESIGN.md §3.5).

A DROP_POST fault kills the connection after the request frame is on
the wire, so the server executes but the reply is lost — the classic
"did it run?" ambiguity.  With ``retry_calls`` the client resubmits the
same ``logical_id``; the server's dedup cache replays the parked reply
instead of executing again.
"""

import numpy as np
import pytest

from repro.client import NinfClient
from repro.obs import names
from repro.protocol.messages import MessageType
from repro.server import NinfServer, Registry
from repro.transport import FaultPlan
from repro.transport.endpoint import Connection
from repro.transport.faults import DROP_POST
from repro.xdr import bulk
from tests.chaos.conftest import fast_retry

BUMP_IDL = ('Define bump(mode_in int n, mode_out int doubled) '
            '"records the call and doubles n";')
ECHO_IDL = ('Define bulk_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "records A[0] and returns A";')
DOUBLES = bulk.REGION_MIN // 8      # a bulk region: held in the dedup cache


def make_env():
    executions = []
    registry = Registry()

    def bump(n, doubled):
        executions.append(int(n))
        return 2 * int(n)

    def bulk_echo(n, a, b):
        executions.append(int(a[0]))
        return a

    registry.register(BUMP_IDL, bump)
    registry.register(ECHO_IDL, bulk_echo)
    return registry, executions


def warm(client, function="bump"):
    """Cache the signature so faults only ever hit CALL frames."""
    with NinfClient(client.host, client.port) as clean:
        client._signatures[function] = clean.get_signature(function)


@pytest.mark.parametrize("shm", [False, True], ids=["socket", "ring"])
def test_n_logical_calls_execute_exactly_n_times(shm):
    """Each reply is an argument array held by reference in the dedup
    cache; every replay, over either medium, is the array it sent."""
    registry, executions = make_env()
    rng = np.random.default_rng(1997)
    n = 20
    plan = FaultPlan(seed=1997, rate=0.3, kinds=(DROP_POST,))
    with NinfServer(registry, num_pes=2) as server:
        with NinfClient(*server.address, timeout=5.0,
                        retry=fast_retry(6), retry_calls=True,
                        fault_plan=plan, shm=shm) as client:
            warm(client, "bulk_echo")
            for i in range(n):
                array = rng.random(DOUBLES)
                array[0] = i
                (echoed,) = client.call("bulk_echo", DOUBLES, array, None)
                assert echoed.tobytes() == array.tobytes()
        assert plan.faults_injected >= 1  # chaos actually happened
        assert server.dedup.hits >= 1  # ...and dedup absorbed it
        upgrades = server.metrics.counter(names.SHM_UPGRADES).value()
        assert (upgrades >= 1) is shm
    assert sorted(executions) == list(range(n))  # exactly once each


def test_without_retry_the_call_is_simply_lost():
    """The control: a bare client (no call retry) under the same plan
    surfaces the fault to the caller, who cannot tell whether the
    server ran the call (an RST may or may not beat the request frame
    to the server) — exactly the ambiguity retry+dedup resolves."""
    registry, executions = make_env()
    plan = FaultPlan(seed=1997, rate=1.0, kinds=(DROP_POST,),
                     max_faults=1)
    with NinfServer(registry, num_pes=2) as server:
        with NinfClient(*server.address, timeout=5.0,
                        fault_plan=plan) as client:
            warm(client)
            with pytest.raises(OSError):
                client.call("bump", 1, None)
    assert len(executions) <= 1  # ran at most once; result lost either way


def test_lost_call_accepted_replays_the_same_ticket():
    """Detached flavor: when CALL_ACCEPTED is lost, the retried submit
    must get the *original* ticket back, not enqueue a second job."""
    registry, executions = make_env()
    plan = FaultPlan(seed=11, rate=1.0, kinds=(DROP_POST,), max_faults=1)
    with NinfServer(registry, num_pes=2) as server:
        with NinfClient(*server.address, timeout=5.0,
                        retry=fast_retry(6), retry_calls=True,
                        fault_plan=plan) as client:
            warm(client)
            call = client.call_detached("bump", 21, None)
            assert client.fetch_detached(call, timeout=5.0) == [42]
        assert plan.faults_injected == 1
    assert executions == [21]


def test_a_lost_fetch_reply_is_fetched_again():
    """The first FETCH's RESULT never reaches the client (its connection
    is shut down instead): the retried FETCH gets the same result."""
    registry, executions = make_env()
    with NinfServer(registry, num_pes=2) as server:
        fetch = server._handlers[int(MessageType.FETCH_RESULT)]
        lost = []

        class LoseTheResult(Connection):
            def __init__(self, conn):
                self.conn = conn

            def send(self, msg_type, payload=b""):
                if msg_type == MessageType.RESULT and not lost:
                    lost.append(msg_type)
                    self.conn.channel.shutdown()
                else:
                    self.conn.send(msg_type, payload)

        server.register_handler(
            MessageType.FETCH_RESULT,
            lambda conn, payload: fetch(LoseTheResult(conn), payload))
        with NinfClient(*server.address, timeout=5.0,
                        retry=fast_retry(3)) as client:
            call = client.call_detached("bump", 21, None)
            assert client.fetch_detached(call, timeout=5.0) == [42]
    assert lost and executions == [21]
