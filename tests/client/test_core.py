"""The sans-IO client core, driven by a scripted wire: no sockets, no
sleeps.  Each test answers the requests a ``repro.client.core``
operation yields and checks what it asked for and what it concluded."""

import inspect
import random

import pytest

from repro.client import NinfClient, core
from repro.client.core import Checkout, ClientState, Exchange, Recv, Send, \
    Sleep
from repro.idl import Signature
from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.marshal import marshal_outputs
from repro.protocol.messages import BusyReply, JobTimestamps, MessageType, \
    pack, unpack
from repro.transport import RetryPolicy

DOUBLE_IDL = 'Define double_it(mode_in int n, mode_out int m) "m = 2n";'
SIGNATURE = Signature.from_idl(DOUBLE_IDL)
NOW = 1000.0


class FakePool:
    pooling = True

    def __init__(self):
        self.checked_in, self.discarded = [], []

    def checkin(self, channel):
        self.checked_in.append(channel)

    def discard(self, channel):
        self.discarded.append(channel)


def make_state(**kwargs) -> ClientState:
    settings = dict(timeout=5.0, clock=lambda: NOW, retry=None, metrics=None,
                    tracer=None, retry_calls=False, call_budget=None)
    settings.update(kwargs)
    state = ClientState("server.invalid", 1, **settings)
    state._pool = FakePool()
    state._signatures["double_it"] = SIGNATURE
    return state


class Wire:
    """The scripted driver.  ``Checkout`` hands out ``ch1``, ``ch2``...;
    ``Send`` keeps a copy of the payload; each ``Recv``/``Exchange``
    takes the next scripted frame -- an exception to throw in, a
    ``(type, payload)`` pair, or a function of the last CALL header
    returning one."""

    def __init__(self, *frames):
        self.frames = list(frames)
        self.requests, self.sent, self.slept = [], [], []

    def answer(self, request):
        self.requests.append(request)
        if isinstance(request, Checkout):
            return f"ch{sum(isinstance(r, Checkout) for r in self.requests)}"
        if isinstance(request, Send):
            self.sent.append(bytes(request.payload))
            return None
        if isinstance(request, Sleep):
            self.slept.append(request)
            return None
        assert isinstance(request, (Recv, Exchange))
        frame = self.frames.pop(0)
        if callable(frame):
            frame = frame(unpack(MessageType.CALL, self.sent[-1])[0])
        if isinstance(frame, BaseException):
            raise frame
        return frame

    def run(self, operation):
        try:
            request = next(operation)
            while True:
                try:
                    answer = self.answer(request)
                except Exception as exc:
                    request = operation.throw(exc)
                else:
                    request = operation.send(answer)
        except StopIteration as done:
            return done.value


def result_for(call_id_of=lambda header: header.call_id, value=14):
    def frame(header):
        return MessageType.RESULT, pack(
            MessageType.RESULT, call_id_of(header),
            JobTimestamps(1.0, 2.0, 3.0),
            marshal_outputs(SIGNATURE, [7, value]))
    return frame


def busy(retry_after):
    return MessageType.BUSY, pack(
        MessageType.BUSY,
        BusyReply(retry_after=retry_after, reason="queue-full"))


def callback_for(call_id_of, progress, message):
    def frame(header):
        return MessageType.CALLBACK, pack(
            MessageType.CALLBACK, call_id_of(header), progress, message)
    return frame


@pytest.mark.parametrize("budget, slept", [(5.0, 0.3), (0.25, 0.25)])
def test_busy_then_result_sleeps_once_and_restamps_twelve_bytes(budget, slept):
    policy = RetryPolicy(max_attempts=3, base_delay=0.001,
                         rng=random.Random(1))
    state = make_state(retry=policy, retry_calls=True)
    wire = Wire(busy(0.3), result_for())
    outputs, record = wire.run(core.call_with_record(
        state, "double_it", 7, None, timeout=budget))

    assert outputs == [14] and record.server.wait == 1.0
    assert [type(r) for r in wire.requests] == [
        Checkout, Send, Recv, Sleep, Checkout, Send, Recv]
    assert wire.slept == [Sleep(slept, backoff=True)]
    first, second = wire.sent
    differing = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    assert len(first) == len(second)
    assert differing and differing[-1] - differing[0] < 12
    headers = [unpack(MessageType.CALL, p)[0] for p in wire.sent]
    assert [h.attempt for h in headers] == [1, 2]
    assert headers[0].logical_id == headers[1].logical_id
    assert headers[0].budget == headers[1].budget == budget  # frozen clock
    assert state._pool.discarded == ["ch1"]
    assert state._pool.checked_in == ["ch2"]
    assert (state.attempts, state.retries, state.faults_seen) == (2, 1, 0)
    assert (policy.attempts, policy.retries) == (2, 1)


def test_callbacks_reach_on_callback_only_for_the_matching_call():
    state = make_state()
    seen = []
    wire = Wire(callback_for(lambda h: h.call_id, 0.25, "quarter"),
                callback_for(lambda h: h.call_id + 1, 0.5, "not mine"),
                callback_for(lambda h: h.call_id, 1.0, "done"),
                result_for())
    outputs, _record = wire.run(core.call_with_record(
        state, "double_it", 7, None,
        on_callback=lambda progress, message: seen.append((progress,
                                                           message))))
    assert outputs == [14]
    assert seen == [(0.25, "quarter"), (1.0, "done")]
    assert state._pool.checked_in == ["ch1"]


def test_result_for_another_call_burns_the_channel():
    state = make_state()
    wire = Wire(result_for(lambda h: h.call_id + 1))
    with pytest.raises(ProtocolError, match="result for call"):
        wire.run(core.call_with_record(state, "double_it", 7, None))
    assert state._pool.discarded == ["ch1"]
    assert state._pool.checked_in == []
    assert not state.records


def test_transient_error_without_retry_calls_propagates_after_one_attempt():
    state = make_state(retry=RetryPolicy(max_attempts=5))
    wire = Wire(ConnectionClosed("peer went away"))
    with pytest.raises(ConnectionClosed):
        wire.run(core.call_with_record(state, "double_it", 7, None))
    assert [type(r) for r in wire.requests] == [Checkout, Send, Recv]
    assert (state.attempts, state.retries, state.faults_seen) == (1, 0, 1)
    assert state._pool.discarded == ["ch1"]


def test_fetch_polls_with_plain_sleeps_until_the_result():
    state = make_state()
    call = core.DetachedCall(client=state, function="double_it",
                             args=(7, None), signature=SIGNATURE, ticket=99,
                             call_id=5, submit_time=NOW, input_bytes=4)
    wire = Wire((MessageType.RESULT_PENDING, b""),
                result_for(lambda _header: 99)(None))
    assert wire.run(core.fetch_detached(state, call,
                                        poll_interval=0.5)) == [14]
    poll = Exchange(MessageType.FETCH_RESULT,
                    pack(MessageType.FETCH_RESULT, 99))
    assert wire.requests == [poll, Sleep(0.5), poll]
    assert call.record is state.records[0]


# -- one retry schedule, three ways to sleep it --------------------------------

class DeadPool:
    pooling = True

    def lease(self, host, port):
        raise ConnectionResetError("down")


def seeded_policy(sleep):
    return RetryPolicy(max_attempts=5, base_delay=0.01,
                       rng=random.Random(1997), sleep=sleep)


def test_seeded_policy_sleeps_the_same_schedule_on_every_path():
    def fail():
        raise ConnectionResetError("down")

    via_run = []
    with pytest.raises(ConnectionResetError):
        seeded_policy(via_run.append).run(fail)

    via_blocking = []
    client = NinfClient("server.invalid", 1,
                        retry=seeded_policy(via_blocking.append))
    client._pool = DeadPool()
    assert client.ping() is False

    assert len(via_run) == 4 and all(d > 0 for d in via_run)
    assert via_run == via_blocking
    assert client.retries == 4
    assert client.faults_seen == 5


def test_ninf_client_has_no_transport_knob():
    parameters = inspect.signature(NinfClient).parameters
    assert "transport" not in parameters
    assert parameters["shm"].default is False
    assert len(parameters) == 13
