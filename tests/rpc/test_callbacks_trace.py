"""Tests for client callbacks."""

import numpy as np
import pytest

from repro.client import NinfClient
from repro.server import NinfServer, Registry

PROGRESS_IDL = """
Define long_task(mode_in int steps, mode_out double result)
"iterative task that reports progress"
CalcOrder "steps"
Calls "C" long_task(steps, result);
"""


def long_task_impl(steps, result, ninf_callback):
    total = 0.0
    for step in range(int(steps)):
        total += step
        ninf_callback((step + 1) / steps, f"step {step + 1}/{steps}")
    return total


def plain_impl(n, out):
    return float(n) * 2


@pytest.fixture
def callback_server():
    registry = Registry()
    registry.register(PROGRESS_IDL, long_task_impl)
    registry.register(
        'Define plain(mode_in int n, mode_out double out) CalcOrder "n";',
        plain_impl,
    )
    with NinfServer(registry, num_pes=2) as server:
        yield server


def test_callbacks_delivered_in_order(callback_server):
    events = []
    with NinfClient(*callback_server.address) as client:
        (result,) = client.call("long_task", 5, None,
                                on_callback=lambda p, m: events.append((p, m)))
    assert result == sum(range(5))
    assert len(events) == 5
    assert [m for _p, m in events] == [f"step {k}/5" for k in range(1, 6)]
    progresses = [p for p, _m in events]
    assert progresses == sorted(progresses)
    assert progresses[-1] == pytest.approx(1.0)


def test_callbacks_optional_for_caller(callback_server):
    """Not passing on_callback must still work (frames are drained)."""
    with NinfClient(*callback_server.address) as client:
        (result,) = client.call("long_task", 3, None)
    assert result == 3.0


def test_non_callback_executable_unaffected(callback_server):
    events = []
    with NinfClient(*callback_server.address) as client:
        (out,) = client.call("plain", 4, None,
                             on_callback=lambda p, m: events.append(p))
    assert out == 8.0
    assert events == []


def test_registry_detects_callback_parameter():
    registry = Registry()
    exe = registry.register(PROGRESS_IDL, long_task_impl)
    assert exe.wants_callback
    exe2 = registry.register(
        'Define f(mode_in int n, mode_out double y) CalcOrder "n";',
        plain_impl,
    )
    assert not exe2.wants_callback


def test_invoke_injects_noop_callback_when_none():
    """Direct invoke without a callback must not crash the executable."""
    from repro.idl import Signature
    from repro.server.registry import NinfExecutable

    exe = NinfExecutable(Signature.from_idl(PROGRESS_IDL), long_task_impl)
    outputs = exe.invoke([3, None])
    assert outputs == [3.0]
