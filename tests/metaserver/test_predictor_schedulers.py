"""Unit tests for the metaserver schedulers."""

import pytest

from repro.metaserver.directory import Directory
from repro.metaserver.schedulers import (
    BandwidthAwareScheduler,
    CallEstimate,
    LoadScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.protocol.messages import LoadReply, ServerInfo


# ------------------------------------------------------------ schedulers


def entry(directory, name, pes=4, functions=("f",)):
    return directory.register(
        ServerInfo(name=name, host=name, port=1, num_pes=pes,
                   functions=tuple(functions))
    )


def test_round_robin_rotates():
    scheduler = RoundRobinScheduler()
    directory = Directory()
    servers = [entry(directory, f"s{i}") for i in range(3)]
    estimate = CallEstimate("f")
    picks = [scheduler.choose(servers, estimate).info.name for _ in range(6)]
    assert picks == ["s0", "s1", "s2", "s0", "s1", "s2"]


def test_round_robin_empty():
    assert RoundRobinScheduler().choose([], CallEstimate("f")) is None


def test_load_scheduler_ties_deterministic():
    scheduler = LoadScheduler()
    directory = Directory()
    a = entry(directory, "a")
    b = entry(directory, "b")
    assert scheduler.choose([b, a], CallEstimate("f")).info.name == "a"


def test_load_scheduler_per_pe_normalization():
    scheduler = LoadScheduler()
    directory = Directory()
    big = entry(directory, "big", pes=16)
    small = entry(directory, "small", pes=1)
    big.load = LoadReply(num_pes=16, running=8, queued=0,
                         load_average=8.0, completed=0)
    small.load = LoadReply(num_pes=1, running=1, queued=0,
                           load_average=1.0, completed=0)
    # 8/16 = 0.5 < 1/1 = 1.0 -> the big machine wins despite more tasks.
    assert scheduler.choose([small, big], CallEstimate("f")).info.name == "big"


def test_bandwidth_scheduler_validation():
    with pytest.raises(ValueError):
        BandwidthAwareScheduler(per_pe_rate=0.0)
    with pytest.raises(ValueError):
        BandwidthAwareScheduler(default_bandwidth=-1.0)


def test_bandwidth_scheduler_comm_only_without_flops():
    scheduler = BandwidthAwareScheduler()
    directory = Directory()
    near = entry(directory, "near")
    far = entry(directory, "far")
    near.note_bandwidth("site", 5e6)
    far.note_bandwidth("site", 0.1e6)
    estimate = CallEstimate("f", comm_bytes=1e6, flops=None, site="site")
    assert scheduler.choose([far, near], estimate).info.name == "near"


def test_make_scheduler_names_and_unknown():
    assert isinstance(make_scheduler("round-robin"), RoundRobinScheduler)
    assert isinstance(make_scheduler("LOAD"), LoadScheduler)
    assert isinstance(make_scheduler("bandwidth"), BandwidthAwareScheduler)
    with pytest.raises(ValueError):
        make_scheduler("oracle")


def test_directory_basics():
    directory = Directory()
    e = entry(directory, "x", functions=("f", "g"))
    assert len(directory) == 1
    assert directory.providers("g") == [e]
    assert directory.providers("h") == []
    directory.mark_dead("x", 1)
    assert directory.providers("g") == []
    assert directory.unregister("x", 1)
    assert not directory.unregister("x", 1)
