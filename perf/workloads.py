"""The five socket workloads: what runs, against which stack, and how an
output is checked.  All are closed-loop with zero think time over loopback TCP:
a ``Ninf_call`` caller waits for its reply, as the paper's clients do.

An RPC workload names the child's ``stack`` and provides ``connect``
(one handle per client), ``prepare`` (the next call's arguments, from
the seeded generator), ``invoke`` (the timed call) and ``verify``.
``prepare`` and ``verify`` run between calls and are excluded from
latency, rate and client CPU.
"""

from __future__ import annotations

import random

import numpy as np

from catalog import BULK_DOUBLES, HOST, LINPACK_N
from catalog import WORKLOADS as CATALOG
from repro.client import NinfClient
from repro.libs.linpack import linpack_flops, linpack_matgen, linpack_residual
from repro.metaserver import BrokeredClient, MetaClient

LINPACK_RESIDUAL_MAX = 16.0       # the LINPACK driver's pass threshold


class RpcWorkload:
    """Base of the five socket workloads; subclasses fill in the call."""

    name = ""                # key of catalog.WORKLOADS: stack, clients,
                             # cpus and tail_pct come from there
    function = ""            # whose ok-count is cross-checked over STATS
    compute_servers = ()     # keys of ``ports`` that execute calls
    payload_bytes = 0        # useful argument bytes in + out per call
    shm_upgrades = 0         # connections the servers must report upgraded
    flops = 0.0              # floating-point operations per call

    def __init_subclass__(cls) -> None:
        for key, value in CATALOG[cls.name].items():
            setattr(cls, key, value)

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def connect(self, ports: dict) -> list:
        raise NotImplementedError

    def prepare(self, index: int):
        raise NotImplementedError

    def invoke(self, handle, args):
        """One timed call; returns ``(outputs, CallRecord)``."""
        raise NotImplementedError

    def verify(self, index: int, args, outputs) -> bool:
        raise NotImplementedError

    def close(self, handles: list) -> None:
        for handle in handles:
            handle.close()


class NullCall(RpcWorkload):
    name = "null_call"
    function = "bench_noop"
    compute_servers = ("async",)
    payload_bytes = 8

    def connect(self, ports):
        return [NinfClient(HOST, ports["async"])]

    def prepare(self, index):
        return self.rng.randrange(1 << 30)

    def invoke(self, client, x):
        return client.call_with_record("bench_noop", x, None)

    def verify(self, index, x, outputs):
        return int(outputs[0]) == x + 1


class BulkEcho(RpcWorkload):
    name = "bulk_echo"
    function = "bench_echo"
    compute_servers = ("async",)
    payload_bytes = 2 * 8 * BULK_DOUBLES

    def __init__(self, seed):
        super().__init__(seed)
        self.array = np.random.default_rng(seed).random(BULK_DOUBLES)

    def client(self, port):
        return NinfClient(HOST, port)

    def connect(self, ports):
        return [self.client(ports[self.compute_servers[0]])]

    def prepare(self, index):
        # A fresh payload per call for the price of one store.
        self.array[self.rng.randrange(BULK_DOUBLES)] = self.rng.random()
        return self.array

    def invoke(self, client, array):
        return client.call_with_record("bench_echo", array.size, array, None)

    def verify(self, index, array, outputs):
        echoed = outputs[0]
        return (echoed.dtype == array.dtype and echoed.shape == array.shape
                and np.array_equal(echoed.view(np.uint64),
                                   array.view(np.uint64)))


class BulkEchoShm(BulkEcho):
    name = "bulk_echo_shm"
    compute_servers = ("threads",)
    shm_upgrades = 1         # proof that the run went over the ring

    def client(self, port):
        try:
            return NinfClient(HOST, port, shm=True)
        except ValueError:
            # shm negotiates only on the blocking-socket transport today.
            return NinfClient(HOST, port, shm=True, transport="threads")


class LinpackPair(RpcWorkload):
    name = "linpack_pair"
    function = "linpack"
    compute_servers = ("threads",)
    payload_bytes = 2 * (8 * LINPACK_N * LINPACK_N + 8 * LINPACK_N)
    flops = linpack_flops(LINPACK_N)

    def __init__(self, seed):
        super().__init__(seed)
        self.problems = [linpack_matgen(LINPACK_N, seed + i)
                         for i in range(self.clients)]

    def connect(self, ports):
        return [NinfClient(HOST, ports["threads"])
                for _ in range(self.clients)]

    def prepare(self, index):
        a0, b0 = self.problems[index]
        return a0.copy(), b0.copy()   # inout arguments are filled in place

    def invoke(self, client, args):
        a, b = args
        return client.call_with_record("linpack", LINPACK_N, a, b)

    def verify(self, index, args, outputs):
        a0, b0 = self.problems[index]
        return linpack_residual(a0, outputs[1], b0) < LINPACK_RESIDUAL_MAX


class BrokeredCall(RpcWorkload):
    name = "brokered_call"
    function = "bench_noop"
    compute_servers = ("pe0", "pe1")
    payload_bytes = 8

    def connect(self, ports):
        self.registered = {(HOST, ports[name])
                           for name in self.compute_servers}
        self.meta = MetaClient(HOST, ports["meta"])
        return [BrokeredClient(self.meta)]

    def prepare(self, index):
        return self.rng.randrange(1 << 30)

    def invoke(self, broker, x):
        outputs = broker.call("bench_noop", x, None)
        self.chosen, record = broker.records[-1]
        return outputs, record

    def verify(self, index, x, outputs):
        return (int(outputs[0]) == x + 1
                and (self.chosen.host, self.chosen.port) in self.registered)

    def close(self, handles):
        super().close(handles)
        self.meta.close()


# The sixth workload, sim_tables, has no sockets: measure.measure_sim.
RPC_WORKLOADS = {cls.name: cls for cls in (
    NullCall, BulkEcho, BulkEchoShm, LinpackPair, BrokeredCall)}
