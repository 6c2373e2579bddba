"""Isolated timings of public functions, on the workloads' payload sizes
(source **M** of the per-layer metrics).

Each measurement imports what it times itself, so an entry point that a
later PR removes turns that one metric into ``None`` with a reason
instead of aborting the run.  Every measurement gets the same slice of
the time budget and reports a median.
"""

from __future__ import annotations

import multiprocessing
import socket
import statistics
import threading
import time
import uuid
import zlib
from typing import Callable, Optional

import numpy as np

from catalog import BULK_DOUBLES, HOST, LINPACK_N

LINPACK_IDL = (
    "Define linpack(mode_in int n, mode_inout double A[n][n], "
    'mode_inout double b[n]) "LU factorize + solve" '
    'CalcOrder "2*n*n*n/3 + 2*n*n" CommOrder "8*n*n + 20*n" '
    'Calls "C" linpack_solve(n, A, b);')
NOOP_IDL = ('Define noop(mode_in int x, mode_out int y) "no-op" '
            'Calls "C" noop(x, y);')


def median_seconds(fn: Callable[[], object], budget_s: float,
                   batch: int = 1, min_samples: int = 5) -> float:
    """Median seconds per call of ``fn`` over ``budget_s`` (at least
    ``min_samples`` samples); ``batch`` calls share one clock reading."""
    samples = []
    clock = time.perf_counter
    deadline = clock() + budget_s
    while len(samples) < min_samples or clock() < deadline:
        start = clock()
        for _ in range(batch):
            fn()
        samples.append((clock() - start) / batch)
    return statistics.median(samples)


# -- xdr ----------------------------------------------------------------------

def _bulk_array() -> np.ndarray:
    return np.random.default_rng(1997).random(BULK_DOUBLES)


def xdr_encode_bulk_ms(budget, ctx):
    from repro.xdr import XdrEncoder

    array = _bulk_array()
    return 1e3 * median_seconds(
        lambda: XdrEncoder().pack_double_array(array), budget)


def xdr_decode_bulk_ms(budget, ctx):
    from repro.xdr import XdrDecoder, XdrEncoder

    enc = XdrEncoder()
    enc.pack_double_array(_bulk_array())
    payload = enc.getvalue()
    return 1e3 * median_seconds(
        lambda: XdrDecoder(payload).unpack_double_array(), budget)


def xdr_encode_scalar_us(budget, ctx):
    """The scalar mix of one CALL header plus an 8-byte argument."""
    from repro.xdr import XdrEncoder

    logical_id = uuid.uuid4().hex

    def encode():
        enc = XdrEncoder()
        enc.pack_string("bench_noop")
        enc.pack_uhyper(123456)
        enc.pack_string(logical_id)
        enc.pack_uint(1)
        enc.pack_double(0.0)
        enc.pack_opaque(b"\x00" * 8)
        return enc.getvalue()

    return 1e6 * median_seconds(encode, budget, batch=200)


# -- protocol -----------------------------------------------------------------

def _bulk_payload() -> bytes:
    return _bulk_array().tobytes()


def protocol_frame_encode_bulk_ms(budget, ctx):
    from repro.protocol.framing import encode_frame
    from repro.protocol.messages import MessageType

    payload = _bulk_payload()
    return 1e3 * median_seconds(
        lambda: encode_frame(MessageType.CALL, payload), budget)


def protocol_crc32_bulk_ms(budget, ctx):
    """The CRC share of a bulk frame: the same pass ``framing`` makes."""
    payload = _bulk_payload()
    return 1e3 * median_seconds(lambda: zlib.crc32(payload), budget)


def _frame_pipe_seconds(payload: bytes, budget: float, batch: int) -> float:
    from repro.protocol.framing import recv_frame, send_frame
    from repro.protocol.messages import MessageType

    left, right = socket.socketpair()
    received = threading.Semaphore(0)

    def reader():
        try:
            while True:
                recv_frame(right)
                received.release()
        except Exception:   # socket closed: the measurement is over
            pass

    thread = threading.Thread(target=reader, name="perf-frame-reader")
    thread.start()
    try:
        def one_frame():
            send_frame(left, MessageType.CALL, payload)
            received.acquire()
        return median_seconds(one_frame, budget, batch=batch)
    finally:
        left.close()
        thread.join(timeout=10)
        right.close()


def protocol_frame_pipe_bulk_ms(budget, ctx):
    return 1e3 * _frame_pipe_seconds(_bulk_payload(), budget, batch=1)


def protocol_frame_pipe_small_us(budget, ctx):
    return 1e6 * _frame_pipe_seconds(b"\x00" * 64, budget, batch=50)


# -- transport ----------------------------------------------------------------

def _ping_p50_us(server: str, transport: str):
    def measure(budget, ctx):
        from repro.client import NinfClient

        with NinfClient(HOST, ctx["ports"][server],
                        transport=transport) as client:
            if not client.ping():
                raise RuntimeError("ping failed")

            def ping():
                if not client.ping():
                    raise RuntimeError("ping failed")
            return 1e6 * median_seconds(ping, budget, min_samples=50)
    return measure


def transport_connect_ms(budget, ctx):
    from repro.transport import connect

    port = ctx["ports"]["threads"]
    return 1e3 * median_seconds(
        lambda: connect(HOST, port, timeout=10.0).close(), budget,
        min_samples=20)


def _ring_reader(name, capacity, nbytes, conn):
    """Child side of the ring measurement: drain what the parent writes."""
    from repro.transport import ShmRing

    ring = ShmRing.attach(name, capacity)
    try:
        conn.send("ready")
        while conn.recv():
            ring.read_exact(nbytes)
            conn.send("read")
    finally:
        ring.close()
        conn.close()


def transport_shm_ring_mb_per_s(budget, ctx):
    """8 MB through one ``ShmRing``, writer here, reader in a second
    process (spawn context: this process has threads)."""
    from repro.transport import ShmRing

    payload = _bulk_payload()
    ring = ShmRing.create()
    context = multiprocessing.get_context("spawn")
    ours, theirs = context.Pipe()
    reader = context.Process(target=_ring_reader, name="perf-ring-reader",
                             args=(ring.name, ring.capacity, len(payload),
                                   theirs))
    reader.start()
    try:
        theirs.close()
        ours.recv()                                   # "ready"

        def one_transfer():
            ours.send(True)
            ring.write(payload)
            ours.recv()                               # "read"
        seconds = median_seconds(one_transfer, budget)
        ours.send(False)
    finally:
        ours.close()
        reader.join(timeout=10)
        if reader.is_alive():
            reader.kill()
            reader.join()
        ring.close()
    return len(payload) / 1e6 / seconds


# -- server -------------------------------------------------------------------

def server_executor_roundtrip_us(budget, ctx):
    from repro.idl import Signature
    from repro.server import Executor, NinfExecutable

    executable = NinfExecutable(Signature.from_idl(NOOP_IDL),
                                lambda x, y: int(x) + 1)
    executor = Executor(num_pes=1)
    done = threading.Semaphore(0)
    try:
        def roundtrip():
            executor.submit(executable, [1, None],
                            on_complete=lambda job: done.release())
            done.acquire()
        return 1e6 * median_seconds(roundtrip, budget, batch=20)
    finally:
        executor.shutdown()


def server_dedup_us(budget, ctx):
    from repro.protocol.messages import MessageType
    from repro.server import DedupCache

    cache = DedupCache()
    reply = (MessageType.RESULT, b"")
    keys = iter(range(1 << 60))

    def admit():
        key = f"{next(keys):032x}"
        cache.begin(key)
        cache.complete(key, reply)
    return 1e6 * median_seconds(admit, budget, batch=200)


# -- metaserver ---------------------------------------------------------------

def metaserver_scheduler_pick_us(budget, ctx):
    """One in-process pick over a 16-entry directory, mean of the load
    and the bandwidth-aware scheduler."""
    from repro.metaserver import (BandwidthAwareScheduler, Directory,
                                  LoadScheduler)
    from repro.metaserver.schedulers import CallEstimate
    from repro.protocol.messages import ServerInfo

    directory = Directory()
    for i in range(16):
        directory.register(ServerInfo(name=f"s{i}", host=HOST, port=5000 + i,
                                      num_pes=4, functions=("linpack",)))
    schedulers = (LoadScheduler(), BandwidthAwareScheduler())
    estimate = CallEstimate("linpack", comm_bytes=2.9e6, flops=1.4e8)

    def pick():
        for scheduler in schedulers:
            if scheduler.choose(directory.providers("linpack"),
                                estimate) is None:
                raise RuntimeError("scheduler picked nothing")
    return 1e6 * median_seconds(pick, budget, batch=20) / len(schedulers)


# -- obs ----------------------------------------------------------------------

def obs_counter_inc_ns(budget, ctx):
    from repro.obs import MetricsRegistry

    counter = MetricsRegistry().counter("perf_probe_total", "probe")
    return 1e9 * median_seconds(counter.inc, budget, batch=1000)


def obs_histogram_observe_ns(budget, ctx):
    from repro.obs import MetricsRegistry

    histogram = MetricsRegistry().histogram("perf_probe_seconds", "probe")
    return 1e9 * median_seconds(lambda: histogram.observe(0.0017), budget,
                                batch=1000)


def obs_span_us(budget, ctx):
    """One trace with one child span: enabled ``Tracer`` minus
    ``NULL_TRACER``."""
    from repro.obs import Tracer
    from repro.obs.trace import NULL_TRACER

    def cost(tracer):
        def one_trace():
            trace = tracer.trace("ninf.call")
            with trace.span("call.marshal"):
                pass
            trace.end()
        seconds = median_seconds(one_trace, budget / 2, batch=200)
        tracer.clear()
        return seconds
    return 1e6 * (cost(Tracer()) - cost(NULL_TRACER))


def obs_program_tracing_overhead_frac(budget, ctx):
    """``null_call`` p50 with the program's own ``Tracer`` on, over the
    p50 without, minus one; segments alternate so host drift cancels."""
    from repro.client import NinfClient
    from repro.obs import Tracer

    port = ctx["ports"]["async"]
    tracer = Tracer()
    with NinfClient(HOST, port) as plain, \
            NinfClient(HOST, port, tracer=tracer) as traced:
        samples = {plain: [], traced: []}
        for client in (plain, traced):
            client.call("bench_noop", 1, None)
        clock = time.perf_counter
        for _segment in range(4):
            for client in (plain, traced):
                deadline = clock() + budget / 8
                while clock() < deadline:
                    start = clock()
                    client.call("bench_noop", 1, None)
                    samples[client].append(clock() - start)
                tracer.clear()
    return (statistics.median(samples[traced])
            / statistics.median(samples[plain]) - 1.0)


# -- sim ----------------------------------------------------------------------

def sim_engine_events_per_s(budget, ctx):
    """Two processes that only sleep: the bare cost of an event."""
    from repro.sim import Simulator

    rounds = 5000

    def ping_pong():
        sim = Simulator()

        def sleeper():
            for _ in range(rounds):
                yield sim.timeout(1.0)
        sim.process(sleeper())
        sim.process(sleeper())
        sim.run()
        return sim.event_count

    events = ping_pong()
    return events / median_seconds(ping_pong, budget)


def sim_network_reshare_us(budget, ctx):
    """One max-min recomputation with 16 flows on a shared link: a
    short flow joins 15 long ones and leaves again (two reshares)."""
    from repro.sim import Link, Network, Route, Simulator

    sim = Simulator()
    network = Network(sim)
    route = Route([Link("shared", capacity=1e6)])
    for _ in range(15):
        network.transfer(route, 1e15)
    sim.run(until=1.0)

    def join_and_leave():
        network.transfer(route, 1.0)
        sim.run(until=sim.now + 1.0)
        if network.active_flows != 15:
            raise RuntimeError("short flow did not finish")
    return 1e6 * median_seconds(join_and_leave, budget, batch=10) / 2


# -- libs, idl ----------------------------------------------------------------

def libs_linpack_local_mflops(budget, ctx):
    """The paper's "Local" curve: the same solve without Ninf_call."""
    from repro.libs.linpack import (linpack_flops, linpack_matgen,
                                    linpack_solve)

    a0, b0 = linpack_matgen(LINPACK_N, 1997)
    seconds = median_seconds(lambda: linpack_solve(a0.copy(), b0.copy()),
                             budget)
    return linpack_flops(LINPACK_N) / seconds / 1e6


def idl_parse_us(budget, ctx):
    from repro.idl import Signature

    return 1e6 * median_seconds(lambda: Signature.from_idl(LINPACK_IDL),
                                budget, batch=5)


def idl_signature_fetch_ms(budget, ctx):
    """Stage one of the two-stage RPC on a fresh client: dial + fetch."""
    from repro.client import NinfClient

    port = ctx["ports"]["async"]

    def first_fetch():
        with NinfClient(HOST, port) as client:
            client.get_signature("linpack")
    return 1e3 * median_seconds(first_fetch, budget)


MEASUREMENTS = {
    "xdr.encode_bulk_ms": xdr_encode_bulk_ms,
    "xdr.decode_bulk_ms": xdr_decode_bulk_ms,
    "xdr.encode_scalar_us": xdr_encode_scalar_us,
    "protocol.frame_encode_bulk_ms": protocol_frame_encode_bulk_ms,
    "protocol.crc32_bulk_ms": protocol_crc32_bulk_ms,
    "protocol.frame_pipe_bulk_ms": protocol_frame_pipe_bulk_ms,
    "protocol.frame_pipe_small_us": protocol_frame_pipe_small_us,
    "transport.ping_p50_us.async_asyncio": _ping_p50_us("async", "asyncio"),
    "transport.ping_p50_us.async_threads": _ping_p50_us("async", "threads"),
    "transport.ping_p50_us.threads_asyncio": _ping_p50_us("threads", "asyncio"),
    "transport.ping_p50_us.threads_threads": _ping_p50_us("threads", "threads"),
    "transport.connect_ms": transport_connect_ms,
    "transport.shm_ring_MB_per_s": transport_shm_ring_mb_per_s,
    "server.executor_roundtrip_us": server_executor_roundtrip_us,
    "server.dedup_us": server_dedup_us,
    "metaserver.scheduler_pick_us": metaserver_scheduler_pick_us,
    "obs.counter_inc_ns": obs_counter_inc_ns,
    "obs.histogram_observe_ns": obs_histogram_observe_ns,
    "obs.span_us": obs_span_us,
    "obs.program_tracing_overhead_frac": obs_program_tracing_overhead_frac,
    "sim.engine_events_per_s": sim_engine_events_per_s,
    "sim.network_reshare_us": sim_network_reshare_us,
    "libs.linpack_local_mflops": libs_linpack_local_mflops,
    "idl.parse_us": idl_parse_us,
    "idl.signature_fetch_ms": idl_signature_fetch_ms,
}


def measure_all(seconds: float) -> tuple[dict, dict]:
    """Every isolated measurement, ``seconds`` in total.

    Returns ``(values, reasons)``: a measurement whose entry point is
    gone has value ``None`` and its reason in ``reasons``.  The four
    ping arms, connect, signature fetch and the tracing-overhead probe
    run against one untraced child with both server flavours.
    """
    from harness import ServerProc

    budget = seconds / len(MEASUREMENTS)
    values: dict = {}
    reasons: dict = {}
    child = ServerProc("both")
    try:
        ctx = {"ports": child.ports}
        for name, measurement in MEASUREMENTS.items():
            try:
                values[name] = measurement(budget, ctx)
            except (ImportError, AttributeError, TypeError) as exc:
                values[name] = None
                reasons[name] = f"entry point gone: {exc}"
    finally:
        child.shutdown()
    return values, reasons
