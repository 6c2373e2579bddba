"""The benchmark's metrics: declarations, and how each is derived.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and bounds in ``BENCHMARK.json`` (``run.py --self-test`` checks
the two agree).  ``PER_LAYER`` also records what ``BENCHMARK.json`` has
no field for: each layer metric's source, the end-to-end metric and
workload it should move, and a workload where no change is predicted.

Sources: **M** isolated timing of a public function (``micro.py``);
**T** traced run, from wrapper spans (``tracing.py``); **C** a count or
timestamp the program already exposes (``CallRecord``, ``STATS``).
"""

from __future__ import annotations

import statistics

import stats
import tracing
from harness import shm_counts

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("calls_per_s", "1/s", "higher", 0.25),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("server_peak_rss_mb", "MB", "lower", 0.25),
)

BULK = "bulk_echo, bulk_echo_shm"
SMALL = "null_call, brokered_call"

# name, unit, better, source, moves (end-to-end metric @ workloads),
# a workload where no change is predicted, what it is
PER_LAYER = (
    ("call_tail_ms", "ms", "lower", "C",
     "the end-to-end tail; unbounded because on a shared host it measures "
     "the neighbours (run-to-run quartile spread 12-38%)", "sim_tables",
     "the highest percentile with >= 10 samples beyond it in a 10 s run, "
     "fixed per workload: p99 null_call/brokered_call, p90 bulk and "
     "linpack_pair, p75 sim_tables"),
    ("cpu_ms_per_call", "ms", "lower", "C",
     "calls_per_s wherever a process is CPU-bound; unbounded because CPU "
     "time stretches with the host's contention just as wall time does "
     "(quartile spread 8-37%) and has no quiet window to pick", "sim_tables",
     "(child CPU over the trials + parent CPU minus prepare/verify) / "
     "calls"),
    ("xdr.encode_bulk_ms", "ms", "lower", "M",
     f"calls_per_s @ {BULK}; linpack_pair slightly", "null_call",
     "XdrEncoder.pack_double_array, 1 M doubles"),
    ("xdr.decode_bulk_ms", "ms", "lower", "M",
     f"calls_per_s @ {BULK}; linpack_pair slightly", "null_call",
     "XdrDecoder.unpack_double_array, 1 M doubles"),
    ("xdr.encode_scalar_us", "us", "lower", "M",
     f"call_p50_ms @ {SMALL}", "bulk_echo",
     "the scalar packs of one CALL header and an 8-byte argument"),
    ("protocol.frame_encode_bulk_ms", "ms", "lower", "M",
     f"calls_per_s @ {BULK}", "null_call", "encode_frame, 8 MB"),
    ("protocol.crc32_bulk_ms", "ms", "lower", "M",
     "calls_per_s @ bulk_echo_shm if shm frames skip the CRC",
     "bulk_echo", "zlib.crc32 over the same 8 MB: the CRC share of a frame"),
    ("protocol.frame_pipe_bulk_ms", "ms", "lower", "M",
     "calls_per_s, server_peak_rss_mb @ bulk_echo (the _recv_exact join "
     "copy)", "null_call",
     "send_frame -> recv_frame, 8 MB over a socketpair, reader thread"),
    ("protocol.frame_pipe_small_us", "us", "lower", "M",
     "call_p50_ms @ null_call", "bulk_echo", "the same with 64 B"),
    ("protocol.marshal_us_per_call", "us", "lower", "T",
     f"cpu_ms_per_call @ {BULK}, linpack_pair", "null_call",
     "marshal_inputs + unmarshal_outputs (client) and unmarshal_inputs + "
     "marshal_outputs (server), spans inclusive of their xdr children"),
    ("protocol.wire_bytes_per_call", "B", "lower", "T",
     "none unless the wire format changes", "sim_tables",
     "frame bytes the client sent + received per call, headers included; "
     "repeats exactly"),
    ("transport.ping_p50_us.async_asyncio", "us", "lower", "M",
     "call_p50_ms, calls_per_s @ null_call", "sim_tables",
     "client.ping(): AsyncNinfServer, asyncio client (null_call's stack)"),
    ("transport.ping_p50_us.async_threads", "us", "lower", "M",
     "none today: no workload uses this arm", "sim_tables",
     "client.ping(): AsyncNinfServer, blocking-socket client"),
    ("transport.ping_p50_us.threads_asyncio", "us", "lower", "M",
     "call_p50_ms @ brokered_call, linpack_pair", "sim_tables",
     "client.ping(): NinfServer, asyncio client"),
    ("transport.ping_p50_us.threads_threads", "us", "lower", "M",
     "call_p50_ms @ bulk_echo_shm", "sim_tables",
     "client.ping(): NinfServer, blocking-socket client -- does a "
     "blocking-socket driver survive?"),
    ("transport.wire_and_hops_us", "us", "lower", "T",
     "call_p50_ms, call_tail_ms @ null_call", "sim_tables",
     "first send to last recv of the CALL exchange minus the server's "
     "enqueue->complete: wire, thread crossings, loop scheduling"),
    ("transport.connect_ms", "ms", "lower", "M",
     "setup_s everywhere", "sim_tables", "connect() + close()"),
    ("transport.pool_reuse_ratio", "ratio", "higher", "T",
     "call_p50_ms everywhere, only if reuse breaks", "sim_tables",
     "pool checkouts served without a dial / all checkouts; ~1 expected"),
    ("transport.shm_ring_MB_per_s", "MB/s", "higher", "M",
     "calls_per_s @ bulk_echo_shm", "bulk_echo",
     "ShmRing.write -> read_exact, 8 MB, two processes"),
    ("transport.shm_upgrades", "count", "higher", "C",
     "1 on bulk_echo_shm, else 0", "bulk_echo",
     "ninf_shm_upgrades_total of the traced child"),
    ("transport.shm_fallbacks", "count", "lower", "C",
     "must stay 0", "bulk_echo", "ninf_shm_fallbacks_total"),
    ("transport.shm_leaked_segments", "count", "lower", "C",
     "should be 0; 2 per shm child today", "bulk_echo",
     "/dev/shm/psm_* left behind by the run plus segments the child's "
     "resource_tracker reports leaked at shutdown"),
    ("transport.loop_lag_p99_ms", "ms", "lower", "C",
     "call_tail_ms @ null_call", "bulk_echo_shm",
     "ninf_server_loop_lag_seconds over STATS (asyncio servers only)"),
    ("server.t_wait_us", "us", "lower", "C",
     "call_p50_ms @ null_call (dispatcher hand-off); call_tail_ms @ "
     "linpack_pair (PE contention)", "sim_tables",
     "the paper's T_wait: dequeue - enqueue, from CallRecord"),
    ("server.t_comp_us", "us", "lower", "C",
     "calls_per_s @ linpack_pair", "null_call",
     "the paper's T_comp: complete - dequeue"),
    ("client.t_comm_us", "us", "lower", "C",
     f"calls_per_s @ {BULK}", "sim_tables",
     "the paper's T_comm: latency - T_wait - T_comp"),
    ("server.executor_roundtrip_us", "us", "lower", "M",
     f"call_p50_ms, cpu_ms_per_call @ {SMALL}", "bulk_echo",
     "Executor(num_pes=1).submit of a no-op until on_complete"),
    ("server.dedup_us", "us", "lower", "M",
     f"cpu_ms_per_call @ {SMALL}", "bulk_echo",
     "DedupCache.begin + complete on a full cache"),
    ("server.dispatch_p50_us", "us", "lower", "C",
     "cross-check of server.t_wait_us", "sim_tables",
     "ninf_server_dispatch_seconds over STATS (bucketed)"),
    ("server.jobs_ok", "count", "higher", "C",
     "cross-check: equals the harness's ok count", "sim_tables",
     "ninf_server_calls_total{status=ok} delta over the trials"),
    ("server.jobs_shed", "count", "lower", "C",
     "must stay 0", "sim_tables", "ninf_server_jobs_shed_total delta"),
    ("server.cpu_ms_per_call", "ms", "lower", "C",
     "cpu_ms_per_call everywhere; bounds calls_per_s of one GIL-bound "
     "server process from above", "sim_tables",
     "child CPU over the untraced trials / calls"),
    ("client.cpu_ms_per_call", "ms", "lower", "C",
     "cpu_ms_per_call everywhere", "sim_tables",
     "parent CPU minus prepare/verify / calls"),
    ("server.rss_growth_kb_per_call", "kB", "lower", "C",
     "server_peak_rss_mb on bulk workloads (dedup keeps each RESULT)",
     "sim_tables", "child VmRSS growth over the trials / calls"),
    ("metaserver.pick_p50_us", "us", "lower", "T",
     "call_p50_ms, calls_per_s @ brokered_call", "null_call",
     "MetaClient.pick span, median"),
    ("metaserver.pick_share", "ratio", "lower", "T",
     "call_p50_ms @ brokered_call", "null_call",
     "mean pick / mean call latency"),
    ("metaserver.scheduler_pick_us", "us", "lower", "M",
     "call_p50_ms @ brokered_call", "null_call",
     "in-process pick over a 16-entry Directory, mean of LoadScheduler "
     "and BandwidthAwareScheduler"),
    ("obs.counter_inc_ns", "ns", "lower", "M",
     "cpu_ms_per_call @ null_call", "sim_tables", "Counter.inc"),
    ("obs.histogram_observe_ns", "ns", "lower", "M",
     "cpu_ms_per_call @ null_call", "sim_tables", "Histogram.observe"),
    ("obs.span_us", "us", "lower", "M",
     "cpu_ms_per_call @ null_call with tracing on", "sim_tables",
     "one trace + one span: enabled Tracer minus NULL_TRACER"),
    ("obs.program_tracing_overhead_frac", "ratio", "lower", "M",
     "ROADMAP's instrumentation budget (<= 3% of ping latency)",
     "sim_tables",
     "null_call p50 with NinfClient(tracer=Tracer()) / without, - 1"),
    ("sim.engine_events_per_s", "1/s", "higher", "M",
     "calls_per_s @ sim_tables", "null_call",
     "bare Timeout ping-pong processes"),
    ("sim.network_reshare_us", "us", "lower", "M",
     "calls_per_s @ sim_tables", "null_call",
     "one max-min reshare with 16 flows on a shared Link"),
    ("sim.events_total", "count", "lower", "C",
     "exact: changes only if the model changes", "null_call",
     "events executed per pass over the six tables"),
    ("sim.calls_total", "count", "higher", "C",
     "exact: changes only if the model changes", "null_call",
     "Ninf_calls simulated per pass"),
    ("simninf.events_per_call", "count", "lower", "C",
     "calls_per_s @ sim_tables", "null_call", "events_total / calls_total"),
    ("sim.table_wall_ms.table3", "ms", "lower", "C",
     "calls_per_s @ sim_tables", "null_call", "median wall of table3_1pe"),
    ("sim.table_wall_ms.table4", "ms", "lower", "C",
     "calls_per_s @ sim_tables", "null_call", "median wall of table4_4pe"),
    ("sim.table_wall_ms.table5", "ms", "lower", "C",
     "calls_per_s @ sim_tables", "null_call", "median wall of table5_smp"),
    ("sim.table_wall_ms.table6", "ms", "lower", "C",
     "calls_per_s @ sim_tables", "null_call", "median wall of table6_1pe"),
    ("sim.table_wall_ms.table7", "ms", "lower", "C",
     "calls_per_s @ sim_tables", "null_call", "median wall of table7_4pe"),
    ("sim.table_wall_ms.fig10", "ms", "lower", "C",
     "calls_per_s @ sim_tables", "null_call",
     "median wall of fig10_multisite"),
    ("sim_events_per_s", "1/s", "higher", "C",
     "restates calls_per_s @ sim_tables in events", "null_call",
     "events executed / wall over the passes"),
    ("payload_MB_per_s", "MB/s", "higher", "C",
     f"restates calls_per_s @ {BULK} in bytes", "sim_tables",
     "useful argument bytes in+out (16 MB per bulk call, headers "
     "excluded) x calls / sum of latencies"),
    ("mflops", "Mflop/s", "higher", "C",
     "restates calls_per_s @ linpack_pair: the paper's Fig 3 / Table 3 "
     "quantity", "null_call", "linpack_flops(600) x calls / wall, both "
     "clients"),
    ("libs.linpack_local_mflops", "Mflop/s", "higher", "M",
     "calls_per_s @ linpack_pair", "null_call",
     "linpack_solve n=600 in the parent: the paper's Local curve"),
    ("libs.ninf_efficiency", "ratio", "higher", "C",
     "calls_per_s @ linpack_pair", "null_call",
     "per-client mflops / libs.linpack_local_mflops"),
    ("idl.parse_us", "us", "lower", "M", "setup_s only", "null_call",
     "Signature.from_idl of the stock linpack Define"),
    ("idl.signature_fetch_ms", "ms", "lower", "M", "setup_s only",
     "null_call", "fresh client: dial + first get_signature"),
) + tuple(
    (f"{layer}.self_us_per_call", "us", "lower", "T",
     "cpu_ms_per_call and call_p50_ms wherever the layer is on the path",
     "sim_tables",
     f"busy self time of the {layer} layer's wrapper spans per call, both "
     f"processes")
    for layer in tracing.LAYERS
) + (
    ("residual.us_per_call", "us", "lower", "T",
     "what a later PR with spans inside the program should explain",
     "sim_tables",
     "mean traced call latency minus the layers' self times: kernel, "
     "scheduler, thread hops, unwrapped code; never folded into a layer"),
    ("perf.tracing_overhead_frac", "ratio", "lower", "T",
     "how far the traced run is from the untraced one", "sim_tables",
     "traced p50 / untraced p50 - 1, same run"),
)

LAYER_NAMES = tuple(row[0] for row in PER_LAYER)


def end_to_end(run) -> dict:
    """The four end-to-end metrics of one untraced run."""
    return {
        "setup_s": statistics.median(run.setup_s),
        "calls_per_s": max(run.trial_best_rates),
        "call_p50_ms": 1e3 * min(run.trial_best_p50s),
        "server_peak_rss_mb": run.peak_rss_mb,
    }


def _histogram_quantile_us(delta, q: float) -> float:
    bounds, buckets = delta
    if not buckets:
        return 0.0
    value = stats.histogram_quantile(bounds, buckets, q)
    return 0.0 if value is None else 1e6 * value


def counted(run) -> dict:
    """Source **C** metrics of one untraced run (any workload)."""
    values = {
        "call_tail_ms": 1e3 * stats.percentile(run.latencies, run.tail_pct),
        "cpu_ms_per_call": 1e3 * (run.server_cpu_s + run.client_cpu_s)
        / run.calls,
        "server.cpu_ms_per_call": 1e3 * run.server_cpu_s / run.calls,
        "client.cpu_ms_per_call": 1e3 * run.client_cpu_s / run.calls,
        "server.rss_growth_kb_per_call": run.rss_growth_kb / run.calls,
        "transport.shm_leaked_segments": run.shm_leaked,
    }
    if run.sim:
        events, calls = run.sim["events_per_pass"], run.sim["calls_per_pass"]
        values.update({
            "sim.events_total": events,
            "sim.calls_total": calls,
            "simninf.events_per_call": events / calls,
            "sim_events_per_s": events * run.sim["passes"] / run.wall_s,
        })
        values.update({f"sim.table_wall_ms.{name}": wall
                       for name, wall in run.sim["table_wall_ms"].items()})
        return values
    mean_latency = statistics.fmean(run.latencies)
    waits = [dequeue - enqueue for enqueue, dequeue, _ in run.server_stamps]
    comps = [complete - dequeue for _, dequeue, complete in run.server_stamps]
    t_wait, t_comp = statistics.fmean(waits), statistics.fmean(comps)
    rate = statistics.median(run.trial_rates)
    upgrades, fallbacks = shm_counts(run.child_report)
    values.update({
        "server.t_wait_us": 1e6 * t_wait,
        "server.t_comp_us": 1e6 * t_comp,
        "client.t_comm_us": 1e6 * (mean_latency - t_wait - t_comp),
        "server.dispatch_p50_us":
            _histogram_quantile_us(run.stats_delta["dispatch"], 0.5),
        "transport.loop_lag_p99_ms":
            _histogram_quantile_us(run.stats_delta["loop_lag"], 0.99) / 1e3,
        "server.jobs_ok": run.stats_delta["ok"],
        "server.jobs_shed": run.stats_delta["shed"],
        "transport.shm_upgrades": upgrades,
        "transport.shm_fallbacks": fallbacks,
        "payload_MB_per_s": run.units_per_call["payload_bytes"] * rate / 1e6,
        "mflops": run.units_per_call["flops"] * run.calls / run.wall_s / 1e6,
    })
    return values


_MARSHAL_SPANS = {f"protocol.{name}" for name in (
    "marshal_inputs", "unmarshal_outputs", "unmarshal_inputs",
    "marshal_outputs")}
_CLIENT_IO_SPANS = {"transport.Channel.send", "transport.Channel.recv",
                    "transport.FacadeChannel.send",
                    "transport.FacadeChannel.recv"}
_DIAL_SPANS = {"transport.connect", "transport.facade_connect"}
_CALL_SPAN = "client.NinfClient.call_with_record"
_PICK_SPAN = "metaserver.MetaClient.pick"


def traced(spans: list, parent_pid: int, calls: int,
           mean_latency_us: float) -> dict:
    """Source **T** metrics from the spans of one traced trial window."""
    from tracing import (CALL, END, ID, NAME, PARENT, PID, START, VALUE,
                         budget_us_per_call)

    values = budget_us_per_call(spans, calls, mean_latency_us)
    marshal_ns = wire_bytes = checkouts = dials = 0
    picks = []
    exchanges: dict = {}      # call_with_record span id -> [start, end]
    call_spans = {}
    for span in spans:
        name, mine = span[NAME], span[PID] == parent_pid
        if name in _MARSHAL_SPANS:
            marshal_ns += span[END] - span[START]
        elif mine and name in _CLIENT_IO_SPANS and span[CALL]:
            wire_bytes += span[VALUE]
            extent = exchanges.setdefault(span[PARENT],
                                          [span[START], span[END]])
            extent[0] = min(extent[0], span[START])
            extent[1] = max(extent[1], span[END])
        elif mine and name == "transport.ConnectionPool.checkout":
            checkouts += 1
        elif mine and name in _DIAL_SPANS:
            dials += 1
        elif mine and name == _PICK_SPAN:
            picks.append(span[END] - span[START])
        elif mine and name == _CALL_SPAN:
            call_spans[span[ID]] = span[VALUE]
    hops = [extent[1] - extent[0] - call_spans[span_id]
            for span_id, extent in exchanges.items() if span_id in call_spans]
    values.update({
        "protocol.marshal_us_per_call": marshal_ns / 1e3 / calls,
        "protocol.wire_bytes_per_call": wire_bytes / calls,
        "transport.wire_and_hops_us":
            statistics.fmean(hops) / 1e3 if hops else 0.0,
        "transport.pool_reuse_ratio":
            1.0 - dials / checkouts if checkouts else 0.0,
        "metaserver.pick_p50_us":
            statistics.median(picks) / 1e3 if picks else 0.0,
        "metaserver.pick_share":
            statistics.fmean(picks) / 1e3 / mean_latency_us if picks else 0.0,
    })
    return values
