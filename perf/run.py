#!/usr/bin/env python3
"""The benchmark of this repository: six workloads around ``Ninf_call``.

One workload, one pass (what the driver of ``BENCHMARK.json`` runs; the
last line of stdout is the result as one JSON object)::

    python3 perf/run.py --workload null_call --seed 7 --seconds 10 --trace 0

Everything (six workloads, untraced then traced, one JSON file)::

    python3 perf/run.py --seed 1997 --out perf/out/latest.json
    python3 perf/run.py --quick            # about a minute, all checks on
    python3 perf/run.py --self-test        # under 5 s, no sockets

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics: a short untraced reference
trial, the isolated micro-measurements, then one traced trial against a
fresh child.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(PERF_DIR)
sys.path.insert(0, os.path.join(ROOT_DIR, "src"))
sys.path.insert(0, PERF_DIR)

OUT_DIR = os.path.join(PERF_DIR, "out")
FULL_SECONDS = 20.0      # 5 trials x 4 s
QUICK_SECONDS = 2.0
# How a traced pass divides --seconds.
REFERENCE_SHARE, MICRO_SHARE, TRACED_SHARE = 0.25, 0.40, 0.35


def untraced_pass(name: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    import measure
    import metrics
    import stats
    from workloads import RPC_WORKLOADS

    if name == "sim_tables":
        run = measure.measure_sim(seed, seconds)
    else:
        run = measure.measure_rpc(RPC_WORKLOADS[name](seed), seconds)
    values = metrics.end_to_end(run)
    rate, rate_spread = stats.median_and_spread(run.trial_best_rates)
    p50, p50_spread = stats.median_and_spread(run.trial_best_p50s)
    notes = {
        "setup_s": f"median of {len(run.setup_s)} set-ups",
        "calls_per_s": f"best window of the best of "
                       f"{len(run.trial_best_rates)} trials (their median "
                       f"{rate:.6g}, spread {rate_spread:.3f}); all calls: "
                       f"{statistics.median(run.trial_rates):.6g}",
        "call_p50_ms": f"best window (median of trials {1e3 * p50:.6g}, "
                       f"spread {p50_spread:.3f}); all {len(run.latencies)} "
                       f"samples: "
                       f"{1e3 * stats.percentile(run.latencies, 50):.6g}",
        "server_peak_rss_mb": "child at shutdown",
    }
    return _result(name, "end_to_end", values, notes, [run],
                   extras={"trial_spread": {"calls_per_s": rate_spread,
                                            "call_p50_ms": p50_spread}})


def traced_pass(name: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one workload: untraced reference trial,
    isolated measurements, then -- wrappers installed in this process
    only now -- the traced trial."""
    import measure
    import metrics
    import micro
    import stats
    import tracing
    from workloads import RPC_WORKLOADS

    sim = name == "sim_tables"
    if sim:
        reference = measure.measure_sim(
            seed, seconds * (REFERENCE_SHARE + TRACED_SHARE), setups=1)
    else:
        reference = measure.measure_rpc(
            RPC_WORKLOADS[name](seed), seconds * REFERENCE_SHARE, setups=1)
    values = dict.fromkeys(metrics.LAYER_NAMES, 0.0)
    values.update(metrics.counted(reference))
    micro_values, reasons = micro.measure_all(seconds * MICRO_SHARE)
    values.update(micro_values)
    runs = [reference]
    if not sim:
        log = tracing.install()
        traced = measure.measure_rpc(
            RPC_WORKLOADS[name](seed), seconds * TRACED_SHARE, trace=True,
            setups=1)
        runs.append(traced)
        low, high = traced.window_ns
        spans = [row for row in log.dump() + traced.child_report["spans"]
                 if low <= row[tracing.START] <= high]
        mean_latency_us = 1e6 * statistics.fmean(traced.latencies)
        values.update(metrics.traced(spans, log.pid, traced.calls,
                                     mean_latency_us))
        values["perf.tracing_overhead_frac"] = (
            statistics.median(traced.latencies)
            / statistics.median(reference.latencies) - 1.0)
        values["transport.shm_leaked_segments"] += traced.shm_leaked
        _write_spans(name, spans)
        reasons.update({f"tracing:{target}": "entry point gone"
                        for target in log.missing})
    local = values.get("libs.linpack_local_mflops")
    if values["mflops"] and local:
        values["libs.ninf_efficiency"] = (
            values["mflops"] / reference.clients / local)
    assert set(values) == set(metrics.LAYER_NAMES), (
        set(values) ^ set(metrics.LAYER_NAMES))
    notes = {key: f"null: {reason}" for key, reason in reasons.items()}
    samples = len(reference.latencies)
    notes["call_tail_ms"] = (
        f"p{reference.tail_pct:g} of {samples} samples (which support "
        f"p{stats.highest_supported_percentile(samples):g})")
    return _result(name, "per_layer", values, notes, runs)


def _write_spans(name: str, spans: list) -> None:
    import tracing

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for row in spans:
            handle.write(json.dumps(dict(zip(tracing.FIELDS, row))) + "\n")


def _result(name, kind, values, notes, runs, extras=None) -> dict:
    import metrics

    units = {row[0]: row[1] for row in (
        metrics.END_TO_END if kind == "end_to_end" else metrics.PER_LAYER)}
    problems = [p for run in runs for p in run.problems]
    result = {
        "workload": name,
        "kind": kind,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "problems": problems,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
        "notes": notes,
    }
    result.update(extras or {})
    return result


def print_result(result: dict) -> None:
    """Every metric by name, with its unit and sample note."""
    for key, metric in result["metrics"].items():
        note = result["notes"].get(key, "")
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{result['workload']:14s} {key:38s} {shown:>12s} "
              f"{metric['unit']:8s} {note}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"{result['workload']:14s} {'failed_frac':38s} "
          f"{failed_frac:>12.6g} {'ratio':8s} "
          f"{result['failed']} of {result['attempted']} attempted")
    for problem in result["problems"]:
        print(f"{result['workload']:14s} PROBLEM {problem}")


def driver_line(result: dict) -> str:
    """The one JSON object the BENCHMARK.json driver reads."""
    return json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {key: {"value": (0.0 if metric["value"] is None
                                    else metric["value"]),
                          "unit": metric["unit"]}
                    for key, metric in result["metrics"].items()},
    })


def _pass_path(name: str, trace: int) -> str:
    return os.path.join(OUT_DIR, f"pass-{name}-trace{trace}.json")


def run_all(names, seed: int, seconds: float, quick: bool, out: str) -> int:
    """Every workload, untraced then traced, each pass in a process of
    its own exactly as the driver runs it; one JSON file."""
    import subprocess

    import harness

    report = {"environment": harness.environment(seed, seconds, quick),
              "quick": quick, "workloads": {name: {} for name in names}}
    status = 0
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for name in names:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT_DIR, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0:
                print(f"{name} --trace {trace} exited with code "
                      f"{done.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(_pass_path(name, trace), encoding="utf-8") as handle:
                result = json.load(handle)
            report["workloads"][name][kind] = result
            if result["failed"] or result["problems"]:
                status = 1
    report["environment"]["loadavg_1min_end"] = os.getloadavg()[0]
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload only")
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float,
                        help=f"measured seconds per pass (default "
                             f"{FULL_SECONDS:g}; {QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 = end-to-end metrics, "
                             "1 = per-layer metrics; the last stdout line "
                             "is the result as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="short trials; outputs carry \"quick\": true")
    parser.add_argument("--out",
                        default=os.path.join(OUT_DIR, "latest.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        import selftest

        return selftest.main()

    import harness
    from catalog import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {list(WORKLOADS)}")
    if not os.path.isdir(os.path.join(ROOT_DIR, "src", "repro")):
        # A directory holding only the benchmark: nothing to measure.
        print(f"no program under test: {ROOT_DIR}/src/repro is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds or (QUICK_SECONDS if args.quick else FULL_SECONDS)
    if args.workload is None or args.trace is None:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return run_all(names, args.seed, seconds, args.quick, args.out)
    harness.pin(WORKLOADS[args.workload]["cpus"])   # before NumPy loads
    harness.adopt_orphans()
    started = time.perf_counter()
    try:
        one_pass = traced_pass if args.trace else untraced_pass
        result = one_pass(args.workload, args.seed, seconds)
    finally:
        # Every path out: no child, and no helper of ours or of a child
        # (resource trackers of the shm stack), is left behind.
        survivors = harness.kill_stragglers()
        harness.stop_resource_tracker()
        survivors += harness.reap_descendants()
    if survivors:
        result["problems"].append(
            f"{survivors} child process(es) survived the run and were killed")
        result["failed"] += survivors
    print_result(result)
    print(f"# {time.perf_counter() - started:.1f} s wall")
    result["environment"] = harness.environment(args.seed, seconds,
                                                args.quick)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(_pass_path(args.workload, args.trace), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
