"""``ninf-bench`` -- repeatable performance benchmarks.

Three subcommands::

    ninf-bench connections [--connections N]
                           [--min-sustained N] [--max-p95-ms MS]
                           [--json -|PATH]

        the C10K idle-plus-ping benchmark of
        :mod:`repro.bench.connections`; with acceptance thresholds set
        it exits non-zero when the run misses them (the CI contract).

    ninf-bench rpc [--sim] [--stages 8,16,32 | --start/--factor/--count]
                   [--processes N] [--servers N] [--json -|PATH]

        the DiPerF-style multi-process load ramp of
        :mod:`repro.bench.rpc` -- live worker processes against a
        server fleet, or (``--sim``) the identical schedule on
        the simulator, byte-deterministically.

    ninf-bench marshal [--sizes N,N,...] [--repeats N]
                       [--min-speedup X] [--json -|PATH]

        the bulk-vs-scalar XDR codec microbench of
        :mod:`repro.bench.marshal`; ``--min-speedup`` makes it exit
        non-zero when the headline (largest-double-array) encode+decode
        speedup falls short (the CI contract for the PR-8 fast path).

    ninf-bench trajectory [--dir D] [--baseline B --fresh F] [tolerances]

        the performance record: list every committed ``BENCH_*.json``,
        or gate a fresh report against a baseline (exit 1 on
        regression, 2 on a schema/comparability error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ninf-bench",
        description="Ninf reproduction performance benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    conn = sub.add_parser(
        "connections",
        help="C10K idle-plus-ping ramp against the server's reactor")
    conn.add_argument("--connections", type=int, default=5000,
                      help="asyncio-client connection target "
                           "(default: %(default)s)")
    conn.add_argument("--output", type=Path,
                      default=Path("BENCH_asyncio.json"),
                      help="report path (default: %(default)s)")
    conn.add_argument("--json", metavar="DEST", default=None,
                      help="write the JSON report to DEST; '-' means "
                           "stdout (suppresses progress output)")
    conn.add_argument("--min-sustained", type=int, default=None,
                      help="fail (exit 1) if the server sustains "
                           "fewer connections than this")
    conn.add_argument("--max-p95-ms", type=float, default=None,
                      help="fail (exit 1) if the asyncio clients' ping "
                           "p95 exceeds this many milliseconds")
    conn.add_argument("--quiet", action="store_true",
                      help="suppress progress lines")

    rpc = sub.add_parser(
        "rpc",
        help="DiPerF-style staged load ramp (live processes or --sim)")
    rpc.add_argument("--sim", action="store_true",
                     help="run the schedule on the simulator "
                          "(deterministic; the CI mode)")
    rpc.add_argument("--stages", default=None, metavar="N,N,...",
                     help="explicit strictly-increasing client counts "
                          "(overrides --start/--factor/--count)")
    rpc.add_argument("--start", type=int, default=4,
                     help="ramp start clients (default: %(default)s)")
    rpc.add_argument("--factor", type=float, default=2.0,
                     help="ramp growth factor (default: %(default)s)")
    rpc.add_argument("--count", type=int, default=7,
                     help="ramp stage count (default: %(default)s)")
    rpc.add_argument("--duration", type=float, default=3.0,
                     help="seconds per stage (default: %(default)s)")
    rpc.add_argument("--think", type=float, default=0.0,
                     help="per-call think time in seconds "
                          "(default: %(default)s)")
    rpc.add_argument("--seed", type=int, default=1997,
                     help="schedule/workload seed (default: %(default)s)")
    rpc.add_argument("--processes", type=int, default=4,
                     help="client worker processes, live mode "
                          "(default: %(default)s)")
    rpc.add_argument("--servers", type=int, default=1,
                     help="servers in the fleet, live mode "
                          "(default: %(default)s)")
    rpc.add_argument("--num-pes", type=int, default=4,
                     help="PEs per server (default: %(default)s)")
    rpc.add_argument("--max-queued", type=int, default=None,
                     help="server admission-queue bound (default: 128 "
                          "live, 8 sim)")
    rpc.add_argument("--spin-seconds", type=float, default=None,
                     help="live per-call service time (default: 0.002)")
    rpc.add_argument("--service-seconds", type=float, default=0.05,
                     help="sim per-call service time "
                          "(default: %(default)s)")
    rpc.add_argument("--retry-calls", action="store_true",
                     help="live clients retry shed/failed calls "
                          "(exactly-once path)")
    rpc.add_argument("--output", type=Path, default=None,
                     help="report path (default: BENCH_rpc.json live, "
                          "BENCH_rpc_sim.json sim)")
    rpc.add_argument("--json", metavar="DEST", default=None,
                     help="write the JSON report to DEST; '-' means "
                          "stdout (suppresses progress output)")
    rpc.add_argument("--quiet", action="store_true",
                     help="suppress progress lines")

    marshal = sub.add_parser(
        "marshal",
        help="bulk-vs-scalar XDR codec microbench")
    marshal.add_argument("--sizes", default=None, metavar="N,N,...",
                         help="element counts per dtype (default: "
                              "1000,100000,1000000)")
    marshal.add_argument("--repeats", type=int, default=3,
                         help="best-of repetitions per case "
                              "(default: %(default)s)")
    marshal.add_argument("--seed", type=int, default=1997,
                         help="value-generation seed "
                              "(default: %(default)s)")
    marshal.add_argument("--output", type=Path,
                         default=Path("BENCH_marshal.json"),
                         help="report path (default: %(default)s)")
    marshal.add_argument("--json", metavar="DEST", default=None,
                         help="write the JSON report to DEST; '-' means "
                              "stdout (suppresses progress output)")
    marshal.add_argument("--min-speedup", type=float, default=None,
                         help="fail (exit 1) if the headline speedup "
                              "is below this")
    marshal.add_argument("--quiet", action="store_true",
                         help="suppress progress lines")

    traj = sub.add_parser(
        "trajectory",
        help="list committed BENCH_*.json reports or gate fresh vs "
             "baseline")
    traj.add_argument("--dir", type=Path, default=Path("."),
                      help="directory holding BENCH_*.json "
                           "(default: %(default)s)")
    traj.add_argument("--baseline", type=Path, default=None,
                      help="baseline report to gate against")
    traj.add_argument("--fresh", type=Path, default=None,
                      help="fresh report to gate")
    traj.add_argument("--max-goodput-drop", type=float, default=0.15,
                      help="tolerated fractional peak-goodput drop "
                           "(default: %(default)s)")
    traj.add_argument("--max-p95-rise", type=float, default=0.50,
                      help="tolerated fractional p95 rise at the peak "
                           "stage (default: %(default)s)")
    traj.add_argument("--max-saturation-drop", type=float, default=0.30,
                      help="tolerated fractional saturation-clients "
                           "drop (default: %(default)s)")
    return parser


def _cmd_connections(args) -> int:
    from repro.bench.connections import run_connections_benchmark

    to_stdout = args.json == "-"
    quiet = args.quiet or to_stdout
    log = (lambda *a, **k: None) if quiet else print
    output = None if to_stdout else (
        Path(args.json) if args.json else args.output)
    report = run_connections_benchmark(
        connections=args.connections,
        output=output, log=log)
    if to_stdout:
        import json as json_mod

        print(json_mod.dumps(report, indent=2, sort_keys=True))
    sustained = report["async"]["sustained_connections"]
    ping = report["async"]["ping"]
    p95 = ping.get("p95_ms")
    if not to_stdout:
        print(f"async: {sustained} connections, p95 ping {p95} ms, "
              f"{ping['throughput_per_s']} pings/s")
    failures = []
    if args.min_sustained is not None and sustained < args.min_sustained:
        failures.append(f"sustained {sustained} < --min-sustained "
                        f"{args.min_sustained}")
    if args.max_p95_ms is not None and (p95 is None
                                        or p95 > args.max_p95_ms):
        failures.append(f"ping p95 {p95} ms > --max-p95-ms "
                        f"{args.max_p95_ms}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_rpc(args) -> int:
    from repro.bench.rpc import (
        DEFAULT_SPIN_SECONDS,
        run_rpc_benchmark,
        run_rpc_sim,
    )
    from repro.bench.schema import dump_report
    from repro.bench.stages import build_ramp, parse_stage_list

    if args.stages is not None:
        schedule = parse_stage_list(args.stages, duration_s=args.duration,
                                    think_s=args.think, seed=args.seed)
    else:
        schedule = build_ramp(start=args.start, factor=args.factor,
                              count=args.count, duration_s=args.duration,
                              think_s=args.think, seed=args.seed)
    to_stdout = args.json == "-"
    quiet = args.quiet or to_stdout
    log = (lambda *a, **k: None) if quiet else print
    if to_stdout:
        output = None
    elif args.json is not None:
        output = Path(args.json)
    elif args.output is not None:
        output = args.output
    else:
        output = Path("BENCH_rpc_sim.json" if args.sim
                      else "BENCH_rpc.json")
    if args.sim:
        max_queued = 8 if args.max_queued is None else args.max_queued
        report = run_rpc_sim(schedule, num_pes=args.num_pes,
                             max_queued=max_queued,
                             service_seconds=args.service_seconds,
                             output=output, log=log)
    else:
        max_queued = 128 if args.max_queued is None else args.max_queued
        spin = (DEFAULT_SPIN_SECONDS if args.spin_seconds is None
                else args.spin_seconds)
        report = run_rpc_benchmark(schedule, processes=args.processes,
                                   servers=args.servers,
                                   num_pes=args.num_pes,
                                   max_queued=max_queued,
                                   spin_seconds=spin,
                                   retry_calls=args.retry_calls,
                                   output=output, log=log)
    if to_stdout:
        print(dump_report(report, None), end="")
    else:
        saturation = report["saturation"]
        knee = (f"knee at {saturation['clients']:g} clients "
                f"({saturation['goodput_per_s']}/s)"
                if saturation["detected"] else "no knee detected")
        peak = max(row["goodput_per_s"] for row in report["stages"])
        print(f"{report['mode']}: peak {peak}/s, {knee}, "
              f"cross-check "
              f"{'ok' if report['cross_check']['consistent'] else 'FAIL'}")
    return 0


def _cmd_marshal(args) -> int:
    from repro.bench.marshal import DEFAULT_SIZES, run_marshal_benchmark
    from repro.bench.schema import dump_report

    if args.sizes is not None:
        sizes = tuple(int(part) for part in args.sizes.split(","))
        if not sizes or any(size < 1 for size in sizes):
            print("marshal: --sizes must be positive integers",
                  file=sys.stderr)
            return 2
    else:
        sizes = DEFAULT_SIZES
    to_stdout = args.json == "-"
    quiet = args.quiet or to_stdout
    log = (lambda *a, **k: None) if quiet else print
    output = None if to_stdout else (
        Path(args.json) if args.json else args.output)
    report = run_marshal_benchmark(sizes=sizes, repeats=args.repeats,
                                   seed=args.seed, output=output, log=log)
    if to_stdout:
        print(dump_report(report, None), end="")
    summary = report["summary"]
    if not to_stdout:
        print(f"marshal: {summary['speedup']}x on "
              f"{summary['headline_case']}")
    failures = []
    if not summary["wire_match"]:
        failures.append("bulk and scalar codecs produced different wire "
                        "bytes")
    if (args.min_speedup is not None
            and summary["speedup"] < args.min_speedup):
        failures.append(f"headline speedup {summary['speedup']}x < "
                        f"--min-speedup {args.min_speedup}x")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_trajectory(args) -> int:
    from repro.bench.schema import BenchSchemaError, load_report
    from repro.bench.trajectory import (
        Tolerances,
        format_trajectory,
        gate,
        load_trajectory,
    )

    if (args.baseline is None) != (args.fresh is None):
        print("trajectory: --baseline and --fresh must be given together",
              file=sys.stderr)
        return 2
    try:
        if args.baseline is not None:
            tolerances = Tolerances(
                goodput_drop=args.max_goodput_drop,
                p95_rise=args.max_p95_rise,
                saturation_clients_drop=args.max_saturation_drop)
            return gate(load_report(args.baseline),
                        load_report(args.fresh), tolerances)
        print(format_trajectory(load_trajectory(args.dir)))
        return 0
    except BenchSchemaError as exc:
        print(f"trajectory: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "connections":
        return _cmd_connections(args)
    if args.command == "rpc":
        return _cmd_rpc(args)
    if args.command == "marshal":
        return _cmd_marshal(args)
    if args.command == "trajectory":
        return _cmd_trajectory(args)
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
