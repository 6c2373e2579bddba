"""Command-line entry points.

``ninf-server``      -- run a computational server with the standard
                        numerical library (dmmul, linpack, ep, dos, mandel).
``ninf-metaserver``  -- run a metaserver.
``ninf-experiment``  -- run paper experiments / generate EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

__all__ = ["EXPERIMENT_TARGETS", "experiment_main", "metaserver_main",
           "server_main", "standard_registry"]

# Every ninf-experiment subcommand.  The docs-consistency check
# (tests/test_docs_consistency.py) asserts each one is documented in
# README.md or OBSERVABILITY.md -- add the docs when you add a target.
EXPERIMENT_TARGETS = (
    "report", "fig3", "fig4", "fig5", "fig7", "fig10", "fig11",
    "table3", "table4", "table5", "table6", "table7", "table8",
    "availability", "breakdown", "overload", "partition",
)


def standard_registry():
    """The stock numerical library every CLI server registers."""
    from repro.libs.dos import dos_kernel
    from repro.libs.ep import ep_kernel
    from repro.libs.linpack import dmmul, linpack_solve
    from repro.libs.openblas import blas_kernel
    from repro.server import Registry

    registry = Registry()

    @blas_kernel
    def dmmul_exec(n, a, b, c):
        return dmmul(int(n), a, b, c)

    registry.register(
        "Define dmmul(mode_in int n, mode_in double A[n][n], "
        "mode_in double B[n][n], mode_out double C[n][n]) "
        '"double precision matrix multiply" CalcOrder "2*n*n*n" '
        'Calls "C" mmul(n, A, B, C);',
        dmmul_exec,
    )

    @blas_kernel
    def linpack_exec(n, a, b):
        linpack_solve(a, b)

    registry.register(
        "Define linpack(mode_in int n, mode_inout double A[n][n], "
        'mode_inout double b[n]) "LU factorize + solve" '
        'CalcOrder "2*n*n*n/3 + 2*n*n" CommOrder "8*n*n + 20*n" '
        'Calls "C" linpack_solve(n, A, b);',
        linpack_exec,
    )

    def ep_exec(m, skip, pairs, accepted, sx, sy):
        result = ep_kernel(int(m), skip_pairs=int(skip), pairs=int(pairs))
        return result.accepted, result.sx, result.sy

    registry.register(
        "Define ep(mode_in int m, mode_in long skip, mode_in long pairs, "
        "mode_out long accepted, mode_out double sx, mode_out double sy) "
        '"NAS EP slice" CalcOrder "2^(m+1)" Calls "C" ep(m, skip, pairs, '
        "accepted, sx, sy);",
        ep_exec,
    )

    def dos_exec(trials, skip, sites, bins, total, hist):
        result = dos_kernel(trials=int(trials), skip=int(skip),
                            sites=int(sites), bins=int(bins))
        hist[:] = result.histogram
        return sum(result.histogram), hist

    registry.register(
        "Define dos(mode_in int trials, mode_in int skip, "
        "mode_in int sites, mode_in int bins, mode_out long total, "
        'mode_out double hist[bins]) "Monte-Carlo density of states" '
        'CalcOrder "trials * sites * sites * sites" '
        'Calls "C" dos(trials, skip, sites, bins, total, hist);',
        dos_exec,
    )

    from repro.libs.mandel import mandel_tile

    def mandel_exec(x0, x1, y0, y1, w, h, iters, counts):
        counts[:] = mandel_tile(x0, x1, y0, y1, int(w), int(h),
                                max_iter=int(iters))

    registry.register(
        "Define mandel(mode_in double x0, mode_in double x1, "
        "mode_in double y0, mode_in double y1, mode_in int w, "
        "mode_in int h, mode_in int iters, mode_out int counts[h][w]) "
        '"one Mandelbrot tile (parallel imaging workload)" '
        'CalcOrder "w * h * iters" '
        'Calls "C" mandel(x0, x1, y0, y1, w, h, iters, counts);',
        mandel_exec,
    )
    return registry


def server_main(argv: Optional[list[str]] = None) -> int:
    """``ninf-server``: run a computational server until interrupted."""
    from repro.metaserver import MetaClient
    from repro.server import NinfServer

    parser = argparse.ArgumentParser(
        prog="ninf-server",
        description="Run a Ninf computational server with the standard "
                    "numerical library.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5656)
    parser.add_argument("--pes", type=int, default=4,
                        help="processing elements (default 4, like the J90)")
    parser.add_argument("--mode", choices=["task", "data"], default="task",
                        help="task-parallel (1 PE/call) or data-parallel "
                             "(all PEs/call, serialized)")
    parser.add_argument("--policy", default="fcfs",
                        choices=["fcfs", "sjf", "fpfs", "fpmpfs"])
    parser.add_argument("--name", default="ninf-server")
    parser.add_argument("--register-with", metavar="HOST:PORT",
                        help="metaserver to register with")
    parser.add_argument("--heartbeat-to", metavar="HOST:PORT[,HOST:PORT...]",
                        help="push leased load-report heartbeats to these "
                             "metaserver replicas (a heartbeat is a "
                             "registration; see PROTOCOL.md MS_HEARTBEAT)")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between heartbeat pushes (default 1.0; "
                             "the lease is 3x this)")
    parser.add_argument("--secret",
                        help="shared HMAC secret for signing heartbeats")
    args = parser.parse_args(argv)

    server = NinfServer(standard_registry(), host=args.host, port=args.port,
                        num_pes=args.pes, mode=args.mode,
                        policy=args.policy, name=args.name)
    server.start()
    host, port = server.address
    print(f"{args.name}: serving {server.registry.names()} on "
          f"{host}:{port} ({args.pes} PEs, {args.mode}-parallel, "
          f"{args.policy})")
    if args.register_with:
        ms_host, ms_port = args.register_with.rsplit(":", 1)
        with MetaClient(ms_host, int(ms_port)) as meta_client:
            meta_client.register_server(server, name=args.name)
        print(f"registered with metaserver {args.register_with}")
    reporter = None
    if args.heartbeat_to:
        from repro.server import HeartbeatReporter

        replicas = _parse_endpoints(args.heartbeat_to)
        reporter = HeartbeatReporter(
            server, replicas, interval=args.heartbeat_interval,
            secret=args.secret.encode() if args.secret else None)
        reporter.start()
        print(f"heartbeating to {args.heartbeat_to} "
              f"every {args.heartbeat_interval}s")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
        if reporter is not None:
            reporter.stop()
        server.stop()
    return 0


def _parse_endpoints(spec: str) -> list[tuple[str, int]]:
    """Parse a comma-separated ``HOST:PORT[,HOST:PORT...]`` list."""
    endpoints = []
    for item in spec.split(","):
        host, port = item.strip().rsplit(":", 1)
        endpoints.append((host, int(port)))
    return endpoints


def metaserver_main(argv: Optional[list[str]] = None) -> int:
    """``ninf-metaserver``: run the metaserver until interrupted."""
    from repro.metaserver import Metaserver, make_scheduler

    parser = argparse.ArgumentParser(
        prog="ninf-metaserver",
        description="Run a Ninf metaserver (monitoring + scheduling).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5655)
    parser.add_argument("--scheduler", default="load",
                        choices=["round-robin", "load", "bandwidth"])
    parser.add_argument("--poll-interval", type=float, default=5.0)
    parser.add_argument("--peers", metavar="HOST:PORT[,HOST:PORT...]",
                        help="sibling metaserver replicas to gossip "
                             "directory deltas with (MS_SYNC)")
    parser.add_argument("--gossip-interval", type=float, default=1.0,
                        help="seconds between gossip rounds (default 1.0)")
    parser.add_argument("--secret",
                        help="shared HMAC secret; rejects unsigned "
                             "MS_HEARTBEAT pushes when set")
    args = parser.parse_args(argv)

    meta = Metaserver(host=args.host, port=args.port,
                      scheduler=make_scheduler(args.scheduler),
                      poll_interval=args.poll_interval,
                      peers=_parse_endpoints(args.peers) if args.peers else (),
                      gossip_interval=args.gossip_interval,
                      secret=args.secret.encode() if args.secret else None)
    meta.start()
    host, port = meta.address
    print(f"metaserver on {host}:{port} (scheduler={args.scheduler}, "
          f"polling every {args.poll_interval}s"
          + (f", gossiping with {args.peers}" if args.peers else "") + ")")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
        meta.stop()
    return 0


def experiment_main(argv: Optional[list[str]] = None) -> int:
    """``ninf-experiment``: regenerate a paper table/figure or the report.

    ``--trace FILE`` installs a process-wide tracer for the run
    (:func:`repro.obs.use_tracer`) and saves every collected span to
    ``FILE`` as JSON lines -- any target that drives the simulator or
    the live stack then leaves an OBSERVABILITY.md-schema trace behind.
    """
    parser = argparse.ArgumentParser(
        prog="ninf-experiment",
        description="Run the paper's experiments on the simulator.",
    )
    parser.add_argument("target", choices=list(EXPERIMENT_TARGETS),
                        help="which artifact to regenerate")
    parser.add_argument("--fast", action="store_true",
                        help="smaller sweeps")
    parser.add_argument("--quick", action="store_true",
                        help="alias for --fast")
    parser.add_argument("--plot", action="store_true",
                        help="render figures as ASCII charts")
    parser.add_argument("--output", default="EXPERIMENTS.md",
                        help="output path for the report target")
    parser.add_argument("--trace", metavar="FILE",
                        help="capture the run's spans to FILE (JSON lines)")
    args = parser.parse_args(argv)
    args.fast = args.fast or args.quick

    if args.trace:
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            code = _experiment_dispatch(args)
        count = tracer.save(args.trace)
        print(f"wrote {count} spans to {args.trace}")
        return code
    return _experiment_dispatch(args)


def _experiment_dispatch(args) -> int:
    """Run one parsed ``ninf-experiment`` target."""
    if args.target == "breakdown":
        from repro.experiments.breakdown import (
            format_breakdown,
            live_loopback_breakdown,
            sim_breakdown,
        )
        from repro.obs import current_tracer

        # Under --trace the active tracer collects both runs' spans, so
        # the saved file holds the live and simulated schemas side by
        # side; otherwise each driver uses its own private tracer.
        active = current_tracer()
        shared = active if active.enabled else None
        calls = 2 if args.fast else 4
        live_row, _ = live_loopback_breakdown(calls=calls, tracer=shared)
        # The same-host transport ablation: identical calls through the
        # threaded client over loopback TCP vs the shared-memory rings
        # -- the transfer column is where the difference lands.  The
        # server runs in a child process (cross_process) and the
        # matrices are big enough that transfer dominates; an
        # in-process comparison would only measure GIL scheduling.
        # More calls than the stock row: call 1 pays the dial plus the
        # shm handshake (ring creation + mmap), so short runs would
        # compare handshakes, not steady-state transfer.
        xproc_n = 128 if args.fast else 512
        xproc_calls = 4 if args.fast else 8
        tcp_row, _ = live_loopback_breakdown(calls=xproc_calls, n=xproc_n,
                                             tracer=shared, shm=False,
                                             cross_process=True)
        shm_row, _ = live_loopback_breakdown(calls=xproc_calls, n=xproc_n,
                                             tracer=shared, shm=True,
                                             cross_process=True)
        sim_row, _ = sim_breakdown(c=2 if args.fast else 4, tracer=shared)
        print(format_breakdown([live_row, tcp_row, shm_row, sim_row]))
        return 0
    if args.target == "report":
        from repro.experiments.report import generate_report

        content = generate_report(fast=args.fast)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote {args.output}")
        return 0

    sizes = (600, 1400) if args.fast else (600, 1000, 1400)
    clients = (1, 4, 16) if args.fast else (1, 2, 4, 8, 16)
    if args.target in ("table3", "table4", "table5", "table6", "table7"):
        from repro.experiments import lan_multiclient, wan

        builders = {
            "table3": lambda: lan_multiclient.table3_1pe(sizes, clients),
            "table4": lambda: lan_multiclient.table4_4pe(sizes, clients),
            "table5": lambda: lan_multiclient.table5_smp(),
            "table6": lambda: wan.table6_1pe(sizes, clients),
            "table7": lambda: wan.table7_4pe(sizes, clients),
        }
        print(builders[args.target]().format())
        return 0
    if args.target == "partition":
        from repro.experiments.partition import (
            format_partition,
            partition_ablation,
        )

        print(format_partition(partition_ablation(quick=args.fast)))
        return 0
    if args.target == "availability":
        from repro.experiments import availability_ablation, format_availability

        rates = (0.0, 0.1, 0.3) if args.fast else (0.0, 0.05, 0.1, 0.2, 0.3)
        print(format_availability(availability_ablation(fault_rates=rates)))
        return 0
    if args.target == "overload":
        from repro.experiments import (
            failover_ablation,
            format_failover,
            format_overload,
            overload_ablation,
        )

        if args.fast:
            loads = (0.5, 2.0)
            over = overload_ablation(load_factors=loads, horizon=40.0)
            fail = failover_ablation(kill_fractions=(0.0, 0.5),
                                     n_servers=2, c=4, horizon=40.0)
        else:
            over = overload_ablation()
            fail = failover_ablation()
        print("## Overload: shed vs queue\n")
        print(format_overload(over))
        print("\n## Availability under server kills\n")
        print(format_failover(fail))
        return 0
    if args.target == "table8":
        from repro.experiments.ep import table8_ep

        for table in table8_ep(clients=clients).values():
            print(table.format())
        return 0
    if args.target in ("fig3", "fig4"):
        from repro.experiments import single_client

        build = (single_client.fig3_sparc_clients if args.target == "fig3"
                 else single_client.fig4_alpha_client)
        curves = build()
        if args.plot:
            from repro.experiments.plots import line_chart

            series = {name: [(p.n, p.mflops) for p in curve.points]
                      for name, curve in curves.items()}
            print(line_chart(series, title=f"{args.target} (model)",
                             x_label="n", y_label="Mflops"))
            return 0
        for name, curve in curves.items():
            points = "  ".join(f"{p.n}:{p.mflops:.1f}" for p in curve.points)
            print(f"{name}: {points}")
        return 0
    if args.target == "fig5":
        from repro.experiments.single_client import fig5_throughput

        data = fig5_throughput()
        if args.plot:
            from repro.experiments.plots import line_chart

            series = {pair: [(p.nbytes / 1e6, p.throughput / 1e6)
                             for p in points]
                      for pair, points in data.items()}
            print(line_chart(series, title="fig5 (model)",
                             x_label="transfer MB", y_label="MB/s"))
            return 0
        for pair, points in data.items():
            ramp = "  ".join(f"{p.nbytes/1e6:.2f}MB:{p.throughput/1e6:.2f}"
                             for p in points)
            print(f"{pair}: {ramp}")
        return 0
    if args.target == "fig7":
        from repro.experiments.lan_multiclient import fig7_surface
        from repro.experiments.plots import surface_chart

        sizes_f7 = (600, 1400) if args.fast else (600, 1000, 1400)
        clients_f7 = (1, 4, 16) if args.fast else (1, 2, 4, 8, 16)
        surfaces = fig7_surface(sizes=sizes_f7, clients=clients_f7)
        for label, surface in surfaces.items():
            print(surface_chart(surface, title=f"Fig 7 ({label})",
                                x_label="c", y_label="n"))
            print()
        return 0
    if args.target == "fig10":
        from repro.experiments.wan import fig10_multisite

        for cell in fig10_multisite(sizes=sizes):
            print(f"n={cell.n} c/site={cell.clients_per_site} "
                  f"deterioration={cell.ochau_deterioration*100:.0f}% "
                  f"cpu={cell.result.row.cpu_utilization:.1f}%")
        return 0
    if args.target == "fig11":
        from repro.experiments.ep import fig11_metaserver

        for m, label in ((24, "sample"), (28, "class A"), (30, "class B")):
            points = fig11_metaserver(m)
            print(label, " ".join(f"p={p.processors}:{p.speedup:.1f}x"
                                  for p in points))
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(experiment_main())
