"""The program under test, in a child process of the benchmark.

Lifecycle (the parent side is :class:`ServerProc` in ``harness.py``):

1. ``python perf/serverproc.py --stack NAME [--trace 1]`` builds the
   registry (``repro.cli.standard_registry()`` plus ``bench_noop`` and
   ``bench_echo``) and starts the servers of that stack;
2. it prints one JSON line with the listening ports on stdout;
3. it blocks until the parent closes its stdin;
4. it stops the servers and prints one JSON line with its
   ``process_time``, ``ru_maxrss``, every server's metrics snapshot and,
   when traced, its spans;
5. it stops the one helper process it may have (the ``multiprocessing``
   resource tracker of the shm stack) and waits for it, so that nothing
   of it outlives it and the tracker's leak warning is on stderr before
   the parent reads that.

``--stack sim`` starts no server: it imports ``repro.experiments`` and
regenerates Table 5 with ``--seed``, so that the set-up time of the
socket-free ``sim_tables`` workload is measured the same way as the
others (spawn to first verified result).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(PERF_DIR), "src"))
sys.path.insert(0, PERF_DIR)

import harness  # noqa: E402  (stdlib only; needs the path set above)

STACKS = ("async", "threads", "brokered", "both", "sim")

# The one non-default server setting.  The dedup cache keeps every
# RESULT payload (8 MB on the bulk workloads) until 1024 entries or five
# minutes: at the default a bulk server grows by 8 MB per call for the
# whole run and slows from 15 to 8 calls/s within ten seconds, so a run's
# throughput would depend on how many calls came before it.  Sixteen
# entries fill during warm-up; every trial then sees the steady state.
DEDUP_ENTRIES = 16

NOOP_IDL = ('Define bench_noop(mode_in int x, mode_out int y) '
            '"benchmark: y = x + 1" Calls "C" bench_noop(x, y);')
ECHO_IDL = ('Define bench_echo(mode_in int n, mode_in double A[n], '
            'mode_out double B[n]) "benchmark: B = A" '
            'Calls "C" bench_echo(n, A, B);')


def build_registry():
    """The stock library plus the two benchmark functions."""
    from repro.cli import standard_registry

    registry = standard_registry()
    registry.register(NOOP_IDL, lambda x, y: int(x) + 1)
    registry.register(ECHO_IDL, lambda n, a, b: a)
    return registry


def start_stack(stack: str):
    """Start the servers of ``stack``; returns ``(servers, ports)`` with
    ``servers`` a name -> endpoint dict in start order."""
    from repro.metaserver import MetaClient, Metaserver
    from repro.server import AsyncNinfServer, NinfServer

    registry = build_registry()
    servers = {}
    if stack in ("async", "both"):
        servers["async"] = AsyncNinfServer(
            registry, num_pes=2, dedup_max_entries=DEDUP_ENTRIES).start()
    if stack in ("threads", "both"):
        servers["threads"] = NinfServer(
            registry, num_pes=2, dedup_max_entries=DEDUP_ENTRIES).start()
    if stack == "brokered":
        servers["meta"] = Metaserver().start()
        with MetaClient(*servers["meta"].address) as meta:
            for name in ("pe0", "pe1"):
                servers[name] = NinfServer(
                    registry, num_pes=1, name=name,
                    dedup_max_entries=DEDUP_ENTRIES).start()
                meta.register_server(servers[name])
    ports = {name: server.address[1] for name, server in servers.items()}
    return servers, ports


def sim_first_result(seed: int) -> dict:
    """Import the experiment drivers and regenerate the smallest table."""
    from simtables import TABLES, table_totals

    events, calls = table_totals(TABLES["table5"](seed=seed))
    return {"events": events, "calls": calls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stack", choices=STACKS, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--cpus", choices=("one", "all"), default="all")
    args = parser.parse_args(argv)
    harness.pin(args.cpus)   # before NumPy and before any thread exists

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    if args.stack == "sim":
        servers, hello = {}, sim_first_result(args.seed)
    else:
        servers, hello = start_stack(args.stack)
    print(json.dumps({"ports": hello, "pid": os.getpid()}), flush=True)

    sys.stdin.read()  # the parent closes stdin to ask for shutdown

    stats = {name: server.metrics.snapshot()
             for name, server in servers.items()}
    for server in reversed(list(servers.values())):
        server.stop()
    report = {
        "process_time": time.process_time(),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": stats,
        "spans": tracer.dump() if tracer is not None else [],
    }
    print(json.dumps(report), flush=True)
    # Last, so that a connection thread still closing its rings after
    # stop() does not start a second tracker behind the first.
    harness.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
