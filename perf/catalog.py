"""The six workloads as plain data: what ``BENCHMARK.json`` lists, plus
what the harness must know before it imports anything heavy.

``cpus`` is the CPU policy of a pass.  ``"one"`` pins the benchmark and
the child to a single CPU (the highest-numbered one this process may
use): with one client at most one request is in flight, so every thread
of both processes is a link in one sequential chain and a second CPU
only adds cross-CPU wake-ups -- on the 2-vCPU sandbox those made
``null_call`` land anywhere between 450 and 860 calls/s from run to
run, against 850-990 pinned.  ``"all"`` leaves the scheduler alone:
``linpack_pair`` is the workload where executor parallelism and
multi-core serving must be able to show.

``tail_pct`` is the highest percentile a 10 s run's sample supports
(at least ten samples beyond it), fixed per workload so that the tail
metric does not change meaning from run to run.
"""

from __future__ import annotations

HOST = "127.0.0.1"            # loopback TCP, stated as such in every output
BULK_DOUBLES = 1_000_000      # the paper's n=1000 matrix: 8 MB
LINPACK_N = 600
TRIALS = 5

WORKLOADS = {
    "null_call": {
        "why": "smallest message, zero service time: only the fixed per-call "
               "cost (framing, dispatch, thread hops, executor, dedup, "
               "instrumentation); bulk XDR/CRC/copy work is absent",
        "stack": "async", "clients": 1, "cpus": "one", "tail_pct": 99.0,
    },
    "bulk_echo": {
        "why": "8 MB up + 8 MB down per call over TCP: per-byte cost (bulk "
               "XDR, CRC-32, frame copies) dominates; per-call dispatch is "
               "under 2% of a call",
        "stack": "async", "clients": 1, "cpus": "one", "tail_pct": 90.0,
    },
    "bulk_echo_shm": {
        "why": "same payload over the shared-memory ring: same protocol/xdr "
               "layers, other transport channel, so a gain for one channel "
               "that costs the other shows",
        "stack": "threads", "clients": 1, "cpus": "one", "tail_pct": 90.0,
    },
    "linpack_pair": {
        "why": "the paper's flagship: two clients, stock linpack n=600 "
               "(2.9 MB inout + real LU); compute and marshalling share one "
               "server process and two PEs contend",
        "stack": "threads", "clients": 2, "cpus": "all", "tail_pct": 90.0,
    },
    "brokered_call": {
        "why": "every call pays a directory lookup and pick before the CALL: "
               "the metaserver layer does the extra work; compare with "
               "null_call to price the broker",
        "stack": "brokered", "clients": 1, "cpus": "one", "tail_pct": 99.0,
    },
    "sim_tables": {
        "why": "no sockets: regenerate six paper tables on repro.sim/simninf; "
               "pure single-thread CPU with exact event counts, so RPC "
               "changes must show no change here",
        "stack": "sim", "clients": 1, "cpus": "one", "tail_pct": 75.0,
    },
}
