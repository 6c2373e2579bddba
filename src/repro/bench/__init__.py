"""``repro.bench`` -- the ``ninf-bench`` performance benchmarks.

- :mod:`repro.bench.connections` -- the C10K idle-plus-ping benchmark
  of the server's reactor (DESIGN.md §3.6): thousands of connections
  against one :class:`~repro.server.NinfServer`, with per-connection
  memory, ping latency percentiles and the server's thread count.
- :mod:`repro.bench.rpc` -- the DiPerF-style distributed load harness:
  multi-process closed-loop clients walking a staged ramp against a
  live server fleet (or, ``--sim``, the simulator), with saturation-knee
  detection, Jain's fairness, and a harness-vs-server cross-check.
- :mod:`repro.bench.stages` / :mod:`repro.bench.analysis` -- the
  deterministic stage-schedule model and the pure statistics (knee
  regression, fairness, histogram merging) the harness runs on.
- :mod:`repro.bench.schema` -- the versioned ``BENCH_*.json`` report
  format; :mod:`repro.bench.trajectory` -- the persisted performance
  record and the CI regression gate over it.
- :mod:`repro.bench.cli` -- the ``ninf-bench`` entry point
  (``connections`` / ``rpc`` / ``trajectory``).
"""

from repro.bench.analysis import (
    SaturationPoint,
    detect_saturation,
    jain_fairness,
)
from repro.bench.connections import (
    PhaseReport,
    bench_async_phase,
    run_connections_benchmark,
    write_report,
)
from repro.bench.rpc import run_rpc_benchmark, run_rpc_sim
from repro.bench.schema import (
    BenchSchemaError,
    dump_report,
    load_report,
    validate_report,
)
from repro.bench.stages import Stage, StageSchedule, build_ramp
from repro.bench.trajectory import (
    Tolerances,
    compare_reports,
    format_trajectory,
    load_trajectory,
)

__all__ = [
    "BenchSchemaError",
    "PhaseReport",
    "SaturationPoint",
    "Stage",
    "StageSchedule",
    "Tolerances",
    "bench_async_phase",
    "build_ramp",
    "compare_reports",
    "detect_saturation",
    "dump_report",
    "format_trajectory",
    "jain_fairness",
    "load_report",
    "load_trajectory",
    "run_connections_benchmark",
    "run_rpc_benchmark",
    "run_rpc_sim",
    "validate_report",
    "write_report",
]
