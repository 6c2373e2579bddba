"""The persisted performance trajectory and its CI gate.

Committed ``BENCH_*.json`` files form the repo's performance record:
each PR that touches the hot path lands next to a fresh benchmark
report, and this module is what reads the series back.  Two jobs:

- :func:`load_trajectory` / :func:`format_trajectory`: list every
  committed report (any supported schema version) as a human table --
  the "how has this repo's performance moved" view;
- :func:`compare_reports` + :func:`gate`: the regression gate.  A fresh
  run is compared against the committed baseline under configurable
  :class:`Tolerances`; any failed check makes :func:`gate` return
  non-zero, which fails CI.

Comparison is deliberately two-tier.  When the baseline and the fresh
run used the *same stage schedule* (matching
:meth:`~repro.bench.stages.StageSchedule.signature`), the gate checks
the saturation point and the latency at the peak stage as well as peak
goodput.  When the schedules differ (e.g. the quick CI live smoke vs
the full committed ramp), only schedule-independent checks run --
peak goodput within tolerance and an internally-consistent
harness-vs-server cross-check -- because comparing stage tables from
different ramps point-for-point would gate on noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.schema import (
    BenchSchemaError,
    load_report,
    report_version,
    validate_report,
)
from repro.bench.stages import StageSchedule

__all__ = [
    "Check",
    "Tolerances",
    "compare_reports",
    "format_checks",
    "format_trajectory",
    "gate",
    "load_trajectory",
    "peak_goodput",
]


@dataclass(frozen=True)
class Tolerances:
    """How much worse a fresh run may be before the gate trips.

    Fractions, not absolutes: ``goodput_drop=0.15`` tolerates a 15%
    peak-goodput regression.  Defaults are deliberately generous --
    the gate exists to catch step-function regressions (an accidental
    O(n) in the dispatch path), not scheduler jitter.
    """

    goodput_drop: float = 0.15
    p95_rise: float = 0.50
    saturation_clients_drop: float = 0.30
    #: Tolerated fractional drop of the marshal bench's headline
    #: speedup (version-2 reports).
    marshal_speedup_drop: float = 0.30

    def __post_init__(self) -> None:
        for name in ("goodput_drop", "p95_rise", "saturation_clients_drop",
                     "marshal_speedup_drop"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class Check:
    """One gate check's outcome."""

    name: str
    passed: bool
    baseline: Optional[float]
    fresh: Optional[float]
    limit: Optional[float]
    note: str = ""


def peak_goodput(report: dict) -> float:
    """The best per-stage goodput a version-1 report achieved."""
    return max(row["goodput_per_s"] for row in report["stages"])


def _schedule_signature(report: dict) -> str:
    return StageSchedule.from_dict(
        report["config"]["schedule"]).signature()


def _peak_p95(report: dict) -> Optional[float]:
    best = max(report["stages"], key=lambda row: row["goodput_per_s"])
    return best["latency_ms"].get("p95")


def compare_reports(baseline: dict, fresh: dict,
                    tolerances: Optional[Tolerances] = None) -> list[Check]:
    """Gate ``fresh`` against ``baseline``; returns every check run.

    Both must be version-1 rpc reports in the same mode (gating a live
    run against a sim baseline would compare incommensurable numbers);
    anything else raises :class:`BenchSchemaError`.
    """
    tolerances = tolerances or Tolerances()
    for label, report in (("baseline", baseline), ("fresh", fresh)):
        validate_report(report)
    versions = (report_version(baseline), report_version(fresh))
    if versions == (2, 2):
        return _compare_marshal(baseline, fresh, tolerances)
    if versions != (1, 1):
        raise BenchSchemaError(
            "the gate compares two version-1 rpc reports or two "
            f"version-2 marshal reports, got versions {versions}")
    if baseline["mode"] != fresh["mode"]:
        raise BenchSchemaError(
            f"cannot gate a {fresh['mode']} run against a "
            f"{baseline['mode']} baseline")

    checks: list[Check] = []

    base_peak = peak_goodput(baseline)
    fresh_peak = peak_goodput(fresh)
    floor = base_peak * (1.0 - tolerances.goodput_drop)
    checks.append(Check(
        name="peak_goodput", passed=fresh_peak >= floor,
        baseline=base_peak, fresh=fresh_peak, limit=round(floor, 2),
        note=f"fresh peak must be >= {floor:.1f}/s "
             f"(baseline {base_peak:.1f}/s - {tolerances.goodput_drop:.0%})"))

    consistent = bool(fresh["cross_check"].get("consistent"))
    checks.append(Check(
        name="cross_check_consistent", passed=consistent,
        baseline=None, fresh=float(consistent), limit=None,
        note="harness and server-side counters must reconcile"))

    same_schedule = (_schedule_signature(baseline)
                     == _schedule_signature(fresh))
    if not same_schedule:
        checks.append(Check(
            name="schedule_match", passed=True, baseline=None, fresh=None,
            limit=None,
            note="schedules differ; stage-table and saturation checks "
                 "skipped (peak-goodput-only comparison)"))
        return checks

    base_p95 = _peak_p95(baseline)
    fresh_p95 = _peak_p95(fresh)
    if base_p95 is not None and fresh_p95 is not None:
        ceiling = base_p95 * (1.0 + tolerances.p95_rise)
        checks.append(Check(
            name="peak_stage_p95_ms", passed=fresh_p95 <= ceiling,
            baseline=base_p95, fresh=fresh_p95, limit=round(ceiling, 3),
            note=f"p95 at the peak stage must stay <= {ceiling:.1f} ms"))

    base_sat = baseline["saturation"]
    fresh_sat = fresh["saturation"]
    if base_sat.get("detected"):
        if not fresh_sat.get("detected"):
            checks.append(Check(
                name="saturation_clients", passed=False,
                baseline=base_sat.get("clients"), fresh=None, limit=None,
                note="baseline detected a saturation point, fresh run "
                     "did not"))
        else:
            floor_clients = (base_sat["clients"]
                             * (1.0 - tolerances.saturation_clients_drop))
            checks.append(Check(
                name="saturation_clients",
                passed=fresh_sat["clients"] >= floor_clients,
                baseline=base_sat["clients"], fresh=fresh_sat["clients"],
                limit=round(floor_clients, 1),
                note="the knee must not move to materially fewer "
                     "clients"))
    return checks


def _compare_marshal(baseline: dict, fresh: dict,
                     tolerances: Tolerances) -> list[Check]:
    """The version-2 (marshal microbench) arm of the gate.

    The headline speedup may drop at most ``marshal_speedup_drop``;
    wire equality must hold outright.
    """
    checks: list[Check] = []
    base_speedup = float(baseline["summary"]["speedup"])
    fresh_speedup = float(fresh["summary"]["speedup"])
    floor = base_speedup * (1.0 - tolerances.marshal_speedup_drop)
    checks.append(Check(
        name="marshal_speedup", passed=fresh_speedup >= floor,
        baseline=base_speedup, fresh=fresh_speedup, limit=round(floor, 2),
        note=f"headline bulk-vs-scalar speedup must stay >= "
             f"{floor:.1f}x (baseline {base_speedup:.1f}x - "
             f"{tolerances.marshal_speedup_drop:.0%})"))
    wire_match = bool(fresh["summary"].get("wire_match"))
    checks.append(Check(
        name="marshal_wire_match", passed=wire_match,
        baseline=None, fresh=float(wire_match), limit=None,
        note="bulk and scalar codecs must produce identical wire bytes"))
    return checks


def gate(baseline: dict, fresh: dict,
         tolerances: Optional[Tolerances] = None,
         log=print) -> int:
    """Run the comparison, print the verdicts, return the exit code
    (0 = pass, 1 = regression)."""
    checks = compare_reports(baseline, fresh, tolerances)
    log(format_checks(checks))
    return 0 if all(check.passed for check in checks) else 1


def format_checks(checks: Sequence[Check]) -> str:
    """One ``[PASS]``/``[FAIL]`` line per check, for the gate output."""
    lines = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        detail = []
        if check.baseline is not None:
            detail.append(f"baseline={check.baseline}")
        if check.fresh is not None:
            detail.append(f"fresh={check.fresh}")
        if check.limit is not None:
            detail.append(f"limit={check.limit}")
        suffix = f" ({', '.join(detail)})" if detail else ""
        lines.append(f"[{verdict}] {check.name}{suffix} -- {check.note}")
    return "\n".join(lines)


def load_trajectory(directory: Path) -> list[tuple[Path, dict]]:
    """Every ``BENCH_*.json`` under ``directory``, parsed and validated,
    sorted by filename.  A malformed file raises -- a broken committed
    report should fail loudly, not vanish from the listing."""
    return [(path, load_report(path))
            for path in sorted(directory.glob("BENCH_*.json"))]


def format_trajectory(entries: Sequence[tuple[Path, dict]]) -> str:
    """The human listing of the committed performance record."""
    if not entries:
        return "no BENCH_*.json reports found"
    lines = [f"{'file':<28} {'bench':<12} {'mode':<5} {'git':<9} summary"]
    for path, report in entries:
        version = report_version(report)
        sha = str(report.get("git_sha", "unknown"))[:8]
        if version == 0:
            sustained = report.get("async", {}).get(
                "sustained_connections")
            summary = f"sustained={sustained} connections"
            mode = "live"
            bench = "connections"
        elif version == 2:
            info = report["summary"]
            summary = (f"speedup={info['speedup']:g}x on "
                       f"{info['headline_case']}")
            mode = "live"
            bench = report["benchmark"]
        else:
            saturation = report["saturation"]
            knee = (f"knee@{saturation['clients']:g} clients"
                    if saturation.get("detected") else "no knee")
            summary = (f"peak={peak_goodput(report):.1f}/s, {knee}, "
                       f"stages={len(report['stages'])}")
            mode = report["mode"]
            bench = report["benchmark"]
        lines.append(f"{path.name:<28} {bench:<12} {mode:<5} {sha:<9} "
                     f"{summary}")
    return "\n".join(lines)
