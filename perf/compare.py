#!/usr/bin/env python3
"""Compare benchmark outputs: ``perf/compare.py BASE.json NEW.json``.

One row per workload x end-to-end metric: both medians, the ratio with
its base, the bound from ``metrics.END_TO_END`` and a verdict --

* ``ok``          the new median is no worse than the base's by more
                  than the bound;
* ``worse``       it is;
* ``unresolved``  the spread of the base's own measurements is wider
                  than the bound, so "no change" cannot be told from
                  "worse" (never reported as unchanged);
* ``better``      (run lists only) the new side wins at least nine
                  tenths of the pairs, ties counting for neither, and
                  the medians differ by more than the base's quartile
                  distance.

With more than two files the first half is the base's runs and the
second half the new side's, paired in order (run them alternating which
side goes first).  Exits 1 on any ``worse`` or any rise in
``failed_frac``; refuses to mix ``--quick`` outputs with full ones.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402  (needs the path set above)

WIN_SHARE = 0.9


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def judge(base: list, new: list, better: str, bound: float,
          trial_spread=None) -> tuple[float, float, float, str]:
    """``(base median, new median, new / base, verdict)`` for one metric
    on one workload; ``base`` and ``new`` are paired run values."""
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    ratio = new_mid / base_mid if base_mid else float("inf")
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    spread = stats.quartile_spread(base) if len(base) >= 4 else trial_spread
    if worsening > bound:
        return base_mid, new_mid, ratio, "worse"
    if spread is not None and spread > bound:
        return base_mid, new_mid, ratio, "unresolved"
    if len(base) >= 10 and len(base) == len(new):
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        losses = sum(sign * (n - b) < 0 for b, n in zip(base, new))
        if (wins >= WIN_SHARE * (wins + losses) and wins
                and abs(new_mid - base_mid) > spread * base_mid):
            return base_mid, new_mid, ratio, "better"
    return base_mid, new_mid, ratio, "ok"


def compare(base_reports: list, new_reports: list) -> tuple[list, bool]:
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)`` and
    whether anything regressed."""
    import metrics

    if len({bool(r.get("quick")) for r in base_reports + new_reports}) > 1:
        raise SystemExit("refusing to compare --quick outputs with full runs")
    rows, regressed = [], False
    for workload in base_reports[0]["workloads"]:
        def passes(reports):
            return [r["workloads"][workload]["end_to_end"] for r in reports]
        base_passes, new_passes = passes(base_reports), passes(new_reports)
        for name, _unit, better, bound in metrics.END_TO_END:
            spread = base_passes[0].get("trial_spread", {}).get(name)
            row = judge([p["metrics"][name]["value"] for p in base_passes],
                        [p["metrics"][name]["value"] for p in new_passes],
                        better, bound, spread)
            rows.append((workload, name, *row[:3], bound, row[3]))
            regressed |= row[3] == "worse"

        def failed_frac(group):
            return (sum(p["failed"] for p in group)
                    / max(1, sum(p["attempted"] for p in group)))
        base_failed, new_failed = failed_frac(base_passes), failed_frac(new_passes)
        verdict = "worse" if new_failed > base_failed else "ok"
        rows.append((workload, "failed_frac", base_failed, new_failed,
                     (new_failed / base_failed) if base_failed else 1.0,
                     0.0, verdict))
        regressed |= verdict == "worse"
    return rows, regressed


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    half = len(paths) // 2
    rows, regressed = compare([load(p) for p in paths[:half]],
                              [load(p) for p in paths[half:]])
    print(f"{'workload':14s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for workload, name, base, new, ratio, bound, verdict in rows:
        print(f"{workload:14s} {name:20s} {base:12.5g} {new:12.5g} "
              f"{ratio:9.3f} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
