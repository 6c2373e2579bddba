"""``python3 perf/run.py --self-test``: the benchmark's own arithmetic,
checked without sockets or servers in under five seconds."""

from __future__ import annotations

import json
import os
import re
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")

_checks = 0


def check(condition: bool, what: str) -> None:
    global _checks
    _checks += 1
    if not condition:
        raise AssertionError(what)


def test_percentiles() -> None:
    import stats

    check(stats.percentile([1, 2, 3, 4, 5], 50) == 3, "median of five")
    check(stats.percentile([0, 10], 25) == 2.5, "interpolation")
    # The highest percentile with at least ten samples beyond it.
    for count, want in ((5000, 99.0), (10000, 99.9), (1000, 99.0),
                        (999, 95.0), (200, 95.0), (110, 90.0), (42, 75.0),
                        (15, 50.0)):
        check(stats.highest_supported_percentile(count) == want,
              f"tail percentile of {count} samples")
    mid, spread = stats.median_and_spread([9.0, 10.0, 12.0, 11.0, 10.0])
    check(mid == 10.0 and abs(spread - 0.3) < 1e-12, "median of trials")
    check(abs(stats.quartile_spread(list(range(1, 12))) - 1.0) < 1e-12,
          "quartile spread")
    bounds, cumulative = [0.001, 0.002, 0.004], [50, 100, 100, 100]
    check(abs(stats.histogram_quantile(bounds, cumulative, 0.75) - 0.0015)
          < 1e-12, "histogram quantile")
    check(stats.histogram_quantile(bounds, [0, 0, 0, 0], 0.5) is None,
          "empty histogram")


def _span(span_id, layer, start, end, thread=1, cpu=None, pid=1):
    """A span whose CPU interval equals its wall interval unless given."""
    cpu_start, cpu_end = cpu if cpu is not None else (start, end)
    return [pid, span_id, 0, "x", layer, start, end, cpu_start, cpu_end,
            thread, 0, 0]


def test_self_time() -> None:
    import tracing

    spans = [
        _span(1, "client", 0, 100),          # root
        _span(2, "protocol", 10, 40),        # child
        _span(3, "xdr", 15, 35),             # grandchild
        _span(4, "transport", 50, 70),       # sibling
        _span(5, "transport", 60, 90),       # a coroutine outlasting it
    ]
    own = tracing.span_self_ns(spans)
    check(own[(1, 1)] == 100 - 30 - 40, "root minus the union of children")
    check(own[(1, 2)] == 10 and own[(1, 3)] == 20, "nested self time")
    check(own[(1, 4)] == 10 and own[(1, 5)] == 30, "overlapping siblings")
    totals = tracing.layer_self_ns(spans)
    check(totals["transport"] == 40 and totals["xdr"] == 20, "layer totals")
    check(sum(totals.values()) == 100, "no CPU time counted twice")

    # Waiting is not busy: 100 ns of wall time, 5 of them on the CPU;
    # and other threads and processes keep their own accounts.
    spans = [
        _span(1, "transport", 0, 100, cpu=(40, 45)),
        _span(2, "protocol", 10, 90, cpu=(41, 43)),
        _span(3, "server", 0, 100, thread=2, cpu=(0, 7)),
        _span(1, "libs", 0, 100, pid=2, cpu=(0, 9)),
    ]
    own = tracing.span_self_ns(spans)
    check(own[(1, 1)] == 3 and own[(1, 2)] == 2, "blocked span: CPU only")
    check(own[(1, 3)] == 7 and own[(2, 1)] == 9, "threads are independent")

    # Residual arithmetic: layers plus residual is the mean latency.
    spans = [_span(1, "client", 0, 60_000), _span(2, "protocol", 0, 20_000)]
    budget = tracing.budget_us_per_call(spans, calls=2, mean_latency_us=50.0)
    check(budget["client.self_us_per_call"] == 20.0, "client share")
    check(budget["protocol.self_us_per_call"] == 10.0, "protocol share")
    check(budget["residual.us_per_call"] == 20.0, "residual")
    check(abs(sum(budget.values()) - 50.0) < 1e-9, "budget sums to latency")


def test_compare() -> None:
    import compare

    verdict = lambda *args, **kw: compare.judge(*args, **kw)[3]
    check(verdict([100.0], [95.0], "higher", 0.10) == "ok", "within bound")
    check(verdict([100.0], [85.0], "higher", 0.10) == "worse", "rate fell")
    check(verdict([10.0], [11.5], "lower", 0.10) == "worse", "latency rose")
    check(verdict([10.0], [9.0], "lower", 0.10) == "ok", "single pair: no claim")
    check(verdict([100.0], [99.0], "higher", 0.10, trial_spread=0.2)
          == "unresolved", "spread wider than the bound")
    base = [100.0 + i for i in range(10)]
    check(verdict(base, [b + 20 for b in base], "higher", 0.10) == "better",
          "ten of ten pairs, beyond the quartile distance")
    check(verdict(base, [b + 1 for b in base], "higher", 0.10) == "ok",
          "wins every pair but within the base's own spread")
    mixed = [b + (20 if i % 2 else -20) for i, b in enumerate(base)]
    check(verdict(base, mixed, "higher", 0.25) == "ok", "half the pairs")

    def report(rate, failed=0, quick=False):
        passes = {"metrics": {name: {"value": 1.0} for name, *_ in
                              __import__("metrics").END_TO_END},
                  "failed": failed, "attempted": 100}
        passes["metrics"]["calls_per_s"] = {"value": rate}
        return {"quick": quick, "workloads": {"w": {"end_to_end": passes}}}
    rows, regressed = compare.compare([report(100.0)], [report(50.0)])
    check(regressed and ("w", "calls_per_s") in
          {(r[0], r[1]) for r in rows if r[6] == "worse"}, "regression found")
    check(not compare.compare([report(100.0)], [report(101.0)])[1], "no change")
    check(compare.compare([report(100.0)], [report(100.0, failed=1)])[1],
          "a rise in failed_frac is a regression")
    try:
        compare.compare([report(1.0, quick=True)], [report(1.0)])
    except SystemExit:
        pass
    else:
        check(False, "quick and full outputs must not mix")


def test_names() -> None:
    """Letters, digits, ``_``, ``.``, ``-`` only; BENCHMARK.json and the
    code declare the same metrics, units, bounds and workloads."""
    import metrics

    with open(os.path.join(os.path.dirname(PERF_DIR), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        manifest = json.load(handle)
    check(set(manifest) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}, "manifest keys")
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in manifest["end_to_end"]]
    check(declared == [tuple(row) for row in metrics.END_TO_END],
          "end_to_end of BENCHMARK.json == metrics.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"])
                for m in manifest["per_layer"]]
    check(declared == [row[:3] for row in metrics.PER_LAYER],
          "per_layer of BENCHMARK.json == metrics.PER_LAYER")
    names = ([row[0] for row in metrics.END_TO_END] + list(metrics.LAYER_NAMES)
             + [w["name"] for w in manifest["workloads"]])
    check(len(names) == len(set(names)), "every name is used once")
    for name in names:
        check(NAME.match(name) is not None, f"name {name!r}")
    for row in metrics.END_TO_END + metrics.PER_LAYER:
        check(UNIT.match(row[1]) is not None, f"unit {row[1]!r}")
        check(row[2] in ("higher", "lower"), f"direction of {row[0]}")
    check(any(row[0] == "setup_s" and row[1:3] == ("s", "lower")
              for row in metrics.END_TO_END), "setup_s is declared")
    check(all(0 < row[3] <= 0.25 for row in metrics.END_TO_END), "bounds")
    from catalog import WORKLOADS

    check(manifest["workloads"] == [{"name": name, "why": entry["why"]}
                                    for name, entry in WORKLOADS.items()],
          "workloads of BENCHMARK.json == catalog.WORKLOADS")

    import micro

    sourced = {row[0] for row in metrics.PER_LAYER if row[3] == "M"}
    check(sourced == set(micro.MEASUREMENTS),
          "every M metric has a measurement and vice versa")


def test_reaping() -> None:
    """A helper orphaned by its parent is waited for; one that does not
    end is killed and counted."""
    import subprocess

    import harness

    harness.adopt_orphans()
    for sleep, timeout, want in (("0.2", 5.0, 0), ("30", 0.2, 1)):
        subprocess.run(["sh", "-c", f"sleep {sleep} >/dev/null 2>&1 &"],
                       check=True)
        check(harness.reap_descendants(timeout) == want,
              f"orphaned 'sleep {sleep}': {want} killed")
        check(harness._child_pids() == [], "no child is left")


def main() -> int:
    for test in (test_percentiles, test_self_time, test_compare, test_names,
                 test_reaping):
        test()
    print(f"self-test ok: {_checks} checks")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, PERF_DIR)
    sys.exit(main())
