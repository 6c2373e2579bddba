"""Smoke tests for ``ninf-bench marshal`` (small-scale run).

CI's perf job runs the real sizes and gates on ``--min-speedup``; here
the same code path runs at toy scale so the suite stays fast while
still proving the report schema, the wire-equality assertion, and the
CLI gate end-to-end.
"""

import json

from repro.bench.cli import main
from repro.bench.marshal import run_marshal_benchmark
from repro.bench.schema import validate_report

SIZES = (64, 512)


def test_marshal_report_schema(tmp_path):
    out = tmp_path / "BENCH_marshal.json"
    report = run_marshal_benchmark(sizes=SIZES, repeats=1, output=out,
                                   log=lambda *a, **k: None)
    assert json.loads(out.read_text(encoding="utf-8")) == report
    validate_report(report)
    assert report["benchmark"] == "marshal"
    assert "engine" not in report  # one bulk engine: nothing to name
    assert len(report["cases"]) == 2 * len(SIZES)  # double + int per size
    for row in report["cases"]:
        assert row["wire_match"], (
            f"bulk and scalar wire bytes diverged for {row['dtype']} "
            f"x {row['count']}")
        assert row["scalar_s"] > 0 and row["bulk_s"] > 0
    summary = report["summary"]
    assert summary["wire_match"] is True
    assert summary["speedup"] > 0
    # The headline is the largest double case, the number CI gates on.
    assert str(max(SIZES)) in summary["headline_case"]


def test_cli_marshal_gate(tmp_path, capsys):
    out = tmp_path / "BENCH_marshal.json"
    code = main(["marshal", "--sizes", "64,512", "--repeats", "1",
                 "--output", str(out), "--quiet",
                 "--min-speedup", "0.0001"])
    assert code == 0
    assert out.is_file()
    assert "marshal" in capsys.readouterr().out

    # An unmeetable floor flips the exit code: the CI perf gate.
    code = main(["marshal", "--sizes", "64", "--repeats", "1",
                 "--output", str(out), "--quiet",
                 "--min-speedup", "1e9"])
    assert code == 1
