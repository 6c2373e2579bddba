"""Smoke tests for ``ninf-bench connections`` (small-scale run).

CI's connection-driver job runs the real 2,000-connection smoke; here the
same code path runs at toy scale so the suite stays fast while still
proving the phase works end-to-end and the report schema holds.
"""

import json

from repro.bench import run_connections_benchmark
from repro.bench.cli import main
from repro.bench.connections import (
    _percentiles_ms,
    bench_async_phase,
    current_rss_bytes,
    raise_fd_limit,
)


def test_full_benchmark_report_schema(tmp_path):
    out = tmp_path / "BENCH_asyncio.json"
    report = run_connections_benchmark(
        connections=64, output=out,
        log=lambda *a, **k: None)
    written = json.loads(out.read_text(encoding="utf-8"))
    assert written == report
    assert report["benchmark"] == "connections"
    phase = report["async"]
    assert phase["sustained_connections"] == phase["target_connections"]
    assert phase["dial_failures"] == 0
    assert phase["ping"]["count"] == phase["sustained_connections"]
    assert phase["ping"]["throughput_per_s"] > 0
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert phase["ping"][key] >= 0.0
    assert phase["rss_per_connection_bytes"] >= 0.0
    # The reactor, one PE and the expiry sweep: no thread per connection.
    assert phase["server_threads"] <= 8


def test_cli_connections_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["connections", "--connections", "32",
                 "--output", str(out), "--quiet"])
    assert code == 0
    assert "32 connections" in capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["async"]["sustained_connections"] == 32


def test_percentiles_of_known_distribution():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
    stats = _percentiles_ms(samples)
    assert stats["p50_ms"] == 50.0
    assert stats["p95_ms"] == 95.0
    assert stats["p99_ms"] == 99.0
    assert _percentiles_ms([]) == {
        "p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}


def test_fd_limit_helpers_report_sane_values():
    assert raise_fd_limit(256) >= 256
    assert current_rss_bytes() > 0


# -- acceptance thresholds and --json - (ISSUE 7 satellite 3) -----------------


def test_cli_connections_fails_when_thresholds_missed(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["connections", "--connections", "16",
                 "--output", str(out), "--quiet",
                 "--min-sustained", "1000000"])
    assert code == 1
    captured = capsys.readouterr()
    assert "--min-sustained" in captured.err
    # The report is still written so the failing run can be inspected.
    assert out.exists()


def test_cli_connections_passes_when_thresholds_met(tmp_path):
    code = main(["connections", "--connections", "16",
                 "--output", str(tmp_path / "bench.json"), "--quiet",
                 "--min-sustained", "16", "--max-p95-ms", "10000"])
    assert code == 0


def test_cli_connections_p95_threshold_trips(tmp_path, capsys):
    code = main(["connections", "--connections", "16",
                 "--output", str(tmp_path / "bench.json"), "--quiet",
                 "--max-p95-ms", "0.000001"])
    assert code == 1
    assert "--max-p95-ms" in capsys.readouterr().err


def test_cli_connections_json_dash_streams_report_to_stdout(capsys):
    code = main(["connections", "--connections", "16",
                 "--json", "-"])
    assert code == 0
    captured = capsys.readouterr()
    # stdout is pure JSON: no progress lines, parseable as one object.
    report = json.loads(captured.out)
    assert report["benchmark"] == "connections"
    assert report["async"]["sustained_connections"] == 16


def test_cli_connections_json_dash_still_enforces_thresholds(capsys):
    code = main(["connections", "--connections", "16",
                 "--json", "-", "--min-sustained", "1000000"])
    assert code == 1
    json.loads(capsys.readouterr().out)  # stdout stays valid JSON


def test_cli_connections_json_path_writes_report(tmp_path):
    out = tmp_path / "via_json_flag.json"
    code = main(["connections", "--connections", "16",
                 "--json", str(out), "--quiet"])
    assert code == 0
    assert json.loads(
        out.read_text(encoding="utf-8"))["benchmark"] == "connections"


def test_the_thread_count_does_not_grow_with_the_connections():
    """One thread dials and pings every connection: the threads the
    process runs while holding them (the server's reactor, PE and
    expiry sweep) are as many at 128 connections as at 16."""
    quiet = lambda *a, **k: None  # noqa: E731
    few = bench_async_phase(16, log=quiet)
    many = bench_async_phase(128, log=quiet)
    assert many.sustained_connections == 128
    assert many.ping_count == 128
    assert many.extra["server_threads"] == few.extra["server_threads"] <= 3
