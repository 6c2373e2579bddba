"""End-to-end harness tests: sim determinism, the harness-vs-server
cross-check (ISSUE 7 satellite 4), and a toy-scale live run.

The live test is the multiprocessing coordinator at miniature scale --
2 worker processes, 2 short stages -- proving the spawn/rendezvous/
report pipeline works, while CI's perf-gate job runs the real thing.
"""

import json
import multiprocessing.process
import threading

import pytest

from repro.bench.cli import main
from repro.bench.rpc import MAX_CLIENTS_PER_WORKER, run_rpc_benchmark, \
    run_rpc_sim
from repro.bench.schema import dump_report, validate_report
from repro.bench.stages import build_ramp, parse_stage_list


@pytest.fixture(scope="module")
def sim_report():
    # Long enough stages to drive the server past its knee (~65/s at
    # 4 PEs x 50 ms service) and produce sheds for the cross-check.
    return run_rpc_sim(build_ramp(count=6, duration_s=30.0),
                       log=lambda *a, **k: None)


class TestSimDeterminism:
    def test_same_seed_same_bytes(self, sim_report):
        again = run_rpc_sim(build_ramp(count=6, duration_s=30.0),
                            log=lambda *a, **k: None)
        assert dump_report(sim_report, None) == dump_report(again, None)

    def test_different_seed_different_workload(self):
        a = run_rpc_sim(build_ramp(count=3, duration_s=20.0, seed=1),
                        log=lambda *a, **k: None)
        b = run_rpc_sim(build_ramp(count=3, duration_s=20.0, seed=2),
                        log=lambda *a, **k: None)
        assert dump_report(a, None) != dump_report(b, None)

    def test_sim_report_is_schema_valid_with_pinned_machine(self,
                                                            sim_report):
        assert validate_report(sim_report) == 1
        assert sim_report["machine"] == {"id": "sim", "python": "sim",
                                         "platform": "sim"}
        assert sim_report["mode"] == "sim"


class TestSimCrossCheck:
    def test_harness_goodput_matches_server_jobs_within_one_percent(
            self, sim_report):
        # Satellite 4: sum of client-side completed calls vs the
        # server's own jobs counter (sheds are accounted separately on
        # both sides and must also reconcile).
        harness_ok = sum(row["calls_ok"] for row in sim_report["stages"])
        server_ok = sum(row["server"]["jobs_ok_delta"]
                        for row in sim_report["stages"])
        assert harness_ok == pytest.approx(server_ok, rel=0.01)
        harness_shed = sum(row["calls_shed"]
                           for row in sim_report["stages"])
        server_shed = sum(row["server"]["sheds_delta"]
                          for row in sim_report["stages"])
        assert harness_shed == pytest.approx(server_shed, rel=0.01)
        assert sim_report["cross_check"]["consistent"] is True
        assert harness_shed > 0  # the ramp actually hit the shed path

    def test_saturation_knee_detected_on_the_default_sim_ramp(
            self, sim_report):
        saturation = sim_report["saturation"]
        assert saturation["detected"] is True
        assert saturation["clients"] is not None
        assert saturation["goodput_per_s"] > 0


class TestCliSim:
    def test_json_dash_prints_the_report_to_stdout(self, capsys):
        code = main(["rpc", "--sim", "--count", "3", "--duration", "5",
                     "--json", "-"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert validate_report(report) == 1
        assert "stage 0" not in out  # progress suppressed on stdout JSON

    def test_output_file_and_summary_line(self, tmp_path, capsys):
        out = tmp_path / "BENCH_rpc_sim.json"
        code = main(["rpc", "--sim", "--count", "3", "--duration", "5",
                     "--output", str(out), "--quiet"])
        assert code == 0
        assert "cross-check ok" in capsys.readouterr().out
        assert validate_report(
            json.loads(out.read_text(encoding="utf-8"))) == 1


class TestLiveHarness:
    def test_toy_live_run_end_to_end(self, tmp_path):
        report = run_rpc_benchmark(
            parse_stage_list("2,4", duration_s=0.8),
            processes=2, num_pes=4, spin_seconds=0.001,
            output=tmp_path / "BENCH_rpc.json",
            log=lambda *a, **k: None)
        assert validate_report(report) == 1
        assert report["mode"] == "live"
        rows = report["stages"]
        assert [row["clients"] for row in rows] == [2, 4]
        for row in rows:
            assert row["calls_ok"] > 0
            assert row["latency_ms"]["p50"] is not None
            assert 0.0 < row["fairness_jain"] <= 1.0
        # The STATS-scraped server deltas reconcile with the harness.
        assert report["cross_check"]["consistent"] is True
        assert (tmp_path / "BENCH_rpc.json").exists()

    def test_live_run_validates_inputs(self):
        with pytest.raises(ValueError, match="worker"):
            run_rpc_benchmark(parse_stage_list("1,2"), processes=0,
                              log=lambda *a, **k: None)
        with pytest.raises(ValueError, match="server"):
            run_rpc_benchmark(parse_stage_list("1,2"), servers=0,
                              log=lambda *a, **k: None)

    def test_a_stage_past_the_per_worker_bound_starts_nothing(
            self, monkeypatch):
        """513 clients over 2 workers puts 257 on one: refused, naming
        ``--processes``, before a process or a thread is started."""
        started = []

        def refuse(what):
            def start(self, *args, **kwargs):
                started.append(what)
                raise AssertionError(f"a {what} was started")
            return start

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse("process"))
        monkeypatch.setattr(threading.Thread, "start", refuse("thread"))
        too_many = 2 * MAX_CLIENTS_PER_WORKER + 1
        with pytest.raises(ValueError, match="--processes to at least 3"):
            run_rpc_benchmark(parse_stage_list(f"4,{too_many}"),
                              processes=2, log=lambda *a, **k: None)
        assert started == []
