"""The ``ninf-lint`` command line: formats, exit codes, self-check."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import find_repo_root, main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


# -- exit codes ---------------------------------------------------------------

def test_clean_tree_exits_zero(capsys):
    assert main([str(FIXTURES / "lock_good.py")]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_findings_exit_one(capsys):
    assert main([str(FIXTURES / "lock_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "lock-discipline" in out
    assert "lock_bad.py" in out


def test_unknown_rule_is_usage_error(capsys):
    assert main(["--rules", "no-such-rule", str(FIXTURES)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert main([str(FIXTURES / "does_not_exist.py")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_rules_subset_runs_only_selected(capsys):
    # lock_bad violates lock-discipline only; selecting another rule
    # must make it clean.
    assert main(["--rules", "resource-lifecycle",
                 str(FIXTURES / "lock_bad.py")]) == 0


def test_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("lock-discipline", "resource-lifecycle",
                 "deadline-propagation", "catalog-pinned-names",
                 "async-blocking-reachability", "struct-arity"):
        assert rule in out


# -- output formats -----------------------------------------------------------

def test_json_output_golden(capsys):
    """The machine-readable form CI archives: stable keys, full detail."""
    assert main(["--format", "json", "--root", str(FIXTURES),
                 str(FIXTURES / "deadline_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert [f["rule"] for f in payload["findings"]] == [
        "deadline-propagation", "deadline-propagation"]
    dropped, unforwarded = payload["findings"]
    assert dropped == {
        "path": "deadline_bad.py",
        "line": 4,
        "col": 0,
        "rule": "deadline-propagation",
        "message": "parameter 'timeout' is accepted by dropped_param() "
                   "but never used: the deadline is silently dropped",
        "symbol": "dropped_param",
    }
    assert unforwarded["symbol"] == "unforwarded"
    assert unforwarded["line"] == 12
    assert sorted(unforwarded) == ["col", "line", "message", "path",
                                   "rule", "symbol"]


def test_sarif_output_is_valid_2_1_0(capsys):
    """The code-scanning form: schema pinned, every rule advertised,
    one result per finding with a stable partial fingerprint."""
    assert main(["--format", "sarif", "--root", str(FIXTURES),
                 str(FIXTURES / "deadline_bad.py")]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "ninf-lint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {"deadline-propagation", "struct-arity",
            "async-blocking-reachability"} <= rule_ids
    assert "wire-symmetry" not in rule_ids
    assert len(run["results"]) == 2
    for result in run["results"]:
        assert result["ruleId"] == "deadline-propagation"
        assert result["level"] == "error"
        assert result["partialFingerprints"]["ninfLintFingerprint/v1"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "deadline_bad.py"
        assert location["region"]["startLine"] >= 1


def test_sarif_clean_run_still_advertises_rules(capsys):
    assert main(["--format", "sarif", str(FIXTURES / "lock_good.py")]) == 0
    log = json.loads(capsys.readouterr().out)
    (run,) = log["runs"]
    assert run["results"] == []
    assert len(run["tool"]["driver"]["rules"]) == 6


def test_text_output_is_one_line_per_finding(capsys):
    main([str(FIXTURES / "deadline_bad.py"), "--root", str(FIXTURES)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "ninf-lint: 2 findings"
    assert all(line.startswith("deadline_bad.py:") for line in lines[:-1])


# -- baselines ----------------------------------------------------------------

def test_baseline_suppresses_known_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "lock_bad.py")
    assert main([target, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    capsys.readouterr()
    # Same findings again: all baselined, exit 0.
    assert main([target, "--baseline", str(baseline)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_write_baseline_requires_baseline_path(capsys):
    assert main(["--write-baseline", str(FIXTURES)]) == 2


# -- repo self-check ----------------------------------------------------------

def test_find_repo_root_locates_pyproject():
    assert find_repo_root(Path(__file__).parent) == REPO_ROOT


def test_ninf_lint_src_is_clean_at_head(monkeypatch, capsys):
    """The acceptance gate: the shipped tree carries zero findings."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == 0


def test_src_carries_no_suppression_comments():
    """Acceptance: fixes, not suppressions -- especially in transport
    and server, where a silenced race is a shipped race."""
    analysis_pkg = REPO_ROOT / "src" / "repro" / "analysis"
    offenders = [
        path for path in (REPO_ROOT / "src").rglob("*.py")
        if analysis_pkg not in path.parents  # its docs show the syntax
        and "lint: ignore" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_module_entry_point_matches_console_script():
    """``python -m repro.analysis`` is the installless spelling."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "lock-discipline" in proc.stdout
