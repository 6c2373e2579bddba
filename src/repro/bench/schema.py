"""The versioned ``BENCH_*.json`` report schema.

Every harness run serialises to one JSON document so later PRs can
diff performance machine-readably.  The schema is *versioned* and the
loader is strict: a report whose ``schema_version`` this code does not
know is rejected outright (``BenchSchemaError``) instead of being
half-parsed -- a trajectory comparison against a misread baseline would
gate CI on garbage.

Version history
---------------
- **0** (implicit): the PR-6 ``BENCH_asyncio.json`` connections report.
  No ``schema_version`` field; recognised by ``benchmark: connections``
  and loaded read-only for trajectory listings.
- **1**: the ``ninf-bench rpc`` report -- ``schema_version: 1``,
  ``benchmark: rpc``, machine/git provenance, the stage table, the
  saturation summary, and the harness-vs-server cross-check.
- **2**: the ``ninf-bench marshal`` report -- ``schema_version: 2``,
  ``benchmark: marshal``, the bulk-vs-scalar XDR codec microbenchmark:
  per-case timings (dtype x element count) and the headline speedup
  the CI perf job gates on.  Reports from before the bulk codec had
  one engine also carry an ``engine`` key, which is ignored.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "BenchSchemaError",
    "MARSHAL_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "dump_report",
    "git_sha",
    "load_report",
    "machine_identity",
    "validate_report",
]

SCHEMA_VERSION = 1

#: The ``ninf-bench marshal`` report's version.
MARSHAL_SCHEMA_VERSION = 2

#: Versions :func:`load_report` accepts.  0 is the legacy (unversioned)
#: connections report.
SUPPORTED_VERSIONS = frozenset({0, 1, 2})

#: Keys every version-1 rpc report must carry.
_V1_REQUIRED = ("benchmark", "mode", "machine", "config", "stages",
                "saturation", "cross_check")

#: Keys every stage row of a version-1 report must carry.
_V1_STAGE_REQUIRED = ("index", "clients", "duration_s", "calls_ok",
                      "calls_shed", "calls_error", "retries",
                      "goodput_per_s", "latency_ms", "fairness_jain")

#: Keys every version-2 marshal report must carry.
_V2_REQUIRED = ("benchmark", "machine", "config", "cases", "summary")

#: Keys every case row of a version-2 report must carry.
_V2_CASE_REQUIRED = ("dtype", "count", "scalar_s", "bulk_s", "speedup",
                     "bulk_mb_per_s", "wire_match")


class BenchSchemaError(ValueError):
    """A report failed schema validation (unknown version, missing or
    malformed fields)."""


def report_version(report: dict) -> int:
    """The schema version of a parsed report (0 when unversioned)."""
    version = report.get("schema_version", 0)
    if not isinstance(version, int) or isinstance(version, bool):
        raise BenchSchemaError(
            f"schema_version must be an integer, got {version!r}")
    return version


def validate_report(report: Any) -> int:
    """Check ``report`` against its declared version; return the version.

    Raises :class:`BenchSchemaError` on an unknown version or a missing
    required field -- the caller never sees a half-valid report.
    """
    if not isinstance(report, dict):
        raise BenchSchemaError(
            f"report must be a JSON object, got {type(report).__name__}")
    version = report_version(report)
    if version not in SUPPORTED_VERSIONS:
        supported = sorted(SUPPORTED_VERSIONS)
        raise BenchSchemaError(
            f"unknown schema_version {version} (supported: {supported}); "
            f"refusing to guess at its layout")
    if version == 0:
        if report.get("benchmark") != "connections":
            raise BenchSchemaError(
                "version-0 (unversioned) reports are only the legacy "
                f"connections benchmark, got {report.get('benchmark')!r}")
        return version
    if version == 2:
        missing = [key for key in _V2_REQUIRED if key not in report]
        if missing:
            raise BenchSchemaError(
                f"version-2 report missing keys: {missing}")
        if report["benchmark"] != "marshal":
            raise BenchSchemaError(
                f"version-2 schema is the marshal benchmark, "
                f"got {report['benchmark']!r}")
        cases = report["cases"]
        if not isinstance(cases, list) or not cases:
            raise BenchSchemaError("cases must be a non-empty list")
        for row in cases:
            row_missing = [key for key in _V2_CASE_REQUIRED
                           if key not in row]
            if row_missing:
                raise BenchSchemaError(
                    f"case row missing keys: {row_missing}")
        if "speedup" not in report["summary"]:
            raise BenchSchemaError("summary must carry 'speedup'")
        return version
    missing = [key for key in _V1_REQUIRED if key not in report]
    if missing:
        raise BenchSchemaError(f"version-1 report missing keys: {missing}")
    if report["benchmark"] != "rpc":
        raise BenchSchemaError(
            f"version-1 schema is the rpc benchmark, "
            f"got {report['benchmark']!r}")
    if report["mode"] not in ("live", "sim"):
        raise BenchSchemaError(
            f"mode must be 'live' or 'sim', got {report['mode']!r}")
    stages = report["stages"]
    if not isinstance(stages, list) or not stages:
        raise BenchSchemaError("stages must be a non-empty list")
    for row in stages:
        row_missing = [key for key in _V1_STAGE_REQUIRED if key not in row]
        if row_missing:
            raise BenchSchemaError(
                f"stage row missing keys: {row_missing}")
    return version


def load_report(path: Path) -> dict:
    """Parse and validate one ``BENCH_*.json`` file."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchSchemaError(f"cannot read {path}: {exc}") from exc
    validate_report(report)
    return report


def dump_report(report: dict, output: Optional[Path]) -> str:
    """Serialise ``report`` as stable diff-friendly JSON.

    Writes to ``output`` when given (None = caller prints, e.g.
    ``--json -``); always returns the rendered text.  The rendering is
    deterministic -- ``sort_keys`` plus no timestamps in sim mode is
    what makes ``ninf-bench rpc --sim`` byte-identical across runs.
    """
    validate_report(report)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output is not None:
        output.write_text(text, encoding="utf-8")
    return text


def git_sha(root: Optional[Path] = None) -> str:
    """The checked-out commit, or "unknown" outside a git tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_identity(sim: bool = False) -> dict:
    """Provenance for the report's ``machine`` key.

    Simulated runs pin every field to constants: the simulator's result
    does not depend on the host, and the report must not either (the
    byte-determinism contract).
    """
    if sim:
        return {"id": "sim", "python": "sim", "platform": "sim"}
    import platform

    return {
        "id": platform.node() or "unknown",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
