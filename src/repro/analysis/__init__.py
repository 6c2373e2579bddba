"""``repro.analysis`` -- project-aware static checks (``ninf-lint``).

An AST-walking lint framework (:mod:`repro.analysis.core`) plus the
six checkers that encode this repo's concurrency, wire-protocol, and
observability conventions:

- ``lock-discipline`` (:mod:`repro.analysis.locks`)
- ``resource-lifecycle`` (:mod:`repro.analysis.lifecycle`)
- ``deadline-propagation`` (:mod:`repro.analysis.deadlines`) -- both
  per-function and, since the interprocedural layer, call-graph-aware
- ``catalog-pinned-names`` (:mod:`repro.analysis.catalog`)
- ``async-blocking-reachability`` (:mod:`repro.analysis.asyncblocking`)
- ``struct-arity`` (:mod:`repro.analysis.structarity`)

``async-blocking-reachability`` (and the upgraded deadline rule) are
whole-program passes over the shared call graph
(:mod:`repro.analysis.callgraph`), built once per run on
:class:`~repro.analysis.core.Project`.

Run it as ``ninf-lint src`` (or ``python -m repro.analysis src``).
The rule catalog, suppression syntax, and extension guide live in
ANALYSIS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.analysis.asyncblocking import AsyncBlockingReachabilityChecker
from repro.analysis.callgraph import CallGraph
from repro.analysis.catalog import CatalogNamesChecker
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    ProjectChecker,
    SourceModule,
    iter_python_files,
    load_baseline,
    run_checks,
    write_baseline,
)
from repro.analysis.deadlines import DeadlinePropagationChecker
from repro.analysis.lifecycle import ResourceLifecycleChecker
from repro.analysis.locks import GUARDED_BY, LockDisciplineChecker, LockSpec
from repro.analysis.structarity import StructArityChecker

__all__ = [
    "ALL_CHECKER_CLASSES",
    "AsyncBlockingReachabilityChecker",
    "CallGraph",
    "CatalogNamesChecker",
    "Checker",
    "DeadlinePropagationChecker",
    "Finding",
    "GUARDED_BY",
    "LockDisciplineChecker",
    "LockSpec",
    "Project",
    "ProjectChecker",
    "ResourceLifecycleChecker",
    "SourceModule",
    "StructArityChecker",
    "all_checkers",
    "iter_python_files",
    "load_baseline",
    "run_checks",
    "write_baseline",
]

#: Every project checker, in the order they run and report.
ALL_CHECKER_CLASSES = (
    LockDisciplineChecker,
    ResourceLifecycleChecker,
    DeadlinePropagationChecker,
    CatalogNamesChecker,
    AsyncBlockingReachabilityChecker,
    StructArityChecker,
)


def all_checkers(repo_root: Optional[Path] = None) -> tuple[Checker, ...]:
    """One instance of every checker, wired to ``repo_root`` for the
    rules that cross-check the docs."""
    return (
        LockDisciplineChecker(),
        ResourceLifecycleChecker(),
        DeadlinePropagationChecker(),
        CatalogNamesChecker(repo_root=repo_root),
        AsyncBlockingReachabilityChecker(),
        StructArityChecker(),
    )
