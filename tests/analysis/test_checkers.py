"""The project checkers against the fixture pairs.

Every checker gets a true-positive fixture (``*_bad.py``: each seeded
violation must be reported) and a true-negative fixture (``*_good.py``:
idiomatic code must stay silent).  These fixtures are also what makes
CI fail if a checker regresses into missing its bug class.
"""

import importlib
from pathlib import Path

import pytest

from repro.analysis import (
    AsyncBlockingReachabilityChecker,
    CatalogNamesChecker,
    DeadlinePropagationChecker,
    LockDisciplineChecker,
    ResourceLifecycleChecker,
    StructArityChecker,
)
from repro.analysis.core import run_checks

FIXTURES = Path(__file__).parent / "fixtures"


def _run(checker, stem):
    return run_checks([FIXTURES / f"{stem}.py"], [checker], root=FIXTURES)


# -- lock-discipline ----------------------------------------------------------

def test_lock_discipline_flags_unlocked_access():
    findings = _run(LockDisciplineChecker(), "lock_bad")
    assert all(f.rule == "lock-discipline" for f in findings)
    messages = [f.message for f in findings]
    assert any("read of ConnectionPool._idle" in m for m in messages)
    assert any("write to ConnectionPool._closed" in m for m in messages)
    # checkout + close only: the suppressed line must not report.
    assert {f.symbol for f in findings} == {
        "ConnectionPool.checkout", "ConnectionPool.close"}


def test_lock_discipline_accepts_locked_access():
    assert _run(LockDisciplineChecker(), "lock_good") == []


def test_lock_discipline_honours_locked_suffix_and_init_exemption():
    findings = _run(LockDisciplineChecker(), "lock_good")
    assert findings == []  # _evict_locked and __init__ both exempt


def test_lock_discipline_flags_a_locked_helper_used_without_the_lock():
    findings = _run(LockDisciplineChecker(), "lock_suffix_bad")
    assert [(f.symbol, f.line) for f in findings] == [("Executor.cancel", 15)]
    assert "Executor._hand_off_locked without holding" in findings[0].message


# -- resource-lifecycle -------------------------------------------------------

def test_resource_lifecycle_flags_each_leak_shape():
    findings = _run(ResourceLifecycleChecker(), "lifecycle_bad")
    assert all(f.rule == "resource-lifecycle" for f in findings)
    by_symbol = {f.symbol for f in findings}
    assert by_symbol == {"leaked_local", "discarded_chain",
                         "unbound_expression", "unsafe_error_path"}


def test_resource_lifecycle_accepts_owned_and_transferred():
    assert _run(ResourceLifecycleChecker(), "lifecycle_good") == []


# -- deadline-propagation -----------------------------------------------------

def test_deadline_propagation_flags_dropped_and_unforwarded():
    findings = _run(DeadlinePropagationChecker(), "deadline_bad")
    assert all(f.rule == "deadline-propagation" for f in findings)
    messages = [f.message for f in findings]
    assert any("'timeout' is accepted by dropped_param()" in m
               for m in messages)
    assert any(".recv(...) inside unforwarded()" in m for m in messages)
    assert len(findings) == 2


def test_deadline_propagation_accepts_threaded_deadlines():
    assert _run(DeadlinePropagationChecker(), "deadline_good") == []


# -- deadline-propagation (call-graph sub-rule) -------------------------------

def test_deadline_graph_flags_unforwarded_handoff():
    """Locally clean functions, interprocedurally broken: the timeout
    dies at the ``fetch`` -> ``_lookup`` hand-off."""
    findings = _run(DeadlinePropagationChecker(), "deadline_graph_bad")
    assert [f.rule for f in findings] == ["deadline-propagation"]
    assert ("call to _lookup() inside fetch() forwards no deadline"
            in findings[0].message)
    assert "reaches the transport boundary" in findings[0].message
    assert findings[0].symbol == "fetch"


def test_deadline_graph_accepts_forwarding_and_exempts_paramless():
    assert _run(DeadlinePropagationChecker(), "deadline_graph_good") == []


# -- async-blocking-reachability ----------------------------------------------

def test_async_blocking_flags_each_primitive_class():
    findings = _run(AsyncBlockingReachabilityChecker(), "asyncblocking_bad")
    assert all(f.rule == "async-blocking-reachability" for f in findings)
    messages = [f.message for f in findings]
    # Transitive: the sleep is in the helper, reported with the chain
    # from the handler that reaches it.
    root = "endpoint handler (register_handler map of Service.__init__())"
    assert any(f"time.sleep() reachable from {root} Service.poll() "
               "via Service.poll -> _backoff" in m for m in messages)
    assert any(f".read_text() reachable from {root} Service.read_settings()"
               in m for m in messages)
    # Direct: open(), sync queue put, lock acquire, Future.result().
    assert any("blocking call open()" in m for m in messages)
    assert any("blocking queue .put()" in m for m in messages)
    assert any("lock .acquire()" in m for m in messages)
    assert any("blocking Future.result()" in m for m in messages)
    assert len(findings) == 6


def test_async_blocking_accepts_work_handed_to_another_thread():
    """A thread started with the work as its target, ``_nowait`` queue
    calls and a future's done-callback must stay silent."""
    assert _run(AsyncBlockingReachabilityChecker(),
                "asyncblocking_good") == []


def test_instrument_micro_ops_are_no_blocking_primitive():
    from repro.analysis.asyncblocking import BLOCKING_PROJECT

    # Only the registry *lookups* are in the blocking set, never
    # Counter.inc/Histogram.observe: a handler records metrics.
    assert not any(name.endswith((".inc", ".observe", ".set"))
                   for name in BLOCKING_PROJECT)


def test_every_blocking_primitive_names_a_live_attribute():
    """A renamed primitive would silently blind the rule: each key must
    import and resolve, attribute by attribute, to something callable."""
    from repro.analysis.asyncblocking import BLOCKING_PROJECT

    dead = []
    for qualname in BLOCKING_PROJECT:
        parts = qualname.split(".")
        for split in range(len(parts) - 1, 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            try:
                for name in parts[split:]:
                    target = getattr(target, name)
            except AttributeError:
                target = None
            break
        else:
            target = None
        if not callable(target):
            dead.append(qualname)
    assert dead == []


# -- struct-arity -------------------------------------------------------------

def test_struct_arity_flags_short_pack_and_wide_unpack():
    findings = _run(StructArityChecker(), "structarity_bad")
    assert all(f.rule == "struct-arity" for f in findings)
    assert sorted(f.message for f in findings) == [
        "HEADER.pack() called with 3 values but the format has 4 fields",
        "HEADER.unpack() result destructured into 5 names but the format "
        "has 4 fields",
        "WORDS.unpack_from() result destructured into 2 names but the "
        "format has 3 fields",
    ]


def test_struct_arity_accepts_matching_widths_and_splats():
    assert _run(StructArityChecker(), "structarity_good") == []


# -- catalog-pinned-names -----------------------------------------------------

def test_catalog_names_flags_unpinned_metrics_and_spans():
    findings = _run(CatalogNamesChecker(), "catalog_bad")
    assert all(f.rule == "catalog-pinned-names" for f in findings)
    messages = [f.message for f in findings]
    assert any("'bogus_metric_total'" in m for m in messages)
    assert any("NOT_A_METRIC" in m for m in messages)
    assert any("'call.bogus'" in m for m in messages)
    assert any("UNPINNED_SPAN" in m for m in messages)
    assert len(findings) == 4


def test_catalog_names_accepts_catalogued_forms():
    assert _run(CatalogNamesChecker(), "catalog_good") == []


def test_catalog_docs_audit_flags_undocumented_metric(tmp_path):
    """The migrated docs half: a catalogued-but-undocumented metric is
    reported when scanning the catalog module itself."""
    obs = tmp_path / "repro" / "obs"
    obs.mkdir(parents=True)
    metric = "ninf_transport_bytes_sent_total"
    (obs / "names.py").write_text(
        f'TRANSPORT_BYTES_SENT = "{metric}"\n', encoding="utf-8")
    (tmp_path / "OBSERVABILITY.md").write_text(
        "# Observability\n(nothing documented)\n", encoding="utf-8")
    findings = run_checks([obs], [CatalogNamesChecker(repo_root=tmp_path)],
                          root=tmp_path)
    assert [f.rule for f in findings] == ["catalog-pinned-names"]
    assert "missing from OBSERVABILITY.md" in findings[0].message


def test_catalog_docs_audit_passes_when_documented(tmp_path):
    obs = tmp_path / "repro" / "obs"
    obs.mkdir(parents=True)
    metric = "ninf_transport_bytes_sent_total"
    (obs / "names.py").write_text(
        f'TRANSPORT_BYTES_SENT = "{metric}"\n', encoding="utf-8")
    (tmp_path / "OBSERVABILITY.md").write_text(
        f"- {metric}: documented\n", encoding="utf-8")
    findings = run_checks([obs], [CatalogNamesChecker(repo_root=tmp_path)],
                          root=tmp_path)
    assert findings == []


def test_catalog_docs_audit_covers_span_backtick_form():
    """At head, every SPAN_NAMES entry is backtick-documented, so the
    audit over the real catalog modules is silent."""
    repo_root = Path(__file__).resolve().parents[2]
    trace_py = repo_root / "src" / "repro" / "obs" / "trace.py"
    names_py = repo_root / "src" / "repro" / "obs" / "names.py"
    findings = run_checks([trace_py, names_py],
                          [CatalogNamesChecker(repo_root=repo_root)],
                          root=repo_root)
    assert findings == []


# -- registry sanity ----------------------------------------------------------

@pytest.mark.parametrize("cls", ["ConnectionPool", "Endpoint",
                                 "Executor", "NinfRpcServices",
                                 "MetricsRegistry", "FaultPlan"])
def test_guarded_by_registry_covers_the_concurrent_classes(cls):
    from repro.analysis import GUARDED_BY
    assert cls in GUARDED_BY
