"""Rule ``catalog-pinned-names``: instrumentation names come from the catalog.

Every metric the reproduction emits is declared once, in
``repro.obs.names`` (and listed in ``METRIC_NAMES``); every span name
lives in ``repro.obs.trace.SPAN_NAMES``.  The breakdown pipeline, the
Prometheus scrape config, and OBSERVABILITY.md all key off those
catalogs, so a metric registered under a freehand string is invisible
to all three.  This checker pins instrumentation sites to the catalog:

- a **metric site** is a ``.counter(...)`` / ``.gauge(...)`` /
  ``.histogram(...)`` call; its name argument must resolve to a value
  in ``METRIC_NAMES``;
- a **span site** is a ``.trace(...)`` / ``.span(...)`` /
  ``.record(...)`` call; its name argument must resolve to a value in
  ``SPAN_NAMES``.

"Resolve" covers the three forms the tree actually uses: a string
literal, a ``names.X`` attribute, or a bare ``SPAN_X``-style constant
imported from the catalog modules.  Dynamic name arguments (anything
else -- e.g. ``log.record(entry)`` on an object that is not a tracer,
which is not a span site at all) are skipped: the rule is about
literals that *look* pinned but are not.

The checker also subsumes the catalog half of the old docs-consistency
test: when it scans the catalog modules themselves and the repo's
OBSERVABILITY.md is available, every ``METRIC_NAMES`` entry must appear
in that doc and every ``SPAN_NAMES`` entry must appear backtick-quoted,
with findings anchored at the constant's assignment line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.analysis.core import Checker, Finding, SourceModule

__all__ = ["CatalogNamesChecker"]

#: ``registry.<attr>(name, ...)`` calls that register a metric.
METRIC_SITE_ATTRS = frozenset({"counter", "gauge", "histogram"})

#: ``tracer/trace.<attr>(name, ...)`` calls that open or record a span.
SPAN_SITE_ATTRS = frozenset({"trace", "span", "record"})


def _load_catalogs() -> tuple[dict[str, str], dict[str, str],
                              frozenset[str], frozenset[str]]:
    """(metric constants, span constants, metric values, span values)."""
    from repro.obs import names as names_mod
    from repro.obs import trace as trace_mod

    metric_consts = {
        attr: value for attr in dir(names_mod)
        if attr.isupper() and attr != "METRIC_NAMES"
        and isinstance(value := getattr(names_mod, attr), str)
    }
    span_consts = {
        attr: value for attr in dir(trace_mod)
        if attr.startswith("SPAN_") and attr != "SPAN_NAMES"
        and isinstance(value := getattr(trace_mod, attr), str)
    }
    return (metric_consts, span_consts,
            frozenset(names_mod.METRIC_NAMES),
            frozenset(trace_mod.SPAN_NAMES))


class CatalogNamesChecker(Checker):
    """Flag instrumentation-site names missing from the obs catalogs."""

    rule = "catalog-pinned-names"
    description = ("metric/span names at instrumentation sites must "
                   "exist in repro.obs.names / SPAN_NAMES (and be "
                   "documented in OBSERVABILITY.md)")

    def __init__(self, repo_root: Optional[Path] = None):
        self.repo_root = repo_root
        (self._metric_consts, self._span_consts,
         self._metric_values, self._span_values) = _load_catalogs()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Check instrumentation sites, then the catalog's own docs."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
        yield from self._check_docs(module)

    # -- instrumentation sites -----------------------------------------------

    def _check_call(self, module: SourceModule,
                    call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in METRIC_SITE_ATTRS:
            kind, consts, values, catalog = (
                "metric", self._metric_consts, self._metric_values,
                "repro.obs.names.METRIC_NAMES")
        elif func.attr in SPAN_SITE_ATTRS:
            kind, consts, values, catalog = (
                "span", self._span_consts, self._span_values,
                "repro.obs.trace.SPAN_NAMES")
        else:
            return
        arg = _name_argument(call)
        if arg is None:
            return

        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value not in values:
                yield self.finding(
                    module, arg,
                    f"{kind} name {arg.value!r} is not in {catalog}; "
                    f"declare it in the catalog instead of inlining the "
                    f"string")
            return

        const = _constant_reference(arg)
        if const is None:
            return  # dynamic name -- out of scope for a literal check
        value = consts.get(const)
        if value is None:
            yield self.finding(
                module, arg,
                f"{const} is not a constant of the {kind} catalog "
                f"module; {kind} names must come from {catalog}")
        elif value not in values:
            yield self.finding(
                module, arg,
                f"{const} = {value!r} is not listed in {catalog}")

    # -- catalog <-> OBSERVABILITY.md ----------------------------------------

    def _check_docs(self, module: SourceModule) -> Iterator[Finding]:
        """The docs half, run only over the catalog modules themselves."""
        posix = module.path.as_posix()
        if posix.endswith("repro/obs/names.py"):
            values, quote = self._metric_values, False
        elif posix.endswith("repro/obs/trace.py"):
            values, quote = self._span_values, True
        else:
            return
        doc_text = self._observability_text()
        if doc_text is None:
            return
        for stmt in module.tree.body:
            if not (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                continue
            value = stmt.value.value
            if value not in values:
                continue
            needle = f"`{value}`" if quote else value
            if needle not in doc_text:
                label = "span" if quote else "metric"
                yield self.finding(
                    module, stmt,
                    f"{label} {value!r} is in the catalog but missing "
                    f"from OBSERVABILITY.md; document it there")

    def _observability_text(self) -> Optional[str]:
        if self.repo_root is None:
            return None
        doc = self.repo_root / "OBSERVABILITY.md"
        if not doc.is_file():
            return None
        return doc.read_text(encoding="utf-8")


def _name_argument(call: ast.Call) -> Optional[ast.expr]:
    """The name argument of an instrumentation call, if present."""
    for keyword in call.keywords:
        if keyword.arg == "name":
            return keyword.value
    if call.args:
        return call.args[0]
    return None


def _constant_reference(arg: ast.expr) -> Optional[str]:
    """``names.X`` / bare ``SPAN_X`` -> ``"X"``; dynamic -> None."""
    if (isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name)
            and arg.attr.isupper()):
        return arg.attr
    if isinstance(arg, ast.Name) and arg.id.isupper():
        return arg.id
    return None
