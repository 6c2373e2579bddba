"""Rule ``lock-discipline``: guarded attributes need their lock held.

The concurrent classes of the reproduction guard shared mutable state
with per-instance ``threading.Lock``s under an ad-hoc convention:
mutate only inside ``with self._lock:`` and mark helpers that *assume*
the lock with a ``_locked`` name suffix.  :data:`GUARDED_BY` makes that
convention machine-checkable: it declares, per class, which attributes
are guarded by which lock, populated from the actual ``self._lock``
usage in ``repro.obs.registry``, ``repro.transport.pool``,
``repro.transport.faults``, ``repro.transport.endpoint``,
``repro.server.executor``, ``repro.server.services``,
``repro.metaserver.metaserver``, and ``repro.client.core``.

Two guard strengths:

- ``guarded`` -- every read and write of the attribute must happen
  inside ``with self.<lock>:`` (mutable structures: dicts, lists).
- ``guarded_writes`` -- only writes need the lock; unlocked reads are
  an accepted race (monotonic flags like ``Endpoint._running`` that
  loop threads poll without synchronisation).

What the checker accepts as "lock held":

- the access is lexically inside ``with self.<lock>:`` (any of the
  class's declared locks counts only for its own attributes);
- the enclosing method's name ends in ``_locked`` (the caller-holds-
  the-lock convention);
- the access is in ``__init__``/``__del__`` (no concurrent aliasing
  yet / anymore).

Known limits (by design, documented in ANALYSIS.md): only ``self.X``
accesses are tracked -- module-level helpers that take an instance
parameter (e.g. ``_scalar_render(instrument)``) are out of scope, and
nested functions are assumed to run *without* the enclosing lock (a
closure usually outlives the ``with`` block that created it), so they
must take the lock themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from repro.analysis.core import Checker, Finding, SourceModule

__all__ = ["GUARDED_BY", "LockDisciplineChecker", "LockSpec"]


@dataclass(frozen=True)
class LockSpec:
    """One lock attribute and the attributes it protects."""

    lock: str
    guarded: frozenset[str] = field(default_factory=frozenset)
    guarded_writes: frozenset[str] = field(default_factory=frozenset)


def _spec(lock: str, guarded: Sequence[str] = (),
          writes: Sequence[str] = ()) -> LockSpec:
    return LockSpec(lock, frozenset(guarded), frozenset(writes))


#: The project registry: class name -> lock specs.  Subclasses found in
#: the AST inherit the specs of any base listed here (``Histogram`` gets
#: ``_Instrument``'s, ``NinfServer`` gets ``Endpoint``'s, ...).
GUARDED_BY: dict[str, tuple[LockSpec, ...]] = {
    # repro.obs.registry
    "_Instrument": (_spec("_lock", guarded=("_children",)),),
    "MetricsRegistry": (_spec("_lock", guarded=("_instruments",)),),
    # repro.obs.trace
    "Tracer": (_spec("_lock", guarded=("_spans",)),),
    # repro.transport.pool
    "ConnectionPool": (_spec("_lock", guarded=("_idle", "_closed")),),
    # repro.transport.faults
    "FaultPlan": (_spec("_lock",
                        guarded=("events", "injected", "ops_seen")),),
    # repro.transport.breaker
    "CircuitBreaker": (_spec("_lock", guarded=("_keys", "trips")),),
    # repro.transport.endpoint -- serving code reads the lifecycle
    # state unlocked by design, so only writes are guarded; the driver
    # adds its own I/O state to the core's.
    "EndpointCore": (_spec("_lock", guarded=("_stats_worker",),
                           writes=("_running", "_address")),),
    "Endpoint": (_spec("_lock", guarded=("_rings",),
                       writes=("_listener", "_reactor", "_wake")),),
    # A reply socket's owner is read unlocked by the thread that may
    # own it: only that thread's own write can have made it its ident.
    "_ReplySocket": (_spec("_lock", guarded=("_backlog", "_flushed"),
                           writes=("owner",)),),
    # repro.server.executor -- every queue and PE decision is its
    # AdmissionCore's, so the core is what the lock guards.
    "Executor": (_spec("_lock", guarded=("_core",)),),
    # repro.server.dedup
    "DedupCache": (_spec("_lock", guarded=("_pending", "_done",
                                          "_done_bytes", "hits")),),
    # repro.server.services -- the RPC mixin composed with the endpoint.
    "NinfRpcServices": (
        # FETCH reads the ticket counter unlocked: an int read is atomic,
        # and a ticket issued meanwhile is not the one being fetched.
        _spec("_detached_lock", guarded=("_detached_jobs",),
              writes=("_ticket_counter",)),
        _spec("_load_lock", guarded=("_load_value", "_load_stamp")),
    ),
    # repro.client.core -- NinfClient and AsyncNinfClient inherit it
    "ClientState": (_spec("_records_lock", guarded=("records",)),),
    # repro.metaserver.metaserver
    "MetaClient": (_spec("_lock", guarded=("_observations",)),),
    "BrokeredClient": (_spec("_lock", guarded=("_clients", "records",
                                               "failovers")),),
}

#: Construction/destruction runs before the object is shared (no other
#: thread can hold a reference yet), so guarded attributes may be
#: initialised bare.
_EXEMPT_METHODS = frozenset({"__init__", "__del__"})


class LockDisciplineChecker(Checker):
    """Flag guarded-attribute access outside ``with self.<lock>:``."""

    rule = "lock-discipline"
    description = ("attributes declared in the _GUARDED_BY registry may "
                   "only be accessed while holding their lock")

    def __init__(self, registry: Optional[
            Mapping[str, tuple[LockSpec, ...]]] = None):
        self.registry = dict(GUARDED_BY if registry is None else registry)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Check every class in ``module`` against the registry."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # -- per-class -----------------------------------------------------------

    def _specs_for(self, classdef: ast.ClassDef) -> tuple[LockSpec, ...]:
        specs: list[LockSpec] = list(self.registry.get(classdef.name, ()))
        for base in classdef.bases:
            if isinstance(base, ast.Name):
                specs.extend(self.registry.get(base.id, ()))
            elif isinstance(base, ast.Attribute):
                specs.extend(self.registry.get(base.attr, ()))
        # Deduplicate while preserving declaration order.
        unique: list[LockSpec] = []
        for spec in specs:
            if spec not in unique:
                unique.append(spec)
        return tuple(unique)

    def _check_class(self, module: SourceModule,
                     classdef: ast.ClassDef) -> Iterator[Finding]:
        specs = self._specs_for(classdef)
        if not specs:
            return
        lock_names = frozenset(spec.lock for spec in specs)
        for stmt in classdef.body:
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if stmt.name in _EXEMPT_METHODS:
                continue
            held = lock_names if stmt.name.endswith("_locked") \
                else frozenset()
            yield from self._walk(module, classdef, specs, stmt.body, held,
                                  lock_names)

    # -- the walk ------------------------------------------------------------

    def _walk(self, module: SourceModule, classdef: ast.ClassDef,
              specs: Sequence[LockSpec], nodes: Sequence[ast.AST],
              held: frozenset[str],
              lock_names: frozenset[str]) -> Iterator[Finding]:
        for node in nodes:
            yield from self._visit(module, classdef, specs, node, held,
                                   lock_names)

    def _visit(self, module: SourceModule, classdef: ast.ClassDef,
               specs: Sequence[LockSpec], node: ast.AST,
               held: frozenset[str],
               lock_names: frozenset[str]) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: set[str] = set(held)
            for item in node.items:
                lock = _self_attr(item.context_expr)
                if lock is not None and lock in lock_names:
                    acquired.add(lock)
                yield from self._visit(module, classdef, specs,
                                       item.context_expr, held, lock_names)
            yield from self._walk(module, classdef, specs, node.body,
                                  frozenset(acquired), lock_names)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def runs later, without the enclosing lock --
            # unless it follows the _locked naming convention.
            inner = lock_names if node.name.endswith("_locked") \
                else frozenset()
            yield from self._walk(module, classdef, specs, node.body,
                                  inner, lock_names)
            return
        if isinstance(node, ast.Lambda):
            yield from self._visit(module, classdef, specs, node.body,
                                   frozenset(), lock_names)
            return
        if isinstance(node, ast.ClassDef):
            return  # a nested class gets its own registry pass

        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                is_write = isinstance(node.ctx, (ast.Store, ast.Del))
                for spec in specs:
                    if attr in spec.guarded or (
                            is_write and attr in spec.guarded_writes):
                        if spec.lock not in held:
                            access = "write to" if is_write else "read of"
                            yield self.finding(
                                module, node,
                                f"{access} {classdef.name}.{attr} without "
                                f"holding self.{spec.lock} (declared "
                                f"guarded in the _GUARDED_BY registry)")
                        break
        for child in ast.iter_child_nodes(node):
            yield from self._visit(module, classdef, specs, child, held,
                                   lock_names)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None
