"""Rule ``deadline-propagation``: accepted deadlines must be threaded.

Every layer of the RPC stack takes per-operation deadlines
(``timeout=`` / ``connect_timeout=`` / ``deadline=``) and the paper's
WAN results depend on them actually reaching the socket: a deadline
accepted by a signature but silently dropped turns a bounded call into
an unbounded hang on a half-dead peer.  Two sub-rules:

- **dropped parameter** -- a function declares a deadline-named
  parameter but its body never references it.  The caller believes the
  operation is bounded; it is not.
- **unforwarded at the transport boundary** -- a function that *has* a
  deadline parameter makes a transport-primitive call (``.send()`` /
  ``.recv()`` / ``.request()`` / ``connect()`` / ``send_frame()`` /
  ``recv_frame()`` / ``create_connection()``) without a deadline
  keyword and without referencing its own deadline parameter anywhere
  in the call.  The deadline stops propagating exactly at the layer
  that talks to the network.

Since the interprocedural layer landed there is a third, call-graph
aware sub-rule:

- **dropped along the path** -- a function that accepts *and uses* a
  deadline calls a resolved project function that (a) itself accepts a
  deadline-named parameter and (b) reaches the transport boundary,
  without passing any deadline into it.  The per-function rule cannot
  see this: each function looks locally fine, but the timeout dies at
  the hand-off.  Callees *without* a deadline parameter stay exempt --
  that is the "baked-in channel default" doctrine above, unchanged.

Nested functions are separate scopes for both per-module sub-rules: a
closure's transport call is judged against the closure's own
parameters (the enclosing deadline usually bounds the *overall*
operation -- e.g. the polling loop of ``fetch_detached`` -- not each
frame).  Calls whose channel carries a baked-in default deadline and
whose enclosing function accepts none are fine: the rule is about
*accepting* a deadline and then dropping it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from repro.analysis.core import (Finding, Project, ProjectChecker,
                                 SourceModule)

__all__ = ["DeadlinePropagationChecker"]

#: Parameter names that promise a bounded operation.
DEADLINE_PARAMS = frozenset({
    "timeout", "deadline", "connect_timeout", "poll_timeout",
})

#: ``obj.<attr>(...)`` transport primitives that accept a deadline: the
#: channel surface.
TRANSPORT_ATTRS = frozenset({"send", "recv", "request"})

#: Bare-name transport primitives that accept a deadline: framing and
#: the dialers.
TRANSPORT_NAMES = frozenset({
    "connect", "send_frame", "recv_frame", "create_connection",
})

_FunctionDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


class DeadlinePropagationChecker(ProjectChecker):
    """Flag deadline parameters that are accepted but not threaded."""

    rule = "deadline-propagation"
    description = ("timeout=/deadline= parameters must be used and "
                   "forwarded to transport calls -- locally and along "
                   "every call-graph path to the transport boundary")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Check every function in ``module`` that takes a deadline."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(self, module: SourceModule,
                        function: _FunctionDef) -> Iterator[Finding]:
        params = _deadline_params(function)
        if not params:
            return
        local = _scope_local_nodes(function)
        used = {node.id for node in local
                if isinstance(node, ast.Name) and node.id in params}
        # Nested scopes may legitimately close over the parameter
        # (deferred sends, retry thunks) -- that still counts as use.
        used |= {node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name) and node.id in params}
        for name in sorted(params - used):
            yield self.finding(
                module, function,
                f"parameter {name!r} is accepted by {function.name}() but "
                f"never used: the deadline is silently dropped")
        if not used:
            return
        for node in local:
            if isinstance(node, ast.Call) and _is_transport_call(node) \
                    and not _forwards_deadline(node, used):
                yield self.finding(
                    module, node,
                    f"transport call {_describe(node)} inside "
                    f"{function.name}() forwards no deadline although "
                    f"{_fmt(used)} is in scope; pass timeout= through")

    # -- call-graph sub-rule --------------------------------------------------

    def check_project(self, project: Project) -> Iterator[Finding]:
        """A used deadline must survive every resolved hand-off to a
        transport-reaching callee that could carry it."""
        graph = project.callgraph
        reaching = _transport_reaching(graph)
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            params = _deadline_params(info.node)
            if not params:
                continue
            used = {node.id for node in ast.walk(info.node)
                    if isinstance(node, ast.Name) and node.id in params}
            if not used:
                continue  # the dropped-parameter sub-rule owns this
            for site in graph.callees(qualname):
                target = graph.functions[site.target]
                if site.target not in reaching:
                    continue
                if not _deadline_params(target.node):
                    continue  # baked-in default doctrine: exempt
                if _is_transport_call(site.node):
                    continue  # the per-module sub-rule owns this call
                if _forwards_deadline(site.node, used):
                    continue
                yield self.finding(
                    info.module, site.node,
                    f"call to {target.short}() inside "
                    f"{info.node.name}() forwards no deadline although "
                    f"{_fmt(used)} is in scope and {target.short}() "
                    f"reaches the transport boundary; pass timeout= "
                    f"through")


def _transport_reaching(graph) -> set[str]:
    """Functions containing a transport call, plus everything that can
    reach one through resolved project edges (reverse closure)."""
    base = set()
    for qualname, info in graph.functions.items():
        for node in _scope_local_nodes(info.node):
            if isinstance(node, ast.Call) and _is_transport_call(node):
                base.add(qualname)
                break
    reverse: dict[str, set[str]] = {}
    for caller, sites in graph.edges.items():
        for site in sites:
            reverse.setdefault(site.target, set()).add(caller)
    reaching = set(base)
    queue = list(base)
    while queue:
        for caller in reverse.get(queue.pop(), ()):
            if caller not in reaching:
                reaching.add(caller)
                queue.append(caller)
    return reaching


def _deadline_params(function: _FunctionDef) -> set[str]:
    args = function.args
    names = [a.arg for a in
             args.posonlyargs + args.args + args.kwonlyargs]
    return {name for name in names if name in DEADLINE_PARAMS}


def _scope_local_nodes(function: _FunctionDef) -> list[ast.AST]:
    """Every node in ``function`` excluding nested function bodies."""
    collected: list[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            collected.append(child)
            walk(child)

    walk(function)
    return collected


def _is_transport_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in TRANSPORT_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in TRANSPORT_ATTRS
    return False


def _forwards_deadline(call: ast.Call, params: set[str]) -> bool:
    for keyword in call.keywords:
        if keyword.arg in DEADLINE_PARAMS or keyword.arg is None:
            return True  # explicit timeout= (or **kwargs passthrough)
    for arg in call.args:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id in params:
                return True
    return False


def _describe(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return f"{func.id}(...)"
    if isinstance(func, ast.Attribute):
        return f".{func.attr}(...)"
    return "(...)"


def _fmt(used: set[str]) -> str:
    return "/".join(sorted(used))
