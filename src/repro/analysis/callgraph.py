"""Project-wide call graph for the interprocedural checkers.

The graph is built once per lint run (cached on
:class:`~repro.analysis.core.Project`) from every loaded
:class:`~repro.analysis.core.SourceModule` and shared by
``async-blocking-reachability`` and the call-graph-aware half of
``deadline-propagation``.

Resolution is deliberately *conservative*: an edge exists only when the
callee can be named with confidence, and every call that cannot be --
dynamic dispatch through a handler table, a callable parameter, an
attribute of unknown type -- lands in the explicit
:attr:`CallGraph.unresolved` set instead of being guessed at.  The
checkers treat unresolved calls as "no edge" (they can neither block a
handler nor carry a deadline), and the golden tests pin the
unresolved set so a resolver regression is a visible diff, not a
silent hole.

What *is* resolved:

- bare names: nested functions, module-level functions/classes, and
  ``import``/``from ... import`` aliases (project and stdlib);
- ``self.method()`` through the class's project-internal MRO, and --
  for mixins like ``NinfRpcServices`` that call methods their host
  provides -- through every project subclass's MRO (all candidates
  become edges);
- ``obj.method()`` where ``obj``'s class is known from a parameter
  annotation, an ``x = ClassName(...)`` local, a
  ``self.attr = ClassName(...)`` assignment, or the return annotation
  of an already-resolved call (``Optional``/``Union``/``Iterator``
  wrappers are unwrapped);
- constructor calls, which edge to the class's ``__init__``.

Calls whose callable is passed *as an argument* never produce an edge,
which is exactly how work a handler hands to another thread
(``threading.Thread(target=...)``, an executor's ``submit``) stays
invisible to reachability: handing a blocking callable to a thread is
the fix, not the bug.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.analysis.core import SourceModule

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "ExternalCall",
    "FunctionInfo",
    "HandlerRegistration",
    "UnresolvedCall",
    "module_name",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``typing`` wrappers whose first argument carries the interesting type.
_UNWRAP_GENERICS = frozenset({
    "Optional", "Iterator", "AsyncIterator", "Generator", "AsyncGenerator",
    "ContextManager", "AsyncContextManager", "Awaitable", "Coroutine",
    "Union",
})


def module_name(display_path: str) -> str:
    """Dotted module name for a display path.

    ``src/repro/transport/channel.py`` -> ``repro.transport.channel``;
    paths outside a ``src`` layout keep their own parts
    (``fixtures/thing.py`` -> ``fixtures.thing``).
    """
    parts = list(display_path.split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    while "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class FunctionInfo:
    """One function or method node in the graph."""

    qualname: str
    module: SourceModule
    node: _FunctionNode
    owner: Optional[str] = None   #: owning class qualname for methods
    parent: Optional[str] = None  #: enclosing function qualname (closures)

    @property
    def short(self) -> str:
        """``Class.method`` / ``function`` without the module prefix."""
        prefix = f"{self.module_prefix}."
        return self.qualname[len(prefix):] \
            if self.qualname.startswith(prefix) else self.qualname

    @property
    def module_prefix(self) -> str:
        return module_name(self.module.display_path)


@dataclass
class ClassInfo:
    """One class: bases, method table, and inferred attribute types."""

    qualname: str
    module: SourceModule
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """A resolved project-internal call edge."""

    caller: str
    target: str
    node: ast.Call
    module: SourceModule


@dataclass(frozen=True)
class ExternalCall:
    """A call resolved to a name outside the project (stdlib, builtin)."""

    caller: str
    name: str
    node: ast.Call
    module: SourceModule




@dataclass(frozen=True)
class HandlerRegistration:
    """One ``register_handler`` call: who runs for which frame."""

    caller: str
    handlers: tuple[str, ...]     #: candidate handler qualnames


@dataclass(frozen=True)
class UnresolvedCall:
    """A call the resolver refuses to guess at (the known-unresolved set)."""

    caller: str
    reason: str
    describe: str
    node: ast.Call
    module: SourceModule


class _ModuleScope:
    """Per-module symbol tables: imports, top-level defs, classes."""

    def __init__(self, module: SourceModule):
        self.module = module
        self.name = module_name(module.display_path)
        self.package = self.name.rsplit(".", 1)[0] if "." in self.name else ""
        self.imports: dict[str, str] = {}
        self.functions: dict[str, str] = {}  # local name -> qualname
        self.classes: dict[str, str] = {}


class CallGraph:
    """The project call graph; build with :meth:`build`."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: dict[str, list[CallSite]] = {}
        self.external: dict[str, list[ExternalCall]] = {}
        self.unresolved: dict[str, list[UnresolvedCall]] = {}
        self._scopes: dict[str, _ModuleScope] = {}
        self._subclasses: dict[str, set[str]] = {}
        self._type_env: dict[str, dict[str, str]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[SourceModule]) -> "CallGraph":
        """Collect symbols, link classes, then resolve every call."""
        graph = cls()
        for module in modules:
            graph._collect(module)
        graph._link_classes()
        for info in list(graph.functions.values()):
            graph._resolve_function(info)
        return graph

    def _collect(self, module: SourceModule) -> None:
        scope = _ModuleScope(module)
        self._scopes[scope.name] = scope
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    scope.imports[alias.asname or
                                  alias.name.split(".")[0]] = \
                        alias.name if alias.asname else \
                        alias.name.split(".")[0]
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    pkg_parts = scope.name.split(".")
                    pkg_parts = pkg_parts[:len(pkg_parts) - stmt.level]
                    base = ".".join(pkg_parts + ([stmt.module]
                                                 if stmt.module else []))
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    scope.imports[alias.asname or alias.name] = \
                        f"{base}.{alias.name}" if base else alias.name
        self._collect_defs(module, scope, module.tree.body,
                           prefix=scope.name, owner=None, parent=None,
                           top_level=True)

    def _collect_defs(self, module: SourceModule, scope: _ModuleScope,
                      body: Iterable[ast.stmt], prefix: str,
                      owner: Optional[str], parent: Optional[str],
                      top_level: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=module, node=stmt,
                    owner=owner, parent=parent)
                if owner is not None and parent is None:
                    self.classes[owner].methods.setdefault(stmt.name,
                                                           qualname)
                if top_level:
                    scope.functions[stmt.name] = qualname
                self._collect_defs(module, scope, stmt.body,
                                   prefix=qualname, owner=None,
                                   parent=qualname, top_level=False)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}.{stmt.name}"
                self.classes[qualname] = ClassInfo(
                    qualname=qualname, module=module, node=stmt)
                if top_level:
                    scope.classes[stmt.name] = qualname
                self._collect_defs(module, scope, stmt.body,
                                   prefix=qualname, owner=qualname,
                                   parent=None, top_level=False)

    def _link_classes(self) -> None:
        for info in self.classes.values():
            scope = self._scopes[module_name(info.module.display_path)]
            for base in info.node.bases:
                resolved = self._resolve_symbol(_dotted(base), scope)
                if resolved in self.classes:
                    info.bases.append(resolved)
                    self._subclasses.setdefault(resolved,
                                                set()).add(info.qualname)
        # Attribute types need the full class table, so a second pass.
        for info in self.classes.values():
            self._infer_attr_types(info)

    # -- symbol / type resolution --------------------------------------------

    def _resolve_symbol(self, dotted: Optional[str],
                        scope: _ModuleScope) -> Optional[str]:
        """A dotted name as written -> project qualname or dotted import."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        if head in scope.classes:
            target = scope.classes[head]
        elif head in scope.functions:
            target = scope.functions[head]
        elif head in scope.imports:
            target = scope.imports[head]
        else:
            return self._canonical(dotted)
        return self._canonical(f"{target}.{rest}" if rest else target)

    def _canonical(self, dotted: str) -> str:
        """Follow package re-exports: ``repro.obs.MetricsRegistry``
        (imported into the package ``__init__``) canonicalises to
        ``repro.obs.registry.MetricsRegistry`` where the class lives."""
        seen = set()
        while dotted not in self.classes and dotted not in self.functions:
            if dotted in seen:
                break
            seen.add(dotted)
            mod, _, member = dotted.rpartition(".")
            scope = self._scopes.get(mod)
            if scope is None:
                break
            if member in scope.classes:
                dotted = scope.classes[member]
            elif member in scope.functions:
                dotted = scope.functions[member]
            elif member in scope.imports:
                dotted = scope.imports[member]
            else:
                break
        return dotted

    def mro(self, class_qualname: str) -> list[str]:
        """Project-internal linearisation: the class, then bases BFS."""
        seen: list[str] = []
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.append(current)
            queue.extend(self.classes[current].bases)
        return seen

    def subclasses(self, class_qualname: str) -> set[str]:
        """Every transitive project subclass of ``class_qualname``."""
        result: set[str] = set()
        queue = [class_qualname]
        while queue:
            for sub in self._subclasses.get(queue.pop(), ()):
                if sub not in result:
                    result.add(sub)
                    queue.append(sub)
        return result

    def lookup_method(self, class_qualname: str,
                      name: str) -> Optional[str]:
        """``name`` through the project MRO of ``class_qualname``."""
        for cls in self.mro(class_qualname):
            found = self.classes[cls].methods.get(name)
            if found is not None:
                return found
        return None

    def _mixin_candidates(self, class_qualname: str,
                          name: str) -> list[str]:
        """Where ``self.name()`` may land when the class itself lacks it:
        the MRO of every project subclass (mixin host dispatch)."""
        found = set()
        for sub in self.subclasses(class_qualname):
            target = self.lookup_method(sub, name)
            if target is not None:
                found.add(target)
        return sorted(found)

    def _annotation_type(self, node: Optional[ast.expr],
                         scope: _ModuleScope) -> Optional[str]:
        """A parameter/return annotation -> project class qualname."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            base = _dotted(node.value)
            if base and base.split(".")[-1] in _UNWRAP_GENERICS:
                inner = node.slice
                if isinstance(inner, ast.Tuple):
                    candidates = [
                        self._annotation_type(elt, scope)
                        for elt in inner.elts
                    ]
                    hits = [c for c in candidates if c is not None]
                    return hits[0] if len(hits) == 1 else None
                return self._annotation_type(inner, scope)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            left = self._annotation_type(node.left, scope)
            right = self._annotation_type(node.right, scope)
            hits = [c for c in (left, right) if c is not None]
            return hits[0] if len(hits) == 1 else None
        resolved = self._resolve_symbol(_dotted(node), scope)
        return resolved if resolved in self.classes else None

    def _constructed_class(self, call: ast.Call,
                           scope: _ModuleScope) -> Optional[str]:
        """``ClassName(...)`` -> the class qualname, else None."""
        target = self._resolve_symbol(_dotted(call.func), scope)
        return target if target in self.classes else None

    def _call_result_type(self, call: ast.Call, scope: _ModuleScope,
                          env: dict[str, str]) -> Optional[str]:
        """The class an expression ``f(...)`` evaluates to, if knowable."""
        constructed = self._constructed_class(call, scope)
        if constructed is not None:
            return constructed
        target = self._resolve_call_target(call, scope, env)
        if isinstance(target, str) and target in self.functions:
            info = self.functions[target]
            target_scope = self._scopes[info.module_prefix]
            return self._annotation_type(info.node.returns, target_scope)
        return None

    def _infer_attr_types(self, info: ClassInfo) -> None:
        scope = self._scopes[module_name(info.module.display_path)]
        inferred: dict[str, Optional[str]] = {}

        def note(attr: str, hinted: Optional[str]) -> None:
            if hinted is None:
                return
            if attr in inferred and inferred[attr] != hinted:
                inferred[attr] = None  # conflicting writes: unknown
            else:
                inferred[attr] = hinted

        for method_qual in info.methods.values():
            method = self.functions[method_qual]
            params = _param_annotations(method.node, scope, self)
            for node in ast.walk(method.node):
                targets: list[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                for target in targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if isinstance(node, ast.AnnAssign):
                        hinted = self._annotation_type(node.annotation,
                                                       scope)
                        if hinted is not None:
                            note(target.attr, hinted)
                            continue
                    note(target.attr,
                         self._value_type(value, scope, params))
        info.attr_types = {attr: cls for attr, cls in inferred.items()
                           if cls is not None}

    def _value_type(self, value: Optional[ast.expr], scope: _ModuleScope,
                    env: dict[str, str]) -> Optional[str]:
        """Best-effort type of an assigned expression."""
        if value is None:
            return None
        if isinstance(value, ast.Name):
            return env.get(value.id)
        if isinstance(value, ast.Call):
            return self._call_result_type(value, scope, env)
        if isinstance(value, ast.IfExp):
            hits = {t for t in (self._value_type(value.body, scope, env),
                                self._value_type(value.orelse, scope, env))
                    if t is not None}
            return hits.pop() if len(hits) == 1 else None
        if isinstance(value, ast.BoolOp):
            hits = {t for t in (self._value_type(v, scope, env)
                                for v in value.values) if t is not None}
            return hits.pop() if len(hits) == 1 else None
        if isinstance(value, ast.Await):
            return self._value_type(value.value, scope, env)
        return None

    # -- expression typing inside one function --------------------------------

    def _expr_type(self, expr: ast.expr, scope: _ModuleScope,
                   env: dict[str, str]) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._expr_type(expr.value, scope, env)
            if owner is None:
                return None
            for cls in self.mro(owner):
                hinted = self.classes[cls].attr_types.get(expr.attr)
                if hinted is not None:
                    return hinted
            # Property access: type from the property's return annotation.
            method = self.lookup_method(owner, expr.attr)
            if method is not None and _is_property(
                    self.functions[method].node):
                info = self.functions[method]
                return self._annotation_type(
                    info.node.returns, self._scopes[info.module_prefix])
            return None
        if isinstance(expr, ast.Call):
            return self._call_result_type(expr, scope, env)
        if isinstance(expr, ast.Await):
            return self._expr_type(expr.value, scope, env)
        return None

    # -- call resolution ------------------------------------------------------

    def _build_type_env(self, info: FunctionInfo,
                        scope: _ModuleScope) -> dict[str, str]:
        env = _param_annotations(info.node, scope, self)
        if info.owner is not None and not _is_staticmethod(info.node):
            arg_names = [a.arg for a in info.node.args.posonlyargs
                         + info.node.args.args]
            if arg_names:
                env.setdefault(arg_names[0], info.owner)
        conflicted: set[str] = set()
        for node in _local_nodes(info.node):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        hinted = self._value_type(item.context_expr, scope,
                                                  env)
                        _note_local(env, conflicted,
                                    item.optional_vars.id, hinted)
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    _note_local(env, conflicted, target.id,
                                self._value_type(value, scope, env))
        for name in conflicted:
            env.pop(name, None)
        return env

    def _resolve_call_target(
            self, call: ast.Call, scope: _ModuleScope,
            env: dict[str, str],
            caller: Optional[FunctionInfo] = None
    ) -> Union[str, list[str], UnresolvedCall, None]:
        """One call -> project qualname(s), external dotted name (as a
        plain string prefixed with ``external:``), or an unresolved
        marker.  ``None`` means "a project class with no __init__"."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            # Nested function visible through the enclosing def chain.
            walk = caller
            while walk is not None:
                nested = f"{walk.qualname}.{name}"
                if nested in self.functions:
                    return nested
                walk = self.functions.get(walk.parent) \
                    if walk.parent else None
            if name in scope.functions:
                return scope.functions[name]
            if name in scope.classes:
                init = self.lookup_method(scope.classes[name], "__init__")
                return init  # may be None: no project __init__
            if name in scope.imports:
                resolved = self._resolve_symbol(name, scope)
                if resolved in self.functions:
                    return resolved
                if resolved in self.classes:
                    return self.lookup_method(resolved, "__init__")
                return f"external:{resolved}"
            if caller is not None and name in _assigned_names(caller.node):
                return UnresolvedCall(
                    caller=caller.qualname, reason="dynamic-callable",
                    describe=f"{name}(...)", node=call,
                    module=scope.module)
            return f"external:{name}"
        if isinstance(func, ast.Attribute):
            receiver = func.value
            # Module-alias receivers: time.sleep, os.getpid.
            dotted = _dotted(receiver)
            if dotted is not None:
                head = dotted.split(".")[0]
                if (head in scope.imports
                        and dotted not in env
                        and head not in env):
                    resolved = self._resolve_symbol(
                        f"{dotted}.{func.attr}", scope)
                    if resolved in self.functions:
                        return resolved
                    if resolved in self.classes:
                        return self.lookup_method(resolved, "__init__")
                    if resolved in self._scopes_member(resolved):
                        return self._scopes_member(resolved)[resolved]
                    if self._is_project_path(resolved):
                        return UnresolvedCall(
                            caller=caller.qualname if caller else "?",
                            reason="unknown-member",
                            describe=f"{dotted}.{func.attr}(...)",
                            node=call, module=scope.module)
                    return f"external:{resolved}"
            owner = self._expr_type(receiver, scope, env)
            if owner is not None:
                found = self.lookup_method(owner, func.attr)
                if found is not None:
                    return found
                candidates = self._mixin_candidates(owner, func.attr)
                if candidates:
                    return candidates
                return UnresolvedCall(
                    caller=caller.qualname if caller else "?",
                    reason="unknown-method",
                    describe=f"{_short_class(owner)}.{func.attr}(...)",
                    node=call, module=scope.module)
            return UnresolvedCall(
                caller=caller.qualname if caller else "?",
                reason="unknown-receiver",
                describe=f".{func.attr}(...)", node=call,
                module=scope.module)
        return UnresolvedCall(
            caller=caller.qualname if caller else "?",
            reason="dynamic-callable", describe="(...)", node=call,
            module=scope.module)

    def _scopes_member(self, dotted: Optional[str]) -> dict[str, str]:
        """Project module-level functions addressed as ``module.func``."""
        if not dotted or "." not in dotted:
            return {}
        mod, _, member = dotted.rpartition(".")
        scope = self._scopes.get(mod)
        if scope is None:
            return {}
        table = {}
        if member in scope.functions:
            table[dotted] = scope.functions[member]
        return table

    def _is_project_path(self, dotted: Optional[str]) -> bool:
        if not dotted:
            return False
        return any(dotted == name or dotted.startswith(name + ".")
                   for name in self._scopes)

    def _resolve_function(self, info: FunctionInfo) -> None:
        scope = self._scopes[info.module_prefix]
        env = self._build_type_env(info, scope)
        self._type_env[info.qualname] = env
        edges: list[CallSite] = []
        external: list[ExternalCall] = []
        unresolved: list[UnresolvedCall] = []
        for node in _local_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            result = self._resolve_call_target(node, scope, env,
                                               caller=info)
            if result is None:
                continue  # constructor of an __init__-less class
            if isinstance(result, UnresolvedCall):
                unresolved.append(result)
                continue
            targets = result if isinstance(result, list) else [result]
            for target in targets:
                if target.startswith("external:"):
                    external.append(ExternalCall(
                        caller=info.qualname, name=target[9:],
                        node=node, module=info.module))
                elif target in self.functions:
                    edges.append(CallSite(caller=info.qualname,
                                          target=target, node=node,
                                          module=info.module))
        self.edges[info.qualname] = edges
        self.external[info.qualname] = external
        self.unresolved[info.qualname] = unresolved

    # -- queries --------------------------------------------------------------

    def callees(self, qualname: str) -> list[CallSite]:
        """Resolved project-internal call sites inside ``qualname``."""
        return self.edges.get(qualname, [])

    def external_calls(self, qualname: str) -> list[ExternalCall]:
        """Calls inside ``qualname`` that resolve outside the project
        (stdlib / third-party), by dotted external name."""
        return self.external.get(qualname, [])

    def resolve_method_ref(self, func_qualname: str,
                           expr: ast.expr) -> list[str]:
        """A non-call method reference (``self._handle_call`` passed to
        ``register_handler``) -> candidate function qualnames."""
        info = self.functions.get(func_qualname)
        if info is None or not isinstance(expr, ast.Attribute):
            return []
        scope = self._scopes[info.module_prefix]
        env = self._type_env.get(func_qualname, {})
        owner = self._expr_type(expr.value, scope, env)
        if owner is None:
            return []
        found = self.lookup_method(owner, expr.attr)
        if found is not None:
            return [found]
        return self._mixin_candidates(owner, expr.attr)

    def handler_registrations(self) -> list["HandlerRegistration"]:
        """Every ``x.register_handler(mt, ref)`` call in the project,
        with ``ref`` resolved to its candidate handler functions: the
        endpoints' dispatch tables, which no call edge shows."""
        found = []
        for qualname in sorted(self.functions):
            for call in _local_nodes(self.functions[qualname].node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "register_handler"
                        and len(call.args) >= 2):
                    found.append(HandlerRegistration(
                        caller=qualname,
                        handlers=tuple(self.resolve_method_ref(
                            qualname, call.args[1]))))
        return found


# -- small AST helpers --------------------------------------------------------

def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string, or None for non-name expressions."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _local_nodes(function: _FunctionNode) -> list[ast.AST]:
    """Every node of ``function`` excluding nested def/class bodies
    (lambdas stay: they share the enclosing scope's names)."""
    collected: list[ast.AST] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            collected.append(child)
            walk(child)

    walk(function)
    return collected


def _param_annotations(function: _FunctionNode, scope: _ModuleScope,
                       graph: CallGraph) -> dict[str, str]:
    env: dict[str, str] = {}
    args = function.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        hinted = graph._annotation_type(arg.annotation, scope)
        if hinted is not None:
            env[arg.arg] = hinted
    return env


def _assigned_names(function: _FunctionNode) -> set[str]:
    """Names bound inside the function (params, assigns, loop/with
    targets) -- a bare call to one is dynamic dispatch, not a global."""
    names = {a.arg for a in function.args.posonlyargs + function.args.args
             + function.args.kwonlyargs}
    if function.args.vararg:
        names.add(function.args.vararg.arg)
    if function.args.kwarg:
        names.add(function.args.kwarg.arg)
    for node in _local_nodes(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_target_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(_target_names(item.optional_vars))
    return names


def _target_names(target: ast.expr) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            found.add(node.id)
    return found


def _note_local(env: dict[str, str], conflicted: set[str], name: str,
                hinted: Optional[str]) -> None:
    if hinted is None:
        if name in env:
            conflicted.add(name)  # retyped by an opaque expression
        return
    if name in env and env[name] != hinted:
        conflicted.add(name)
        return
    env[name] = hinted


def _short_class(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def _is_staticmethod(function: _FunctionNode) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in function.decorator_list)


def _is_property(function: _FunctionNode) -> bool:
    for dec in function.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == "property":
            return True
        if isinstance(dec, ast.Attribute) and dec.attr in ("getter",):
            return True
    return False
