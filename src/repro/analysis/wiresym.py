"""``wire-symmetry``: every op's encoder must mirror its decoder.

The paper's multi-client breakdown attributes the dominant cost to
marshal/transfer -- which is also where silent corruption lives: an
encoder that packs a field its decoder never reads does not crash, it
shifts every subsequent field and produces plausible garbage.  This
rule makes the XDR pack/unpack chains a checked contract.

Four sub-checks, all driven by one abstract *typestate walker* that
tracks, per ``XdrEncoder``/``XdrDecoder`` variable, the sequence of
wire tokens it has produced or consumed:

- **W1 class mirror** -- every class exposing both ``encode`` and
  ``decode`` (the ``protocol/messages.py`` dataclasses) must pack and
  unpack the same token sequence.
- **W2 paired helpers** -- ``marshal.py``'s ``_pack_scalar`` /
  ``_unpack_scalar`` dtype branches must mirror per dtype literal, and
  ``marshal_inputs``/``unmarshal_inputs`` (and the outputs pair) must
  use the same token *alphabet* (set comparison, because the decoder
  interleaves validation reads).
- **W3 op pairing** -- encoder sequences are bound to a
  ``MessageType`` at their *consumption site* (any call whose
  arguments contain both ``enc.getvalue()``/``getbuffer()`` and a
  ``MessageType.X`` literal -- the first one names the op being sent),
  or through :data:`PAYLOAD_BUILDERS` for a function that builds a
  payload for senders elsewhere (the client's ``_CallPayload``);
  decoder sequences are bound through the ``register_handler`` map
  (handler's payload parameter), through ``if msg_type ==
  MessageType.X`` equality guards, or through the *last*
  ``MessageType`` literal of the call the decoded buffer was assigned
  from (the ``expect=`` reply convention).  For each op, all bound
  encoder sequences and all bound decoder sequences must agree.
- **W4 PROTOCOL.md cross-check** -- ops whose table row is
  machine-parseable (``uint protocol version, string server name``)
  must match the row's token list; rows declared ``empty`` must have
  no packed payload.  Rows with prose layouts (``optional``, ``then
  `count` ...``) are skipped, not guessed.

The walker is deliberately conservative: branches that disagree poison
the sequence (unless one side terminates -- the ``enc = XdrEncoder()``
reset inside an ``except`` handler stays precise), loops poison
accumulators alive across iterations, packing inside an open
``begin_opaque``/``end_opaque`` region collapses to one ``opaque``
token (how ``marshal_outputs(into=enc)`` nests a payload), and
``obj.encode(enc)`` / ``Cls.decode(dec)`` splice the class's W1
sequence when the object's type is known to the call graph.  A
poisoned sequence is never compared -- this rule reports only
mismatches it can prove.

A fifth, purely structural check rides along: ``struct.Struct``
constants (the frame ``HEADER``) must be packed with exactly as many
arguments, and unpacked into exactly as many targets, as the format
string has fields -- the framing layers' own little symmetry.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.analysis.callgraph import CallGraph, module_name
from repro.analysis.core import (Finding, Project, ProjectChecker,
                                 SourceModule)

__all__ = ["WireSymmetryChecker"]

#: unpack method suffix -> canonical wire token.
_CANON = {"opaque_view": "opaque"}

#: First words PROTOCOL.md rows may use that map straight to tokens.
_ROW_VOCAB = frozenset({
    "uint", "int", "string", "double", "float", "bool", "uhyper",
    "hyper", "opaque", "enum", "array",
})

_ROW_RE = re.compile(
    r"^\|\s*\d+\s*\|\s*`(?P<name>\w+)`\s*\|[^|]*\|(?P<payload>[^|]*)\|")

Tokens = tuple[str, ...]

#: Functions that encode an op's whole payload for senders elsewhere (no
#: ``MessageType`` at the consumption site): qualname -> the ops every
#: encoder the function leaves behind is bound to (W3).
PAYLOAD_BUILDERS: dict[str, tuple[str, ...]] = {
    "repro.client.core._CallPayload.__init__": ("CALL", "CALL_DETACHED"),
}


def _canon(token: str) -> str:
    return _CANON.get(token, token)


def _fmt(tokens: Sequence[str]) -> str:
    return ", ".join(tokens) if tokens else "<empty>"


def _mt_name(node: ast.expr) -> Optional[str]:
    """``MessageType.X`` -> ``"X"``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "MessageType"):
        return node.attr
    return None


def _call_mts(call: ast.Call) -> list[str]:
    """Every ``MessageType.X`` literal among a call's arguments,
    positional first, in source order."""
    found = []
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for node in ast.walk(arg):
            name = _mt_name(node)
            if name is not None:
                found.append(name)
    return found


def _ctor_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls_in_order(node: ast.AST) -> list[ast.Call]:
    calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


class _Acc:
    """Typestate for one encoder/decoder variable."""

    __slots__ = ("kind", "tokens", "poisoned", "opaque_depth",
                 "bound_mt", "from_param")

    def __init__(self, kind: str, bound_mt: Optional[str] = None,
                 from_param: bool = False):
        self.kind = kind  # "enc" | "dec"
        self.tokens: list[str] = []
        self.poisoned = False
        self.opaque_depth = 0
        self.bound_mt = bound_mt
        self.from_param = from_param

    def copy(self) -> "_Acc":
        dup = _Acc(self.kind, self.bound_mt, self.from_param)
        dup.tokens = list(self.tokens)
        dup.poisoned = self.poisoned
        dup.opaque_depth = self.opaque_depth
        return dup

    def same(self, other: "_Acc") -> bool:
        return (self.kind == other.kind
                and self.tokens == other.tokens
                and self.poisoned == other.poisoned
                and self.opaque_depth == other.opaque_depth
                and self.bound_mt == other.bound_mt
                and self.from_param == other.from_param)

    def push(self, token: str) -> None:
        if self.opaque_depth == 0 and not self.poisoned:
            self.tokens.append(token)


class _Emission:
    """One bound sequence observation: op X packed/read these tokens."""

    __slots__ = ("kind", "mt", "tokens", "node", "module")

    def __init__(self, kind: str, mt: str, tokens: Optional[Tokens],
                 node: ast.AST, module: SourceModule):
        self.kind = kind
        self.mt = mt
        self.tokens = tokens  # None when poisoned
        self.node = node
        self.module = module


_Env = dict[str, _Acc]


class _Walker:
    """The typestate walker over one function body."""

    def __init__(self, checker: "WireSymmetryChecker", graph: CallGraph,
                 module: SourceModule, qualname: str,
                 handler_mts: Sequence[str],
                 emissions: Optional[list[_Emission]]):
        self.checker = checker
        self.graph = graph
        self.module = module
        self.qualname = qualname
        self.handler_mts = list(handler_mts)
        self.emissions = emissions if emissions is not None else []
        self.bindings: dict[str, str] = {}
        self.params: set[str] = set()
        self.guards: list[str] = []

    # -- emission helpers ----------------------------------------------------

    def _emit(self, kind: str, mt: str, acc: _Acc,
              node: ast.AST) -> None:
        tokens = None if (acc.poisoned or acc.opaque_depth) \
            else tuple(acc.tokens)
        self.emissions.append(_Emission(kind, mt, tokens, node,
                                        self.module))

    def _emit_decoders(self, env: _Env, node: ast.AST) -> None:
        """At a path terminator, record every bound decoder's sequence."""
        for acc in env.values():
            if acc.kind != "dec" or not acc.tokens or acc.poisoned:
                continue
            if acc.bound_mt is not None:
                self._emit("dec", acc.bound_mt, acc, node)
            elif acc.from_param:
                for mt in self.handler_mts:
                    self._emit("dec", mt, acc, node)

    # -- the walk ------------------------------------------------------------

    def run(self, function: Union[ast.FunctionDef, ast.AsyncFunctionDef],
            seed: Optional[tuple[str, str]] = None) -> _Env:
        """Walk ``function``; ``seed`` pre-binds ``(param, kind)`` for
        class encode/decode methods."""
        args = function.args
        self.params = {a.arg for a in args.posonlyargs + args.args
                       + args.kwonlyargs}
        env: _Env = {}
        if seed is not None:
            name, kind = seed
            env[name] = _Acc(kind)
        terminated = self.walk_body(function.body, env)
        if not terminated:
            self._emit_decoders(env, function)
        return env

    def walk_body(self, stmts: Sequence[ast.stmt], env: _Env) -> bool:
        depth = len(self.guards)
        try:
            for stmt in stmts:
                if self.walk_stmt(stmt, env):
                    return True
            return False
        finally:
            # Residual guards pushed by early-exit `!=` checks end with
            # the block they narrowed.
            del self.guards[depth:]

    def walk_stmt(self, stmt: ast.stmt, env: _Env) -> bool:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return False
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._events(stmt.value, env)
            self._emit_decoders(env, stmt)
            return True
        if isinstance(stmt, ast.Raise):
            # An abort, not a consumed decode: partially-read
            # sequences on error paths prove nothing about the wire.
            self._events(stmt, env)
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            self._emit_decoders(env, stmt)
            return True
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, env)
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, env)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._walk_loop(stmt, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._events(item.context_expr, env)
            return self.walk_body(stmt.body, env)
        if isinstance(stmt, ast.Assign):
            self._events(stmt.value, env)
            self._assign(stmt.targets, stmt.value, env)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._events(stmt.value, env)
                self._assign([stmt.target], stmt.value, env)
            return False
        # Everything else (Expr, Assert, AugAssign, Delete, ...) just
        # contributes its calls in source order.
        self._events(stmt, env)
        return False

    def _walk_if(self, stmt: ast.If, env: _Env) -> bool:
        self._events(stmt.test, env)
        guard = self._guard_mt(stmt.test)
        body_env = _fork(env)
        if guard is not None:
            self.guards.append(guard)
        body_term = self.walk_body(stmt.body, body_env)
        if guard is not None:
            self.guards.pop()
        else_env = _fork(env)
        else_term = self.walk_body(stmt.orelse, else_env)
        terminated = _merge_into(env, [(body_env, body_term),
                                       (else_env, else_term)])
        # ``if x != MessageType.RESULT: raise`` narrows the remainder
        # of the enclosing block to RESULT (the expect-reply idiom).
        if body_term and not stmt.orelse and not terminated:
            residual = self._residual_mt(stmt.test)
            if residual is not None:
                self.guards.append(residual)
        return terminated

    def _residual_mt(self, test: ast.expr) -> Optional[str]:
        """``x != MessageType.X`` -> ``"X"`` (what x must be when the
        guard's terminating body did not run)."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.NotEq)):
            for side in (test.left, test.comparators[0]):
                name = _mt_name(side)
                if name is not None:
                    return name
        return None

    def _walk_try(self, stmt: ast.Try, env: _Env) -> bool:
        entry = _fork(env)
        body_env = _fork(env)
        body_term = self.walk_body(stmt.body, body_env)
        if not body_term:
            body_term = self.walk_body(stmt.orelse, body_env)
        branches = [(body_env, body_term)]
        for handler in stmt.handlers:
            henv = _fork(entry)
            for acc in henv.values():
                acc.poisoned = True  # unknown progress at raise point
            branches.append((henv, self.walk_body(handler.body, henv)))
        terminated = _merge_into(env, branches)
        if stmt.finalbody:
            fin_term = self.walk_body(stmt.finalbody, env)
            terminated = terminated or fin_term
        return terminated

    def _walk_loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor],
                   env: _Env) -> bool:
        if isinstance(stmt, ast.While):
            self._events(stmt.test, env)
        else:
            self._events(stmt.iter, env)
        for acc in env.values():
            acc.poisoned = True  # progress across iterations is unknown
        body_env = _fork(env)
        self.walk_body(stmt.body, body_env)
        # Accumulators surviving the loop body are iteration-dependent.
        for name, acc in body_env.items():
            acc.poisoned = True
            env[name] = acc
        self.walk_body(stmt.orelse, env)
        return False

    def _guard_mt(self, test: ast.expr) -> Optional[str]:
        """``msg_type == MessageType.X`` -> ``"X"``."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)):
            for side in (test.left, test.comparators[0]):
                name = _mt_name(side)
                if name is not None:
                    return name
        return None

    # -- per-statement events -------------------------------------------------

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr,
                env: _Env) -> None:
        # ``await f()`` / ``yield Req()`` / ``yield from op()``: the
        # operand is what names the reply op.
        rhs = value.value if isinstance(
            value, (ast.Await, ast.Yield, ast.YieldFrom)) else value
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(rhs, ast.Call):
            ctor = _ctor_name(rhs)
            if ctor == "XdrEncoder":
                for name in names:
                    env[name] = _Acc("enc")
                return
            if ctor == "XdrDecoder":
                acc = _Acc("dec")
                source = rhs.args[0] if rhs.args else None
                if self.guards:
                    acc.bound_mt = self.guards[-1]
                elif isinstance(source, ast.Name):
                    if source.id in self.bindings:
                        acc.bound_mt = self.bindings[source.id]
                    elif source.id in self.params:
                        acc.from_param = True
                for name in names:
                    env[name] = acc
                return
            # ``reply = channel.request(MessageType.X, ..., expect=
            # MessageType.Y)``: the *last* literal names the reply op.
            mts = _call_mts(rhs)
            if mts:
                bound_names = list(names)
                for target in targets:
                    if isinstance(target, (ast.Tuple, ast.List)):
                        bound_names.extend(
                            e.id for e in target.elts
                            if isinstance(e, ast.Name))
                for name in bound_names:
                    self.bindings[name] = mts[-1]
        elif isinstance(rhs, ast.Name) and rhs.id in self.bindings:
            for name in names:
                self.bindings[name] = self.bindings[rhs.id]

    def _events(self, node: ast.AST, env: _Env) -> None:
        comp_calls: set[int] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                ast.GeneratorExp)):
                comp_calls.update(id(c) for c in ast.walk(sub)
                                  if isinstance(c, ast.Call))
        for call in _calls_in_order(node):
            self._event(call, env, in_comprehension=id(call) in comp_calls)

    def _inline_decoder(self, node: ast.expr) -> Optional[_Acc]:
        """``XdrDecoder(x)`` used inline (never named): a fresh bound
        accumulator, or None."""
        if not (isinstance(node, ast.Call)
                and _ctor_name(node) == "XdrDecoder"):
            return None
        acc = _Acc("dec")
        source = node.args[0] if node.args else None
        if self.guards:
            acc.bound_mt = self.guards[-1]
        elif isinstance(source, ast.Name):
            if source.id in self.bindings:
                acc.bound_mt = self.bindings[source.id]
            elif source.id in self.params:
                acc.from_param = True
        return acc

    def _event(self, call: ast.Call, env: _Env,
               in_comprehension: bool = False) -> None:
        func = call.func
        if in_comprehension:
            # Repeat counts are data-dependent: any accumulator the
            # comprehension touches becomes unknowable.
            for node in ast.walk(call):
                if isinstance(node, ast.Name) and node.id in env:
                    env[node.id].poisoned = True
            return
        if isinstance(func, ast.Attribute):
            receiver = func.value
            acc = env.get(receiver.id) \
                if isinstance(receiver, ast.Name) else None
            if acc is not None:
                self._acc_event(call, func.attr, acc, env)
                return
            # ``XdrDecoder(payload).unpack_string()``: one-shot chain.
            inline = self._inline_decoder(receiver)
            if inline is not None:
                if func.attr.startswith("unpack_"):
                    inline.push(_canon(func.attr[7:]))
                self._emit_decoders({"<inline>": inline}, call)
                return
            if func.attr in ("encode", "decode"):
                self._splice(call, func, env)
                return
        # A call that receives an accumulator variable as a *bare*
        # argument may write anything into it: poison -- unless an
        # opaque region is open, in which case the content is one blob
        # by construction (``marshal_outputs(..., into=enc)``).
        consumed = self._consumed_enc(call, env)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Name) and arg.id in env:
                acc = env[arg.id]
                if acc.opaque_depth == 0 and arg.id != consumed:
                    acc.poisoned = True
        if consumed is not None:
            mts = _call_mts(call)
            if mts:
                self._emit("enc", mts[0], env[consumed], call)

    def _acc_event(self, call: ast.Call, attr: str, acc: _Acc,
                   env: _Env) -> None:
        if acc.kind == "enc":
            if attr.startswith("pack_"):
                acc.push(_canon(attr[5:]))
            elif attr == "begin_opaque":
                acc.opaque_depth += 1
            elif attr == "end_opaque":
                if acc.opaque_depth > 0:
                    acc.opaque_depth -= 1
                    if acc.opaque_depth == 0:
                        acc.tokens.append("opaque")
                else:
                    acc.poisoned = True
            elif attr in ("getvalue", "getbuffer"):
                pass  # consumption is handled at the enclosing call
            else:
                acc.poisoned = True
        else:
            if attr.startswith("unpack_"):
                acc.push(_canon(attr[7:]))
            elif attr in ("done", "remaining"):
                pass
            else:
                acc.poisoned = True

    def _splice(self, call: ast.Call, func: ast.Attribute,
                env: _Env) -> None:
        """``obj.encode(enc)`` / ``Cls.decode(dec)``: append the class's
        own sequence to the accumulator passed in."""
        acc: Optional[_Acc] = None
        inline = False
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id in env:
                acc = env[arg.id]
                break
        if acc is None and func.attr == "decode":
            # ``ErrorReply.decode(XdrDecoder(reply))``: one-shot splice.
            for arg in call.args:
                acc = self._inline_decoder(arg)
                if acc is not None:
                    inline = True
                    break
        if acc is None:
            return
        cls = self._receiver_class(func.value)
        seq = None
        if cls is not None:
            seq = self.checker.class_sequence(cls, acc.kind)
        if seq is None:
            if acc.opaque_depth == 0:
                acc.poisoned = True
            return
        if acc.opaque_depth == 0 and not acc.poisoned:
            acc.tokens.extend(seq)
        if inline:
            self._emit_decoders({"<inline>": acc}, call)

    def _receiver_class(self, receiver: ast.expr) -> Optional[str]:
        inferred = self.graph.infer_expr_type(self.qualname, receiver)
        if inferred is not None:
            return inferred
        # ``ClassName.decode(...)``: the receiver *is* the class.
        info = self.graph.functions.get(self.qualname)
        if info is None:
            return None
        scope = self.graph._scopes[info.module_prefix]
        resolved = self.graph._resolve_symbol(
            _dotted_name(receiver), scope)
        return resolved if resolved in self.graph.classes else None

    def _consumed_enc(self, call: ast.Call, env: _Env) -> Optional[str]:
        """The encoder variable whose ``getvalue()``/``getbuffer()``
        appears among this call's arguments, if any."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(arg):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("getvalue", "getbuffer")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in env
                        and env[node.func.value.id].kind == "enc"):
                    return node.func.value.id
        return None


def _dotted_name(node: ast.expr) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _fork(env: _Env) -> _Env:
    return {name: acc.copy() for name, acc in env.items()}


def _merge_into(env: _Env, branches: list[tuple[_Env, bool]]) -> bool:
    """Merge branch environments back into ``env``; returns True when
    every branch terminated (code after the statement is unreachable)."""
    alive = [benv for benv, term in branches if not term]
    if not alive:
        env.clear()
        return True
    merged: _Env = {}
    names = set()
    for benv in alive:
        names.update(benv)
    for name in names:
        accs = [benv.get(name) for benv in alive]
        if any(a is None for a in accs):
            # Bound on one live path only: unknown afterwards.
            present = next(a for a in accs if a is not None)
            acc = present.copy()
            acc.poisoned = True
            merged[name] = acc
            continue
        first = accs[0]
        assert first is not None
        if all(a is not None and a.same(first) for a in accs[1:]):
            merged[name] = first
        else:
            acc = first.copy()
            acc.poisoned = True
            merged[name] = acc
    env.clear()
    env.update(merged)
    return False


class WireSymmetryChecker(ProjectChecker):
    """Pair every encoder pack-sequence with its decoder, per op."""

    rule = "wire-symmetry"
    description = ("an op's XDR pack sequence must mirror its unpack "
                   "sequence, and both must match PROTOCOL.md's op "
                   "table where the row is machine-readable")

    def __init__(self, protocol_md: Optional[Path] = None):
        self.protocol_md = protocol_md
        self._graph: Optional[CallGraph] = None
        self._class_seq_cache: dict[tuple[str, str],
                                    Optional[Tokens]] = {}
        self._in_progress: set[tuple[str, str]] = set()

    # -- class sequences (W1, and splicing for W2/W3) -------------------------

    def class_sequence(self, cls_qualname: str,
                       kind: str) -> Optional[Tokens]:
        """The token sequence of a class's ``encode``/``decode``;
        None when unknown or data-dependent."""
        assert self._graph is not None
        key = (cls_qualname, kind)
        if key in self._class_seq_cache:
            return self._class_seq_cache[key]
        if key in self._in_progress:
            return None  # recursive layout: give up, stay conservative
        self._in_progress.add(key)
        try:
            seq = self._compute_class_sequence(cls_qualname, kind)
        finally:
            self._in_progress.discard(key)
        self._class_seq_cache[key] = seq
        return seq

    def _compute_class_sequence(self, cls_qualname: str,
                                kind: str) -> Optional[Tokens]:
        graph = self._graph
        assert graph is not None
        method_name = "encode" if kind == "enc" else "decode"
        method = graph.lookup_method(cls_qualname, method_name)
        if method is None:
            return None
        info = graph.functions[method]
        args = info.node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        pivot = [p for p in params if p not in ("self", "cls")]
        if not pivot:
            return None
        walker = _Walker(self, graph, info.module, method,
                         handler_mts=(), emissions=[])
        env = walker.run(info.node, seed=(pivot[-1], kind))
        acc = env.get(pivot[-1])
        if acc is None or acc.poisoned or acc.opaque_depth:
            return None
        return tuple(acc.tokens)

    # -- the project pass -----------------------------------------------------

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Run the four symmetry sub-checks (W1 class mirror, W2
        marshal pairs, W3 op pairing, W4 PROTOCOL.md rows) plus the
        struct-arity check over the whole project."""
        graph = project.callgraph
        self._graph = graph
        self._class_seq_cache = {}

        yield from self._check_classes(graph)
        yield from self._check_marshal_pairs(graph)
        yield from self._check_struct_arity(project)

        handler_map = self._handler_map(graph)
        emissions: list[_Emission] = []
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if info.owner is not None and info.node.name in ("encode",
                                                             "decode"):
                continue  # W1 territory; don't re-bind class methods
            walker = _Walker(self, graph, info.module, qualname,
                             handler_mts=handler_map.get(qualname, ()),
                             emissions=emissions)
            env = walker.run(info.node)
            for mt in PAYLOAD_BUILDERS.get(qualname, ()):
                for acc in env.values():
                    if acc.kind == "enc":
                        walker._emit("enc", mt, acc, info.node)
        yield from self._check_ops(emissions)

    # -- W1 -------------------------------------------------------------------

    def _check_classes(self, graph: CallGraph) -> Iterator[Finding]:
        for cls_qualname in sorted(graph.classes):
            info = graph.classes[cls_qualname]
            if not ({"encode", "decode"} <= set(info.methods)):
                continue
            enc = self.class_sequence(cls_qualname, "enc")
            dec = self.class_sequence(cls_qualname, "dec")
            if enc is None or dec is None or enc == dec:
                continue
            anchor = graph.functions[info.methods["encode"]].node
            yield self.finding(
                info.module, anchor,
                f"class {info.node.name}: encode() packs "
                f"[{_fmt(enc)}] but decode() reads [{_fmt(dec)}]; "
                f"the wire layout must mirror")

    # -- W2 -------------------------------------------------------------------

    def _check_marshal_pairs(self, graph: CallGraph) -> Iterator[Finding]:
        pairs = [("_pack_scalar", "_unpack_scalar", "branch"),
                 ("marshal_inputs", "unmarshal_inputs", "alphabet"),
                 ("marshal_outputs", "unmarshal_outputs", "alphabet")]
        for enc_name, dec_name, mode in pairs:
            enc_fn = self._find_function(graph, enc_name)
            dec_fn = self._find_function(graph, dec_name)
            if enc_fn is None or dec_fn is None:
                continue
            if mode == "branch":
                yield from self._check_scalar_branches(graph, enc_fn,
                                                       dec_fn)
            else:
                yield from self._check_alphabet(graph, enc_fn, dec_fn)

    @staticmethod
    def _find_function(graph: CallGraph, name: str) -> Optional[str]:
        hits = [q for q, f in graph.functions.items()
                if f.owner is None and f.parent is None
                and f.node.name == name]
        return hits[0] if len(hits) == 1 else None

    def _branch_tokens(self, function: ast.AST,
                       prefix: str) -> dict[str, list[str]]:
        """dtype literal -> tokens packed/unpacked in that branch."""
        table: dict[str, list[str]] = {}
        for node in ast.walk(function):
            if not isinstance(node, ast.If):
                continue
            keys = self._dtype_keys(node.test)
            if not keys:
                continue
            tokens: list[str] = []
            for stmt in node.body:
                for call in _calls_in_order(stmt):
                    if (isinstance(call.func, ast.Attribute)
                            and call.func.attr.startswith(prefix)):
                        tokens.append(
                            _canon(call.func.attr[len(prefix):]))
            for key in keys:
                table.setdefault(key, tokens)
        return table

    @staticmethod
    def _dtype_keys(test: ast.expr) -> list[str]:
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
            return []
        op = test.ops[0]
        comp = test.comparators[0]
        if isinstance(op, ast.Eq):
            if isinstance(comp, ast.Constant) and isinstance(comp.value,
                                                             str):
                return [comp.value]
        if isinstance(op, ast.In) and isinstance(comp, (ast.Tuple,
                                                        ast.Set)):
            return [e.value for e in comp.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)]
        return []

    def _check_scalar_branches(self, graph: CallGraph, enc_fn: str,
                               dec_fn: str) -> Iterator[Finding]:
        enc_info = graph.functions[enc_fn]
        dec_info = graph.functions[dec_fn]
        packs = self._branch_tokens(enc_info.node, "pack_")
        unpacks = self._branch_tokens(dec_info.node, "unpack_")
        for dtype in sorted(set(packs) | set(unpacks)):
            enc = packs.get(dtype)
            dec = unpacks.get(dtype)
            if enc is None:
                yield self.finding(
                    dec_info.module, dec_info.node,
                    f"{dec_info.node.name}() handles dtype '{dtype}' "
                    f"but {enc_info.node.name}() never packs it")
            elif dec is None:
                yield self.finding(
                    enc_info.module, enc_info.node,
                    f"{enc_info.node.name}() handles dtype '{dtype}' "
                    f"but {dec_info.node.name}() never unpacks it")
            elif enc != dec:
                yield self.finding(
                    enc_info.module, enc_info.node,
                    f"dtype '{dtype}': {enc_info.node.name}() packs "
                    f"[{_fmt(enc)}] but {dec_info.node.name}() reads "
                    f"[{_fmt(dec)}]")

    def _check_alphabet(self, graph: CallGraph, enc_fn: str,
                        dec_fn: str) -> Iterator[Finding]:
        enc_info = graph.functions[enc_fn]
        dec_info = graph.functions[dec_fn]
        packs = self._token_alphabet(enc_info.node, "pack_")
        unpacks = self._token_alphabet(dec_info.node, "unpack_")
        if packs == unpacks:
            return
        only_enc = sorted(packs - unpacks)
        only_dec = sorted(unpacks - packs)
        detail = []
        if only_enc:
            detail.append(f"packed but never read: [{_fmt(only_enc)}]")
        if only_dec:
            detail.append(f"read but never packed: [{_fmt(only_dec)}]")
        yield self.finding(
            enc_info.module, enc_info.node,
            f"{enc_info.node.name}()/{dec_info.node.name}() wire "
            f"alphabets differ -- {'; '.join(detail)}")

    @staticmethod
    def _token_alphabet(function: ast.AST, prefix: str) -> set[str]:
        tokens = set()
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr.startswith(prefix)):
                tokens.add(_canon(node.func.attr[len(prefix):]))
        return tokens

    # -- struct arity ---------------------------------------------------------

    def _check_struct_arity(self, project: Project) -> Iterator[Finding]:
        counts: dict[str, int] = {}
        for module in project.modules:
            for stmt in module.tree.body:
                if not (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, ast.Call)):
                    continue
                func_name = _dotted_name(stmt.value.func) or ""
                if func_name.split(".")[-1] != "Struct":
                    continue
                if not (stmt.value.args
                        and isinstance(stmt.value.args[0], ast.Constant)
                        and isinstance(stmt.value.args[0].value, str)):
                    continue
                counts[stmt.targets[0].id] = _struct_fields(
                    stmt.value.args[0].value)
        if not counts:
            return
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id in counts:
                    name = node.func.value.id
                    if node.func.attr == "pack" and \
                            len(node.args) != counts[name] and \
                            not any(isinstance(a, ast.Starred)
                                    for a in node.args):
                        yield self.finding(
                            module, node,
                            f"{name}.pack() called with "
                            f"{len(node.args)} values but the format "
                            f"has {counts[name]} fields")
                elif isinstance(node, ast.Assign) and \
                        isinstance(node.value, ast.Call) and \
                        isinstance(node.value.func, ast.Attribute) and \
                        node.value.func.attr == "unpack" and \
                        isinstance(node.value.func.value, ast.Name) and \
                        node.value.func.value.id in counts and \
                        len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Tuple):
                    name = node.value.func.value.id
                    width = len(node.targets[0].elts)
                    if width != counts[name]:
                        yield self.finding(
                            module, node,
                            f"{name}.unpack() result destructured "
                            f"into {width} names but the format has "
                            f"{counts[name]} fields")

    # -- W3 + W4 --------------------------------------------------------------

    def _handler_map(self, graph: CallGraph) -> dict[str, list[str]]:
        """handler qualname -> MessageTypes registered for it."""
        table: dict[str, list[str]] = {}
        for registration in graph.handler_registrations():
            mt = _mt_name(registration.node.args[0])
            if mt is None:
                continue
            for handler in registration.handlers:
                table.setdefault(handler, [])
                if mt not in table[handler]:
                    table[handler].append(mt)
        return table

    def _check_ops(self, emissions: list[_Emission]) -> Iterator[Finding]:
        ops: dict[str, dict[str, dict[Tokens, _Emission]]] = {}
        for emission in emissions:
            if emission.tokens is None:
                continue  # poisoned: proves nothing
            side = ops.setdefault(emission.mt, {"enc": {}, "dec": {}})
            side[emission.kind].setdefault(emission.tokens, emission)

        table = self._protocol_table()
        for mt in sorted(set(ops) | set(table)):
            sides = ops.get(mt, {"enc": {}, "dec": {}})
            enc_seqs = sorted(sides["enc"])
            dec_seqs = sorted(sides["dec"])
            for kind, seqs in (("encoder", enc_seqs),
                               ("decoder", dec_seqs)):
                if len(seqs) > 1:
                    site = sides["enc" if kind == "encoder"
                                 else "dec"][seqs[1]]
                    yield self.finding(
                        site.module, site.node,
                        f"op {mt} has conflicting {kind} layouts: "
                        f"[{_fmt(seqs[0])}] vs [{_fmt(seqs[1])}]")
            if len(enc_seqs) == 1 and len(dec_seqs) == 1 \
                    and enc_seqs[0] != dec_seqs[0]:
                site = sides["enc"][enc_seqs[0]]
                yield self.finding(
                    site.module, site.node,
                    f"op {mt}: encoder packs [{_fmt(enc_seqs[0])}] "
                    f"but decoder reads [{_fmt(dec_seqs[0])}]")
            expected = table.get(mt)
            if expected is None:
                continue
            for kind, seqs in (("encoder packs", enc_seqs),
                               ("decoder reads", dec_seqs)):
                for seq in seqs:
                    if seq != expected:
                        side_key = "enc" if kind.startswith("enc") \
                            else "dec"
                        site = sides[side_key][seq]
                        yield self.finding(
                            site.module, site.node,
                            f"op {mt}: PROTOCOL.md declares payload "
                            f"[{_fmt(expected)}] but the {kind} "
                            f"[{_fmt(seq)}]")

    def _protocol_table(self) -> dict[str, Tokens]:
        """op name -> expected token sequence, for parseable rows only."""
        if self.protocol_md is None or not self.protocol_md.is_file():
            return {}
        table: dict[str, Tokens] = {}
        for line in self.protocol_md.read_text(
                encoding="utf-8").splitlines():
            match = _ROW_RE.match(line.strip())
            if match is None:
                continue
            payload = match.group("payload").split(";")[0].strip()
            if payload.startswith("empty"):
                table[match.group("name")] = ()
                continue
            tokens = _parse_row_tokens(payload)
            if tokens is not None:
                table[match.group("name")] = tokens
        return table


def _parse_row_tokens(payload: str) -> Optional[Tokens]:
    """``uint protocol version, string server name`` -> (uint, string);
    None when the row is prose (optional fields, counted repeats)."""
    tokens: list[str] = []
    for part in payload.split(","):
        words = part.strip().split()
        if not words:
            return None
        first = words[0].lower()
        if first == "array":
            tokens.append("array")
        elif first in _ROW_VOCAB:
            tokens.append(first)
        else:
            return None
    return tuple(tokens)


def _struct_fields(fmt: str) -> int:
    """Field count of a ``struct`` format string."""
    if fmt and fmt[0] in "@=<>!":
        fmt = fmt[1:]
    count = 0
    for repeat, code in re.findall(r"(\d*)([a-zA-Z?])", fmt):
        if code in ("s", "p"):
            count += 1
        elif code == "x":
            continue
        else:
            count += int(repeat) if repeat else 1
    return count
