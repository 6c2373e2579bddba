"""Rule ``struct-arity``: a ``struct.Struct`` constant is packed with,
and unpacked into, as many values as its format has fields.

What is left of the retired ``wire-symmetry`` rule.  Control messages
no longer need it (each is declared once and both codecs are derived,
:mod:`repro.xdr.record`), but the frame ``HEADER`` and the ring control
words are still moved by hand-written ``NAME.pack(a, b, c)`` /
``a, b, c = NAME.unpack(...)`` pairs, where one value too few shifts
every field after it.  Per file: a module-level
``NAME = struct.Struct("<literal>")`` against that module's own
``NAME.pack(...)`` calls (skipped when a ``*splat`` hides the count) and
tuple-destructured ``NAME.unpack(...)`` / ``unpack_from(...)`` results.
"""

from __future__ import annotations

import ast
import struct
from typing import Iterator

from repro.analysis.core import Checker, Finding, SourceModule

__all__ = ["StructArityChecker"]


class StructArityChecker(Checker):
    """Flag ``Struct`` constants packed or unpacked at the wrong width."""

    rule = "struct-arity"
    description = ("struct.Struct constants are packed with, and unpacked "
                   "into, exactly as many values as the format has fields")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        """Check ``module``'s own uses of its own ``Struct`` constants."""
        widths: dict[str, int] = {}
        for stmt in module.tree.body:
            match stmt:
                case ast.Assign(
                        targets=[ast.Name(id=name)],
                        value=ast.Call(func=func, args=[
                            ast.Constant(value=str(fmt)), *_])) \
                        if ast.unparse(func) in ("struct.Struct", "Struct"):
                    try:    # count the fields the way ``struct`` does
                        layout = struct.Struct(fmt)
                    except struct.error:
                        continue
                    widths[name] = len(layout.unpack(bytes(layout.size)))
        for node in ast.walk(module.tree):
            match node:
                case ast.Call(func=ast.Attribute(value=ast.Name(id=name),
                                                 attr="pack"), args=args) \
                        if name in widths and len(args) != widths[name] \
                        and not any(isinstance(a, ast.Starred) for a in args):
                    yield self.finding(
                        module, node,
                        f"{name}.pack() called with {len(args)} values but "
                        f"the format has {widths[name]} fields")
                case ast.Assign(
                        targets=[ast.Tuple(elts=names)],
                        value=ast.Call(func=ast.Attribute(
                            value=ast.Name(id=name),
                            attr="unpack" | "unpack_from" as method))) \
                        if name in widths and len(names) != widths[name]:
                    yield self.finding(
                        module, node,
                        f"{name}.{method}() result destructured into "
                        f"{len(names)} names but the format has "
                        f"{widths[name]} fields")
