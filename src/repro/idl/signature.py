"""Compiled IDL signatures: the "interpretable code" shipped to clients.

Ninf's two-stage RPC (paper §2.3) works because the client never needs
the IDL ahead of time: on the first stage the server returns the
*compiled* interface description, and the client-side stub interprets it
to marshal the arguments.  :class:`Signature` is that compiled form --
wire-serializable, and able to:

- validate and bind a positional argument list (:meth:`bind`),
- infer array shapes from the scalar inputs,
- compute the bytes shipped in each direction (the paper's
  ``8n^2 + 20n`` for Linpack falls out of this),
- predict flops via the ``CalcOrder`` clause (used for SJF scheduling
  and metaserver placement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

import numpy as np

from repro.idl.errors import IdlError
from repro.idl.expr import Expr, parse_expr
from repro.idl.parser import Definition, Param
from repro.xdr.record import Array, Struct, string

if TYPE_CHECKING:
    from repro.protocol.marshal import _Plan

__all__ = ["ARG_SPEC", "ArgSpec", "BoundCall", "SIGNATURE", "Signature"]

DTYPE_SIZES = {
    "int": 4, "long": 8, "float": 4, "double": 8,
    "char": 1, "string": 0, "scomplex": 8, "dcomplex": 16,
}

NUMPY_DTYPES = {
    "int": np.dtype(np.int32),
    "long": np.dtype(np.int64),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
    "scomplex": np.dtype(np.complex64),
    "dcomplex": np.dtype(np.complex128),
}


@dataclass(frozen=True)
class ArgSpec:
    """Wire-portable form of one parameter."""

    mode: str
    dtype: str
    name: str
    dims: tuple[str, ...] = ()
    #: ``dims`` parsed once, at construction.
    exprs: tuple[Expr, ...] = field(init=False, repr=False, compare=False)
    #: What ``mode`` and ``dims`` fix, worked out at construction too.
    is_array: bool = field(init=False, repr=False, compare=False)
    is_input: bool = field(init=False, repr=False, compare=False)
    is_output: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fixed = object.__setattr__
        fixed(self, "exprs", tuple(parse_expr(d) for d in self.dims))
        fixed(self, "is_array", bool(self.dims))
        fixed(self, "is_input", self.mode in ("mode_in", "mode_inout"))
        fixed(self, "is_output", self.mode in ("mode_out", "mode_inout"))

    def shape(self, env: Mapping[str, float]) -> tuple[int, ...]:
        """Evaluate the dimension expressions against scalar inputs."""
        shape = []
        for dim_source, expr in zip(self.dims, self.exprs):
            value = expr.evaluate(env)
            rounded = int(round(value)) if math.isfinite(value) else -1
            if abs(value - rounded) > 1e-9 or rounded < 0:
                raise IdlError(
                    f"dimension {dim_source!r} of {self.name} evaluated to "
                    f"{value}, not a non-negative integer"
                )
            shape.append(rounded)
        return tuple(shape)

    def nbytes(self, env: Mapping[str, float]) -> int:
        """Payload size of this argument given scalar inputs."""
        element = DTYPE_SIZES[self.dtype]
        if not self.is_array:
            return element
        return element * math.prod(self.shape(env))


ARG_SPEC = Struct(string("mode"), string("dtype"), string("name"),
                  Array(string, 32)("dims"), make=ArgSpec)


@dataclass
class BoundCall:
    """A validated call: scalar environment plus concrete input arrays."""

    signature: "Signature"
    env: dict[str, float]
    inputs: dict[str, Any]
    output_shapes: dict[str, tuple[int, ...]] = field(default_factory=dict)

    @property
    def input_bytes(self) -> int:
        return sum(self.signature.args[i].nbytes(self.env)
                   for i in self.signature.input_indices())

    @property
    def output_bytes(self) -> int:
        return sum(self.signature.args[i].nbytes(self.env)
                   for i in self.signature.output_indices())

    @property
    def predicted_flops(self) -> Optional[float]:
        return self.signature.predicted_flops(self.env)


class Signature:
    """The compiled interface of one registered routine.

    It does not change once built, so what it fixes is worked out once:
    :meth:`input_indices`, :meth:`output_indices` and the positions
    :meth:`check_scalars` checks at construction, and
    :attr:`marshal_plan` on the first marshal."""

    def __init__(self, name: str, args: Sequence[ArgSpec], description: str = "",
                 calc_order: str = "", comm_order: str = ""):
        self.name = name
        self.args = tuple(args)
        self.description = description
        self.calc_order = calc_order
        self.comm_order = comm_order
        self._validate()
        self._inputs = tuple(i for i, a in enumerate(self.args) if a.is_input)
        self._outputs = tuple(i for i, a in enumerate(self.args)
                              if a.is_output)
        # Inputs that are one number each: they size the dimensions.
        self._numeric_scalars = tuple(
            i for i in self._inputs if not self.args[i].is_array
            and self.args[i].dtype in NUMPY_DTYPES)
        #: :mod:`repro.protocol.marshal`'s plan of this signature, made
        #: by it on the first marshal.
        self.marshal_plan: Optional[_Plan] = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_definition(cls, definition: Definition) -> "Signature":
        args = tuple(
            ArgSpec(mode=p.mode, dtype=p.dtype, name=p.name,
                    dims=tuple(str(d) for d in p.dims))
            for p in definition.params
        )
        return cls(
            name=definition.name,
            args=args,
            description=definition.description,
            calc_order=str(definition.calc_order) if definition.calc_order else "",
            comm_order=str(definition.comm_order) if definition.comm_order else "",
        )

    @classmethod
    def from_idl(cls, text: str) -> "Signature":
        """Parse a single-Define IDL string straight to a signature."""
        from repro.idl.parser import parse_definitions

        definitions = parse_definitions(text)
        if len(definitions) != 1:
            raise IdlError(
                f"expected exactly one Define, found {len(definitions)}"
            )
        return cls.from_definition(definitions[0])

    def _validate(self) -> None:
        scalars = {a.name for a in self.args if a.is_input and not a.is_array}
        for arg in self.args:
            if arg.dtype not in DTYPE_SIZES:
                raise IdlError(f"unknown dtype {arg.dtype!r} for {arg.name}")
            for dim, expr in zip(arg.dims, arg.exprs):
                unknown = expr.free_variables() - scalars
                if unknown:
                    raise IdlError(
                        f"dimension {dim!r} of {arg.name} references "
                        f"non-scalar-input variables {sorted(unknown)}"
                    )

    # -- indexing helpers ------------------------------------------------------

    def input_indices(self) -> tuple[int, ...]:
        """Positions of arguments shipped client -> server: one tuple,
        worked out at construction."""
        return self._inputs

    def output_indices(self) -> tuple[int, ...]:
        """Positions of arguments shipped server -> client: one tuple,
        worked out at construction."""
        return self._outputs

    # -- binding -----------------------------------------------------------------

    def check_scalars(self, args: Sequence[Any]) -> None:
        """Refuse a positional argument list that does not have one value
        per argument, or that passes a bool, str or bytes for a numeric
        scalar input.  :meth:`bind` checks this first; it is all a call
        with no array argument needs checked before it is packed."""
        if len(args) != len(self.args):
            raise IdlError(
                f"{self.name} expects {len(self.args)} arguments, got {len(args)}"
            )
        for i in self._numeric_scalars:
            value = args[i]
            if isinstance(value, (bool, str, bytes)):
                raise IdlError(
                    f"scalar argument {self.args[i].name} of {self.name} "
                    f"must be numeric, got {type(value).__name__}"
                )

    def bind(self, args: Sequence[Any]) -> BoundCall:
        """Validate a positional argument list against the signature.

        Scalar inputs populate the dimension environment first; arrays
        are then checked (or, for ``mode_out``, shape-inferred).  Callers
        may pass ``None`` for pure outputs.
        """
        self.check_scalars(args)
        env: dict[str, float] = {}
        for i in self._numeric_scalars:
            # Complex scalars may not size dimensions; use the real part
            # so binding still records them for bookkeeping.
            value = args[i]
            env[self.args[i].name] = float(
                value.real if isinstance(value, complex) else value
            )

        inputs: dict[str, Any] = {}
        output_shapes: dict[str, tuple[int, ...]] = {}
        for spec, value in zip(self.args, args):
            if spec.is_array:
                shape = spec.shape(env)
                if spec.is_input:
                    arr = np.asarray(value)
                    if arr.shape != shape:
                        raise IdlError(
                            f"argument {spec.name} of {self.name}: expected "
                            f"shape {shape}, got {arr.shape}"
                        )
                    inputs[spec.name] = arr.astype(NUMPY_DTYPES[spec.dtype],
                                                   copy=False)
                if spec.is_output:
                    output_shapes[spec.name] = shape
            elif spec.is_input:
                if spec.dtype == "string":
                    inputs[spec.name] = str(value)
                elif spec.dtype == "char":
                    inputs[spec.name] = bytes(value) if not isinstance(value, bytes) else value
                else:
                    inputs[spec.name] = value
        return BoundCall(signature=self, env=env, inputs=inputs,
                         output_shapes=output_shapes)

    # -- prediction -------------------------------------------------------------------

    # The clauses are evaluated per call, on the reactor: each is parsed
    # on its first use and kept.

    @cached_property
    def _calc(self) -> Optional[Expr]:
        return parse_expr(self.calc_order) if self.calc_order else None

    @cached_property
    def _comm(self) -> Optional[Expr]:
        return parse_expr(self.comm_order) if self.comm_order else None

    def predicted_flops(self, env: Mapping[str, float]) -> Optional[float]:
        """Evaluate ``CalcOrder`` if present (None otherwise)."""
        if self._calc is None:
            return None
        return float(self._calc.evaluate(env))

    def predicted_comm_bytes(self, env: Mapping[str, float]) -> float:
        """``CommOrder`` if present, else the exact marshalled byte count."""
        if self._comm is not None:
            return float(self._comm.evaluate(env))
        total = 0
        for arg in self.args:
            if arg.is_input:
                total += arg.nbytes(env)
            if arg.is_output:
                total += arg.nbytes(env)
        return float(total)

    # -- misc ---------------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (self.name, self.args, self.description, self.calc_order,
                self.comm_order) == (other.name, other.args, other.description,
                                     other.calc_order, other.comm_order)

    def __hash__(self) -> int:
        return hash((self.name, self.args))

    def __repr__(self) -> str:
        params = ", ".join(
            f"{a.mode} {a.dtype} {a.name}" + "".join(f"[{d}]" for d in a.dims)
            for a in self.args
        )
        return f"<Signature {self.name}({params})>"


#: The wire form of a signature: stage one of the two-stage RPC, the
#: payload of INTERFACE_REPLY.  At most 4096 arguments of rank <= 32.
SIGNATURE = Struct(string("name"), string("description"),
                   string("calc_order"), string("comm_order"),
                   Array(ARG_SPEC, 4096)("args"), make=Signature)
