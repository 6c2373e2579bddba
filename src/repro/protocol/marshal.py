"""Signature-driven marshalling of call arguments and results.

The client stub interprets the :class:`~repro.idl.Signature` it received
in stage one, so marshalling is entirely table-driven: pack the
``mode_in``/``mode_inout`` values on the way out, unpack the
``mode_out``/``mode_inout`` values on the way back, in declaration
order.  What a signature fixes -- the positions of each direction's
halves, the coercion and XDR type of each scalar, whether any argument
is an array -- is worked out once per signature, into a :class:`_Plan`
whose blocks are compiled :class:`~repro.xdr.record.Struct` records
(one ``struct.Struct`` call per run of fixed-width scalars).  A
signature with no array argument has no dimension to evaluate, so its
calls skip the shape and output-allocation passes.

Zero-copy seams: both marshal functions accept ``into=`` -- an open
:class:`~repro.xdr.XdrEncoder` to pack into, so the argument/result
block lands directly inside an enclosing CALL/RESULT payload (via
``begin_opaque``/``end_opaque``) instead of being built as a separate
``bytes`` and re-copied.  Both unmarshal functions accept any bytes-like
payload, in particular the ``memoryview`` that
:meth:`~repro.xdr.XdrDecoder.unpack_opaque_view` slices out of a frame.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.idl import ArgSpec, IdlError, Signature
from repro.protocol.framing import MAX_FRAME_SIZE, BytesLike
from repro.idl.signature import NUMPY_DTYPES
from repro.xdr import XdrDecoder, XdrEncoder
from repro.xdr.record import (Struct, Type, double, float_, hyper, int_,
                              opaque, string)

__all__ = [
    "marshal_inputs",
    "marshal_outputs",
    "unmarshal_inputs",
    "unmarshal_outputs",
]


def _complex(part: Type) -> Struct:
    return Struct(part("real"), part("imag"), make=complex)


#: IDL scalar dtype -> (coercion applied before packing, wire type):
#: the one table both directions read, so they cannot disagree.
_SCALARS: dict[str, tuple[Callable[[Any], Any], Type]] = {
    "int": (int, int_),
    "long": (int, hyper),
    "float": (float, float_),
    "double": (float, double),
    "string": (str, string),
    "char": (bytes, opaque),
    "scomplex": (complex, _complex(float_)),
    "dcomplex": (complex, _complex(double)),
}


def _ndarray() -> Type:
    """A whole array argument (self-describing on the wire).  The
    encoder's and decoder's methods are looked up per value, so a
    wrapper installed on their class later is the one called."""
    array = Type("ndarray")
    array.pack = lambda enc, value: enc.pack_ndarray(value)
    array.unpack = lambda dec: dec.unpack_ndarray()
    return array


_NDARRAY = _ndarray()


class _Plan:
    """What marshalling one signature needs, worked out once (see
    :func:`_plan`).  Per direction: ``(position, spec, coerce)`` of each
    half shipped (``coerce`` is ``None`` for an array), the compiled
    record of the block, and the encoder room it takes when that is
    fixed (``None``: sized per call, from arrays and strings)."""

    __slots__ = ("has_array", "blank", "inputs", "in_block",
                 "in_room", "outputs", "out_block", "out_room")

    def __init__(self, signature: Signature) -> None:
        args = signature.args
        self.has_array = any(spec.is_array for spec in args)
        self.blank = (None,) * len(args)
        self.inputs = self._halves(args, signature.input_indices())
        self.outputs = self._halves(args, signature.output_indices())
        self.in_block, self.in_room = self._block(self.inputs)
        self.out_block, self.out_room = self._block(self.outputs)

    @staticmethod
    def _halves(args: Sequence[ArgSpec], positions: Sequence[int]
                ) -> tuple[tuple[int, ArgSpec, Any], ...]:
        return tuple((i, args[i], None if args[i].is_array
                      else _SCALARS[args[i].dtype][0]) for i in positions)

    @staticmethod
    def _block(halves: Sequence[tuple[int, ArgSpec, Any]]
               ) -> tuple[Struct, Optional[int]]:
        fields = [(_NDARRAY if spec.is_array else _SCALARS[spec.dtype][1])(
            spec.name) for _i, spec, _coerce in halves]
        sized = any(spec.is_array or spec.dtype in ("string", "char")
                    for _i, spec, _coerce in halves)
        return Struct(*fields), None if sized else 16 * len(halves)


def _plan(signature: Signature) -> _Plan:
    """``signature``'s plan, built on its first use and kept on it (a
    signature does not change once built)."""
    plan = signature.marshal_plan
    if plan is None:
        plan = signature.marshal_plan = _Plan(signature)
    return plan


def _pack(block: Struct, values: Sequence[Any], room: Optional[int],
          into: Optional[XdrEncoder]) -> Optional[bytes]:
    """Pack ``values`` as ``block`` straight into ``into`` (and return
    ``None``), or into a fresh encoder whose bytes come back.  The room
    is announced first (``XdrEncoder.ensure_room``) so the block lands
    in a buffer allocated once at final size; generously, since
    unwritten room is free.  A bulk region takes no room there."""
    enc = into if into is not None else XdrEncoder()
    if room is None:
        room = 0
        for value in values:
            if isinstance(value, np.ndarray):
                room += enc.ndarray_room(value)
            elif isinstance(value, (str, bytes)):
                room += 4 * len(value) + 8
            else:
                room += 16
    enc.ensure_room(room)
    block.pack(enc, values)
    return None if into is not None else enc.getvalue()


def marshal_inputs(signature: Signature, args: Sequence[Any],
                   into: Optional[XdrEncoder] = None) -> Optional[bytes]:
    """Client side: encode the input halves of a positional call.

    With ``into`` the block is packed straight into that encoder (the
    enclosing CALL payload) and ``None`` is returned; otherwise a fresh
    ``bytes`` comes back.  Arguments are validated before the first
    byte is packed: by ``signature.bind`` when an argument is an array,
    by ``signature.check_scalars`` (its first step) when none is.
    """
    plan = _plan(signature)
    if plan.has_array:
        arrays = signature.bind(args).inputs
        block = [arrays[spec.name] if coerce is None else coerce(args[i])
                 for i, spec, coerce in plan.inputs]
    else:
        signature.check_scalars(args)
        block = [coerce(args[i]) for i, _spec, coerce in plan.inputs]
    return _pack(plan.in_block, block, plan.in_room, into)


def unmarshal_inputs(signature: Signature,
                     payload: BytesLike) -> list[Any]:
    """Server side: decode a CALL payload into a full positional list.

    ``mode_out`` arrays come back as freshly allocated zero buffers of
    the inferred shape (the fork/exec'd executable fills them in);
    ``mode_out`` scalars come back as None placeholders.  Outputs past
    ``MAX_FRAME_SIZE`` (a RESULT no medium frames) raise IdlError first.
    """
    plan = _plan(signature)
    dec = XdrDecoder(payload)
    received = plan.in_block.unpack(dec)
    values = list(plan.blank)
    for (i, _spec, _coerce), value in zip(plan.inputs, received):
        values[i] = value
    if not plan.has_array:
        dec.done()
        return values
    # Arrays are self-describing on the wire, so they were decoded
    # first; verify shapes against the signature now every scalar is
    # known.
    env: dict[str, float] = {}
    for i, spec, coerce in plan.inputs:
        if coerce is not None and spec.dtype in NUMPY_DTYPES:
            value = values[i]
            env[spec.name] = float(
                value.real if isinstance(value, complex) else value)
    for i, spec, coerce in plan.inputs:
        if coerce is None:
            expected = spec.shape(env)
            if values[i].shape != expected:
                raise IdlError(
                    f"argument {spec.name}: wire shape {values[i].shape} "
                    f"does not match declared shape {expected}"
                )
    # Allocate output buffers, sized by the peer's scalars: bound first.
    out_bytes = sum(spec.nbytes(env) for spec in signature.args
                    if spec.is_output and spec.is_array)
    if out_bytes > MAX_FRAME_SIZE:
        raise IdlError(f"output arrays total {out_bytes} bytes, past the "
                       f"{MAX_FRAME_SIZE}-byte frame limit")
    for i, spec in enumerate(signature.args):
        if spec.mode == "mode_out" and spec.is_array:
            values[i] = np.zeros(spec.shape(env),
                                 dtype=NUMPY_DTYPES[spec.dtype])
    dec.done()
    return values


def marshal_outputs(signature: Signature, values: Sequence[Any],
                    into: Optional[XdrEncoder] = None) -> Optional[bytes]:
    """Server side: encode the output halves after execution.

    With ``into`` the block is packed straight into that encoder (the
    enclosing RESULT payload) and ``None`` is returned.
    """
    plan = _plan(signature)
    block = []
    for i, spec, coerce in plan.outputs:
        value = values[i]
        if coerce is None:
            value = np.ascontiguousarray(value, dtype=NUMPY_DTYPES[spec.dtype])
        elif value is None:
            raise IdlError(
                f"executable produced no value for output scalar "
                f"{spec.name!r}"
            )
        else:
            value = coerce(value)
        block.append(value)
    return _pack(plan.out_block, block, plan.out_room, into)


def unmarshal_outputs(signature: Signature,
                      payload: BytesLike) -> list[Any]:
    """Client side: decode a RESULT payload into the output values, in
    declaration order of the output arguments."""
    dec = XdrDecoder(payload)
    outputs = list(_plan(signature).out_block.unpack(dec))
    dec.done()
    return outputs
