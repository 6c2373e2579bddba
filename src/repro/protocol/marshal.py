"""Signature-driven marshalling of call arguments and results.

The client stub interprets the :class:`~repro.idl.Signature` it received
in stage one, so marshalling is entirely table-driven: walk the argument
specs in order, pack the ``mode_in``/``mode_inout`` values on the way
out, unpack the ``mode_out``/``mode_inout`` values on the way back.

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


def _unpack_scalar(dec: XdrDecoder, dtype: str) -> Any:
    return _SCALARS[dtype][1].unpack(dec)


def _pack_block(block: Sequence[tuple[ArgSpec, Any]],
                into: Optional[XdrEncoder]) -> Optional[bytes]:
    """Pack ``(spec, value)`` pairs straight into ``into`` (and return
    ``None``), or into a fresh encoder whose bytes come back.  The room
    is announced first (``XdrEncoder.ensure_room``) so the block lands
    in a buffer allocated once at final size; generously, since
    unwritten room is free.  A bulk region takes no room there."""
    enc = into if into is not None else XdrEncoder()
    room = 0
    for spec, value in block:
        if spec.is_array:
            room += enc.ndarray_room(value)
        elif isinstance(value, (str, bytes)):
            room += 4 * len(value) + 8
        else:
            room += 16
    enc.ensure_room(room)
    for spec, value in block:
        if spec.is_array:
            enc.pack_ndarray(value)
        else:
            coerce, wire = _SCALARS[spec.dtype]
            wire.pack(enc, coerce(value))
    return None if into is not None else enc.getvalue()


def marshal_inputs(signature: Signature, args: Sequence[Any],
                   into: Optional[XdrEncoder] = None) -> Optional[bytes]:
    """Client side: encode the input halves of a positional call.

    With ``into`` the block is packed straight into that encoder (the
    enclosing CALL payload) and ``None`` is returned; otherwise a fresh
    ``bytes`` comes back.  Arguments are validated (``signature.bind``)
    before the first byte is packed.
    """
    bound = signature.bind(args)
    return _pack_block(
        [(spec, bound.inputs[spec.name] if spec.is_array else value)
         for spec, value in zip(signature.args, args) if spec.is_input], into)


def unmarshal_inputs(signature: Signature,
                     payload: BytesLike) -> list[Any]:
    """Server side: decode a CALL payload into a full positional list.

    ``mode_out`` arrays come back as freshly allocated zero buffers of
    the inferred shape (the fork/exec'd executable fills them in);
    ``mode_out`` scalars come back as None placeholders.  Outputs past
    ``MAX_FRAME_SIZE`` (a RESULT no medium frames) raise IdlError first.
    """
    dec = XdrDecoder(payload)
    values: list[Any] = []
    env: dict[str, float] = {}
    # Arrays are self-describing on the wire, so decode first and verify
    # shapes against the signature once every scalar is known.
    for spec in signature.args:
        if spec.is_input:
            if spec.is_array:
                values.append(dec.unpack_ndarray())
            else:
                value = _unpack_scalar(dec, spec.dtype)
                if spec.dtype in NUMPY_DTYPES:
                    env[spec.name] = float(
                        value.real if isinstance(value, complex) else value
                    )
                values.append(value)
        else:
            values.append(None)  # filled below
    for spec, value in zip(signature.args, values):
        if spec.is_input and spec.is_array:
            expected = spec.shape(env)
            if value.shape != expected:
                raise IdlError(
                    f"argument {spec.name}: wire shape {value.shape} does "
                    f"not match declared shape {expected}"
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
    block = []
    for spec, value in zip(signature.args, values):
        if not spec.is_output:
            continue
        if spec.is_array:
            value = np.ascontiguousarray(value, dtype=NUMPY_DTYPES[spec.dtype])
        elif value is None:
            raise IdlError(
                f"executable produced no value for output scalar "
                f"{spec.name!r}"
            )
        block.append((spec, value))
    return _pack_block(block, into)


def unmarshal_outputs(signature: Signature,
                      payload: BytesLike) -> list[Any]:
    """Client side: decode a RESULT payload into the output values, in
    declaration order of the output arguments."""
    dec = XdrDecoder(payload)
    outputs: list[Any] = []
    for spec in signature.args:
        if not spec.is_output:
            continue
        if spec.is_array:
            outputs.append(dec.unpack_ndarray())
        else:
            outputs.append(_unpack_scalar(dec, spec.dtype))
    dec.done()
    return outputs
