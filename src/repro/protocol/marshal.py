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

from typing import Any, Optional, Sequence

import numpy as np

from repro.idl import ArgSpec, IdlError, Signature
from repro.protocol.framing import BytesLike
from repro.idl.signature import NUMPY_DTYPES
from repro.xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = [
    "marshal_inputs",
    "marshal_outputs",
    "unmarshal_inputs",
    "unmarshal_outputs",
]


def _pack_scalar(enc: XdrEncoder, dtype: str, value: Any) -> None:
    if dtype == "int":
        enc.pack_int(int(value))
    elif dtype == "long":
        enc.pack_hyper(int(value))
    elif dtype == "float":
        enc.pack_float(float(value))
    elif dtype == "double":
        enc.pack_double(float(value))
    elif dtype == "string":
        enc.pack_string(str(value))
    elif dtype == "char":
        raw = value if isinstance(value, bytes) else bytes(value)
        enc.pack_opaque(raw)
    elif dtype == "scomplex":
        c = complex(value)
        enc.pack_float(c.real)
        enc.pack_float(c.imag)
    elif dtype == "dcomplex":
        c = complex(value)
        enc.pack_double(c.real)
        enc.pack_double(c.imag)
    else:  # pragma: no cover - signature validation rejects earlier
        raise XdrError(f"cannot marshal scalar dtype {dtype!r}")


def _unpack_scalar(dec: XdrDecoder, dtype: str) -> Any:
    if dtype == "int":
        return dec.unpack_int()
    if dtype == "long":
        return dec.unpack_hyper()
    if dtype == "float":
        return dec.unpack_float()
    if dtype == "double":
        return dec.unpack_double()
    if dtype == "string":
        return dec.unpack_string()
    if dtype == "char":
        return dec.unpack_opaque()
    if dtype == "scomplex":
        return complex(dec.unpack_float(), dec.unpack_float())
    if dtype == "dcomplex":
        return complex(dec.unpack_double(), dec.unpack_double())
    raise XdrError(f"cannot unmarshal scalar dtype {dtype!r}")  # pragma: no cover


def _wire_room(block: Sequence[tuple[ArgSpec, Any]]) -> int:
    """Bytes to announce (``XdrEncoder.ensure_room``) before packing
    ``(spec, value)`` pairs, so the block lands in a buffer allocated
    once at final size; generous, since unwritten room is free."""
    room = 0
    for spec, value in block:
        if spec.is_array:
            room += value.nbytes + 4 * value.ndim + 32
        elif isinstance(value, (str, bytes)):
            room += 4 * len(value) + 8
        else:
            room += 16
    return room


def marshal_inputs(signature: Signature, args: Sequence[Any],
                   into: Optional[XdrEncoder] = None) -> Optional[bytes]:
    """Client side: encode the input halves of a positional call.

    With ``into`` the block is packed straight into that encoder (the
    enclosing CALL payload) and ``None`` is returned; otherwise a fresh
    ``bytes`` comes back.  Arguments are validated (``signature.bind``)
    before the first byte is packed.
    """
    bound = signature.bind(args)
    enc = into if into is not None else XdrEncoder()
    block = [(spec, bound.inputs[spec.name] if spec.is_array else value)
             for spec, value in zip(signature.args, args) if spec.is_input]
    enc.ensure_room(_wire_room(block))
    for spec, value in block:
        if spec.is_array:
            enc.pack_ndarray(value)
        else:
            _pack_scalar(enc, spec.dtype, value)
    return None if into is not None else enc.getvalue()


def unmarshal_inputs(signature: Signature,
                     payload: BytesLike) -> list[Any]:
    """Server side: decode a CALL payload into a full positional list.

    ``mode_out`` arrays come back as freshly allocated zero buffers of
    the inferred shape (the fork/exec'd executable fills them in);
    ``mode_out`` scalars come back as None placeholders.
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
    # Allocate output buffers now that all scalars are known.
    for i, spec in enumerate(signature.args):
        if spec.mode == "mode_out":
            if spec.is_array:
                values[i] = np.zeros(spec.shape(env),
                                     dtype=NUMPY_DTYPES[spec.dtype])
            else:
                values[i] = None
    dec.done()
    return values


def marshal_outputs(signature: Signature, values: Sequence[Any],
                    into: Optional[XdrEncoder] = None) -> Optional[bytes]:
    """Server side: encode the output halves after execution.

    With ``into`` the block is packed straight into that encoder (the
    enclosing RESULT payload) and ``None`` is returned.
    """
    enc = into if into is not None else XdrEncoder()
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
    enc.ensure_room(_wire_room(block))
    for spec, value in block:
        if spec.is_array:
            enc.pack_ndarray(value)
        else:
            _pack_scalar(enc, spec.dtype, value)
    return None if into is not None else enc.getvalue()


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
