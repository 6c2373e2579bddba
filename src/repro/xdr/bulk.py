"""Bulk (vectorized) XDR codecs for homogeneous numeric arrays.

The paper's call-time breakdown shows argument marshal/transfer
dominating Linpack-style calls; a per-element Python pack loop makes
that cost *worse* than the 1997 C implementation it reproduces.  This
module is the engine behind the fast paths in
:class:`~repro.xdr.encoder.XdrEncoder` /
:class:`~repro.xdr.decoder.XdrDecoder`: whole arrays are converted to
or from big-endian wire order in one vectorized pass, written directly
into room the caller reserved in its frame buffer (a ``bytearray``
and an offset), with no per-element Python bytecode, no intermediate
list-of-chunks copies and no growth of the buffer here.

There is one engine, NumPy: the destination region of the frame buffer
is viewed through ``np.frombuffer`` as a big-endian (``>f8`` / ``>i4``)
array and assigned in one ``dest[:] = src`` statement -- NumPy fuses
the byteswap and the copy, so throughput is memory-bandwidth bound.
Decoding is the mirror: ``np.frombuffer`` over the payload
``memoryview`` plus one ``astype`` to native order.  The wire dtypes
name their byte order, so the host's own never enters: a big-endian
host copies without swapping, by the same statement.

The scalar-loop oracles at the bottom (``scalar_*``) are the pre-bulk
encodings; ``tests/xdr/test_bulk.py`` holds the engine to byte
equality with them under Hypothesis (including NaN/inf payloads, which
must survive bit-exactly), and ``ninf-bench marshal`` times one
against the other.
"""

from __future__ import annotations

import ctypes
import struct
from typing import Sequence, Union

import numpy as _np
from numpy.typing import DTypeLike

from repro.xdr.errors import XdrError

__all__ = [
    "UNZEROED_MIN",
    "pack_array_into",
    "pack_doubles_into",
    "pack_ints_into",
    "room",
    "unpack_array",
    "unpack_doubles",
    "unpack_ints",
]

_INT_MIN = -(2**31)
_INT_MAX = 2**31 - 1

BufferLike = Union[bytes, bytearray, memoryview]

#: From this size up, :func:`room` leaves a buffer's bytes unset.
UNZEROED_MIN = 1 << 20

try:  # the C constructor bytearray(n) itself uses, minus its memset
    _unset_bytearray = ctypes.PYFUNCTYPE(
        ctypes.py_object, ctypes.c_char_p, ctypes.c_ssize_t)(
            ("PyByteArray_FromStringAndSize", ctypes.pythonapi))
except (AttributeError, OSError):  # pragma: no cover - no CPython C API
    _unset_bytearray = None


def room(nbytes: int) -> bytearray:
    """A fresh ``bytearray`` of ``nbytes`` for a caller that fills it before
    reading: unset from :data:`UNZEROED_MIN` up (no memset), else zeros."""
    if nbytes < UNZEROED_MIN or _unset_bytearray is None:
        return bytearray(nbytes)
    return _unset_bytearray(None, nbytes)


# -- the conversion, both ways ----------------------------------------------


def pack_array_into(buf: bytearray, offset: int, src: "_np.ndarray",
                    wire: str) -> int:
    """Write ``src`` at ``buf[offset:]`` as elements of the big-endian
    ``wire`` dtype (``">f8"``, ``">i4"``, ...) in one fused
    byteswap-and-copy; return nbytes.  The room must exist already."""
    dest = _np.frombuffer(buf, dtype=wire, count=src.size, offset=offset)
    dest[:] = src.reshape(-1)
    return dest.nbytes


def unpack_array(payload: BufferLike, wire: str,
                 native: DTypeLike) -> "_np.ndarray":
    """The ``wire``-dtype elements of ``payload`` as a fresh 1-D array of
    the ``native`` dtype, converted in one pass."""
    return _np.frombuffer(payload, dtype=wire).astype(native, copy=True)


# -- encode ----------------------------------------------------------------


def pack_doubles_into(buf: bytearray, offset: int,
                      values: Sequence[float]) -> int:
    """Write ``values`` as big-endian IEEE-754 doubles at ``buf[offset:]``;
    return nbytes.

    ``buf`` must already hold ``8 * len(values)`` bytes of room at
    ``offset`` (the encoder reserves it): one vectorized pass writes
    straight into it -- no per-element loop, no intermediate bytes
    object, and no growth of ``buf`` here.
    """
    src = _np.ascontiguousarray(values, dtype=_np.float64)
    if src.ndim != 1:
        raise XdrError("bulk double pack expects a 1-D sequence")
    return pack_array_into(buf, offset, src, ">f8")


def pack_ints_into(buf: bytearray, offset: int,
                   values: Sequence[int]) -> int:
    """Write ``values`` as big-endian signed 32-bit ints at
    ``buf[offset:]`` (room for ``4 * len(values)`` bytes must exist);
    return nbytes.

    Raises :class:`~repro.xdr.errors.XdrError` when any element is out
    of 32-bit range (checked in bulk, not per element).
    """
    src = _np.ascontiguousarray(values)
    if src.ndim != 1:
        raise XdrError("bulk int pack expects a 1-D sequence")
    if not _np.issubdtype(src.dtype, _np.integer):
        src = src.astype(_np.int64)
    if src.size and (int(src.min()) < _INT_MIN or int(src.max()) > _INT_MAX):
        raise XdrError("int array element out of 32-bit range")
    return pack_array_into(buf, offset, src, ">i4")


# -- decode ----------------------------------------------------------------


def unpack_doubles(payload: BufferLike, count: int) -> "_np.ndarray":
    """``count`` big-endian doubles from ``payload`` as a native-order
    ``float64`` array (no copy until that array is built)."""
    view = memoryview(payload)
    if len(view) != count * 8:
        raise XdrError(
            f"bulk double payload is {len(view)} bytes, "
            f"expected {count * 8}")
    return unpack_array(view, ">f8", _np.float64)


def unpack_ints(payload: BufferLike, count: int) -> "_np.ndarray":
    """``count`` big-endian signed 32-bit ints from ``payload`` as a
    native-order ``int32`` array."""
    view = memoryview(payload)
    if len(view) != count * 4:
        raise XdrError(
            f"bulk int payload is {len(view)} bytes, expected {count * 4}")
    return unpack_array(view, ">i4", _np.int32)


# -- scalar-loop reference implementations ---------------------------------
# The pre-bulk encodings, kept as the oracle the property tests and the
# ``ninf-bench marshal`` speedup baseline compare against.  Bit-exact:
# struct '>d' preserves NaN payloads, so bulk-vs-scalar byte equality is
# a meaningful assertion even for NaN/inf arrays.


def scalar_pack_doubles(values: Sequence[float]) -> bytes:
    """Per-element ``struct.pack('>d')`` loop -- the scalar oracle."""
    pack = struct.Struct(">d").pack
    return b"".join(pack(float(v)) for v in values)


def scalar_pack_ints(values: Sequence[int]) -> bytes:
    """Per-element ``struct.pack('>i')`` loop -- the scalar oracle."""
    pack = struct.Struct(">i").pack
    out = []
    for v in values:
        v = int(v)
        if not _INT_MIN <= v <= _INT_MAX:
            raise XdrError(f"int out of range: {v}")
        out.append(pack(v))
    return b"".join(out)


def scalar_unpack_doubles(payload: BufferLike, count: int) -> list[float]:
    """Per-element ``struct.unpack('>d')`` loop -- the scalar oracle."""
    view = memoryview(payload)
    unpack = struct.Struct(">d").unpack_from
    return [unpack(view, i * 8)[0] for i in range(count)]


def scalar_unpack_ints(payload: BufferLike, count: int) -> list[int]:
    """Per-element ``struct.unpack('>i')`` loop -- the scalar oracle."""
    view = memoryview(payload)
    unpack = struct.Struct(">i").unpack_from
    return [unpack(view, i * 4)[0] for i in range(count)]
