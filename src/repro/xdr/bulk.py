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

Two implementations, one wire format:

- **NumPy** (preferred, engaged when ``numpy`` imports): the
  destination region of the frame buffer is viewed through
  ``np.frombuffer`` as a big-endian array and assigned in one
  ``dest[:] = src`` statement -- NumPy fuses the byteswap and the copy,
  so throughput is memory-bandwidth bound.  Decoding is the mirror:
  ``np.frombuffer`` over the payload ``memoryview`` plus one ``astype``
  to native order.
- **Pure stdlib** (fallback, engaged when NumPy is unavailable or
  :data:`FORCE_STDLIB` is set): :class:`array.array` +
  ``array.byteswap()``, which is a single C loop.  Only the dtypes
  :mod:`array` can express are supported (``d``/``f``/``i``/``q`` and
  unsigned variants); complex dtypes always require NumPy.  Decoded
  arrays come back as :class:`array.array` instances -- same element
  values, same indexing protocol, different container type (callers
  that need an ``ndarray`` must run under NumPy; the RPC stack does).

Both paths produce and consume byte-identical wire data, a property
``tests/xdr/test_bulk.py`` asserts with Hypothesis round trips
(including NaN/inf payloads, which must survive bit-exactly).

Endianness: XDR is big-endian.  Whether a byteswap is needed is decided
by :func:`swap_needed` against :data:`sys.byteorder`; the tests
simulate a big-endian host by calling the swap helpers with an explicit
``byteorder`` argument, so the (rare) big-endian code path is covered
on little-endian CI machines.

Opt-outs: set the environment variable ``NINF_XDR_STDLIB=1`` before
import (or flip :data:`FORCE_STDLIB` at runtime) to force the stdlib
path -- the knob the property tests and the ``ninf-bench marshal``
ablation use.
"""

from __future__ import annotations

import array
import ctypes
import os
import struct
import sys
from typing import Sequence, Union

from repro.xdr.errors import XdrError

try:  # NumPy is optional at the XDR layer (stdlib fallback below).
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via FORCE_STDLIB
    _np = None

__all__ = [
    "FORCE_STDLIB",
    "HAVE_NUMPY",
    "UNZEROED_MIN",
    "pack_doubles_into",
    "pack_ints_into",
    "room",
    "swap_needed",
    "unpack_doubles",
    "unpack_ints",
    "using_numpy",
]

HAVE_NUMPY = _np is not None

#: Runtime override: ``True`` forces the pure-stdlib path even when
#: NumPy is importable.  Seeded from ``NINF_XDR_STDLIB`` at import; the
#: property tests flip it to compare both engines on one host.
FORCE_STDLIB = os.environ.get("NINF_XDR_STDLIB", "") not in ("", "0")

_INT_MIN = -(2**31)
_INT_MAX = 2**31 - 1

BufferLike = Union[bytes, bytearray, memoryview]


def using_numpy() -> bool:
    """Whether the bulk paths currently run on the NumPy engine."""
    return HAVE_NUMPY and not FORCE_STDLIB


def swap_needed(byteorder: str = sys.byteorder) -> bool:
    """Whether native element order differs from XDR's big-endian wire
    order.  ``byteorder`` is injectable so tests can walk the
    big-endian branch on little-endian hosts."""
    return byteorder != "big"


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


# -- encode ----------------------------------------------------------------


def pack_doubles_into(buf: bytearray, offset: int, values: Sequence[float],
                      byteorder: str = sys.byteorder) -> int:
    """Write ``values`` as big-endian IEEE-754 doubles at ``buf[offset:]``;
    return nbytes.

    ``buf`` must already hold ``8 * len(values)`` bytes of room at
    ``offset`` (the encoder reserves it): one vectorized pass writes
    straight into it -- no per-element loop, no intermediate bytes
    object on the NumPy path, and no growth of ``buf`` here.
    """
    if using_numpy():
        src = _np.ascontiguousarray(values, dtype=_np.float64)
        if src.ndim != 1:
            raise XdrError("bulk double pack expects a 1-D sequence")
        dest = _np.frombuffer(buf, dtype=">f8", count=src.size,
                              offset=offset)
        dest[:] = src  # fused byteswap-and-copy
        return src.size * 8
    arr = values if (isinstance(values, array.array)
                     and values.typecode == "d") else array.array(
                         "d", [float(v) for v in values])
    if swap_needed(byteorder):
        arr = array.array("d", arr)  # don't mutate the caller's array
        arr.byteswap()
    nbytes = len(arr) * 8
    buf[offset:offset + nbytes] = memoryview(arr).cast("B")
    return nbytes


def pack_ints_into(buf: bytearray, offset: int, values: Sequence[int],
                   byteorder: str = sys.byteorder) -> int:
    """Write ``values`` as big-endian signed 32-bit ints at
    ``buf[offset:]`` (room for ``4 * len(values)`` bytes must exist);
    return nbytes.

    Raises :class:`~repro.xdr.errors.XdrError` when any element is out
    of 32-bit range (checked in bulk, not per element).
    """
    if using_numpy():
        src = _np.ascontiguousarray(values)
        if src.ndim != 1:
            raise XdrError("bulk int pack expects a 1-D sequence")
        if not _np.issubdtype(src.dtype, _np.integer):
            src = src.astype(_np.int64)
        if src.size and (int(src.min()) < _INT_MIN
                         or int(src.max()) > _INT_MAX):
            raise XdrError("int array element out of 32-bit range")
        dest = _np.frombuffer(buf, dtype=">i4", count=src.size,
                              offset=offset)
        dest[:] = src
        return src.size * 4
    try:
        arr = array.array("i" if array.array("i").itemsize == 4 else "l",
                          [int(v) for v in values])
    except OverflowError as exc:
        raise XdrError("int array element out of 32-bit range") from exc
    if arr.itemsize != 4:  # pragma: no cover - no 4-byte int type
        raise XdrError("no 4-byte signed int array type on this platform")
    if swap_needed(byteorder):
        arr.byteswap()
    nbytes = len(arr) * 4
    buf[offset:offset + nbytes] = memoryview(arr).cast("B")
    return nbytes


# -- decode ----------------------------------------------------------------


def unpack_doubles(payload: BufferLike, count: int,
                   byteorder: str = sys.byteorder):
    """``count`` big-endian doubles from ``payload`` (no copy until the
    final native-order container is built).

    Returns ``np.ndarray[float64]`` on the NumPy engine, else
    ``array.array('d')``.
    """
    view = memoryview(payload)
    if len(view) != count * 8:
        raise XdrError(
            f"bulk double payload is {len(view)} bytes, "
            f"expected {count * 8}")
    if using_numpy():
        return _np.frombuffer(view, dtype=">f8").astype(
            _np.float64, copy=True)
    arr = array.array("d")
    arr.frombytes(view)
    if swap_needed(byteorder):
        arr.byteswap()
    return arr


def unpack_ints(payload: BufferLike, count: int,
                byteorder: str = sys.byteorder):
    """``count`` big-endian signed 32-bit ints from ``payload``.

    Returns ``np.ndarray[int32]`` on the NumPy engine, else a 4-byte
    signed :class:`array.array`.
    """
    view = memoryview(payload)
    if len(view) != count * 4:
        raise XdrError(
            f"bulk int payload is {len(view)} bytes, expected {count * 4}")
    if using_numpy():
        return _np.frombuffer(view, dtype=">i4").astype(
            _np.int32, copy=True)
    typecode = "i" if array.array("i").itemsize == 4 else "l"
    arr = array.array(typecode)
    arr.frombytes(view)
    if swap_needed(byteorder):
        arr.byteswap()
    return arr


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
