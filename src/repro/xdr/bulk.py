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

A large array need not be converted into the frame buffer at all.
:class:`Payload` is a message whose bulk *regions* -- arrays of
:data:`REGION_MIN` bytes and up -- are held apart from its other bytes:
on the sending side as the caller's own arrays, on the receiving side
as the native arrays they were converted into.  Every frame carries a
region table (:mod:`repro.protocol.framing`): a ring converts each array
straight between NumPy and ring memory (:mod:`repro.transport.shm`), a
socket through a piece-sized buffer on the way out and in place as its
bytes land on the way in.  :meth:`Payload.flat` builds the wire bytes
in one pass per array for the few places that need a flat copy: a
reply whose arrays may change before a replay, a send finished later
on another thread.

The scalar-loop oracles at the bottom (``scalar_*``) are the pre-bulk
encodings; ``tests/xdr/test_bulk.py`` holds the engine to byte
equality with them under Hypothesis (including NaN/inf payloads, which
must survive bit-exactly), and ``ninf-bench marshal`` times one
against the other.
"""

from __future__ import annotations

import ctypes
import struct
import threading
from typing import NamedTuple, Optional, Sequence, Union

import numpy as _np
from numpy.typing import DTypeLike

from repro.xdr.errors import XdrError

__all__ = [
    "Payload",
    "REGION_MIN",
    "Region",
    "UNZEROED_MIN",
    "WIRE_DTYPES",
    "flat",
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


# -- payloads with bulk regions ------------------------------------------------

#: An ndarray of this many bytes and up is packed as a region: one ring
#: piece, the default ring's capacity.  Below it, an inline array crosses
#: the ring in one write and the fixed cost of a region (a table entry,
#: a 16-byte alignment pad, an array view per ring piece a side) does not
#: pay: across two processes on one CPU, a 128 KiB array took 279 us a
#: message inline and 294 us as a region, a 256 KiB one 478 us inline
#: and 268 us as a region.
REGION_MIN = 1 << 18

#: The big-endian wire dtypes of NumPy arrays (the encoder maps each
#: native dtype to one), indexed by their code in a frame's region
#: table.
WIRE_DTYPES = (">i4", ">u4", ">i8", ">u8", ">f4", ">f8", ">c8", ">c16")


class Region(NamedTuple):
    """One bulk array of a :class:`Payload`: where its big-endian bytes
    sit in the wire payload, and the array that stands for them."""

    offset: int         #: wire offset of the region's first byte
    nbytes: int
    wire: str           #: the wire dtype, one of :data:`WIRE_DTYPES`
    #: Sending: the caller's contiguous array.  Received: the native 1-D
    #: array the region was converted into.  None once the bytes are flat.
    array: Optional["_np.ndarray"]


class Payload:
    """A payload whose bulk regions are kept apart from its other bytes.

    ``rest`` holds the bytes outside every region, in wire order;
    ``len()`` is the wire length, regions included.  :meth:`flat` builds
    the wire bytes, converting each region's array once, and keeps them:
    from then on ``rest`` is None, the regions hold no array, and the
    flat bytes are what every medium copies.  The region table stays, so
    a frame still places each region where its reader converts it.

    Two threads may send one payload at once (a reply the dedup cache
    replays while its owner sends it): the build runs under a lock, and
    the payload's form -- its bytes and its regions -- is one attribute,
    replaced whole, so a reader takes both from one snapshot and a frame
    write that took the arrays keeps them alive to its end.

    ``received`` marks a payload a frame reader built (a socket's or a
    ring's): the decoder takes its regions' arrays as the decoded
    values.  Any other payload is decoded from its flat bytes.
    """

    __slots__ = ("received", "_length", "_lock", "_form")

    def __init__(self, rest: BufferLike, regions: Sequence[Region],
                 length: int, received: bool = False) -> None:
        self.received = received
        self._length = length
        self._lock = threading.Lock()     # one build of the flat bytes
        self._form: tuple[BufferLike, tuple[Region, ...], bool] = \
            (rest, tuple(regions), False)

    def __len__(self) -> int:
        return self._length

    def __bytes__(self) -> bytes:
        return bytes(self.flat())

    @property
    def form(self) -> tuple[BufferLike, tuple[Region, ...], bool]:
        """``(rest, regions, False)``, or ``(flat bytes, regions, True)``
        once :meth:`flat` has run: one snapshot of both halves."""
        return self._form

    @property
    def rest(self) -> Optional[BufferLike]:
        """The bytes outside every region; None once flat."""
        data, _regions, is_flat = self._form
        return None if is_flat else data

    @property
    def regions(self) -> tuple[Region, ...]:
        return self._form[1]

    @property
    def head(self) -> BufferLike:
        """The buffer holding the bytes before the first region, at
        their wire offsets: where a header is patched in place."""
        return self._form[0]

    def flat(self) -> BufferLike:
        """The wire bytes, built on the first call: every byte outside
        the regions copied, every region converted in one pass."""
        data, regions, is_flat = self._form
        if is_flat:
            return data
        with self._lock:
            data, regions, is_flat = self._form
            if not is_flat:
                data = _flatten(data, regions, self._length)
                self._form = (data, tuple(region._replace(array=None)
                                          for region in regions), True)
        return data

    def parts(self) -> tuple[list[BufferLike],
                             list[tuple[Region,
                                        Union["_np.ndarray", memoryview]]]]:
        """One snapshot of the payload as a frame is written: the bytes
        outside every region, in wire order, and each region with what
        it is written from -- its array, or its big-endian bytes once
        the payload is flat."""
        data, regions, is_flat = self._form
        if not is_flat:
            return [data], [(region, region.array) for region in regions]
        flat, spans, sources, at = memoryview(data), [], [], 0
        for region in regions:
            end = region.offset + region.nbytes
            spans.append(flat[at:region.offset])
            sources.append((region, flat[region.offset:end]))
            at = end
        spans.append(flat[at:])
        return spans, sources


def _flatten(rest: BufferLike, regions: Sequence[Region],
             length: int) -> bytearray:
    """The ``length`` wire bytes of ``rest`` with each region's array
    converted in at its offset."""
    out = room(length)
    view = memoryview(rest)
    at = taken = 0      # wire offset in ``out``, offset in ``rest``
    for region in regions:
        span = region.offset - at
        out[at:region.offset] = view[taken:taken + span]
        taken += span
        pack_array_into(out, region.offset, region.array, region.wire)
        at = region.offset + region.nbytes
    out[at:] = view[taken:]
    return out


def flat(payload: Union[BufferLike, Payload]) -> BufferLike:
    """``payload`` as bytes a socket can take: a :class:`Payload`'s wire
    bytes (built once, then kept), anything else as it is."""
    return payload.flat() if isinstance(payload, Payload) else payload


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
