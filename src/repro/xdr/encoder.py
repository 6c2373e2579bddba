"""XDR encoding (RFC 4506 §4).

All quantities are big-endian and padded to 4-byte boundaries.  Scalar
packing uses :mod:`struct`; bulk numeric arrays go through
:mod:`repro.xdr.bulk`, which byteswaps whole arrays in one vectorized
pass (NumPy when available, :mod:`array`-module fallback otherwise)
directly into this encoder's frame buffer.

The encoder owns one ``bytearray`` of room and a cursor: every
``pack_*`` call writes at the cursor, :meth:`XdrEncoder.getbuffer`
exposes the written prefix as a zero-copy ``memoryview`` for the
framing layer, and :meth:`XdrEncoder.reserve`/:meth:`XdrEncoder.patch_uint`
support length-prefixed regions whose size is only known after encoding
(:meth:`begin_opaque`/:meth:`end_opaque`) -- the primitive that lets a
CALL or RESULT payload be marshalled into one buffer with no
intermediate concatenation (DESIGN.md §3.1, *Buffer ownership*).
Room comes from :func:`repro.xdr.bulk.room`, whose bytes are unspecified
from ``bulk.UNZEROED_MIN`` up, so the encoder writes every byte below
the cursor itself: padding and reserved words as zeros, bulk arrays by
the one pass that converts them.  A caller that announces its size
(:meth:`XdrEncoder.ensure_room`) gets a payload touched exactly once.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.xdr import bulk
from repro.xdr.errors import XdrError

__all__ = ["XdrEncoder"]

_INT_MIN = -(2**31)
_INT_MAX = 2**31 - 1
_UINT_MAX = 2**32 - 1
_HYPER_MIN = -(2**63)
_HYPER_MAX = 2**63 - 1
_UHYPER_MAX = 2**64 - 1

_PACK_INT = struct.Struct(">i")
_PACK_UINT = struct.Struct(">I")
_PACK_HYPER = struct.Struct(">q")
_PACK_UHYPER = struct.Struct(">Q")
_PACK_FLOAT = struct.Struct(">f")
_PACK_DOUBLE = struct.Struct(">d")

#: Room a fresh encoder starts with: a control message or a CALL header.
_INITIAL_ROOM = 128

#: ``_ZEROS[n].pack_into(buf, at)`` writes n <= 4 zeros, cheaper than a slice.
_ZEROS = tuple(struct.Struct(f">{n}x") for n in range(5))

# dtype -> (XDR type code used by the Ninf protocol, big-endian numpy dtype)
NUMPY_WIRE_DTYPES = {
    np.dtype(np.int32): ">i4",
    np.dtype(np.uint32): ">u4",
    np.dtype(np.int64): ">i8",
    np.dtype(np.uint64): ">u8",
    np.dtype(np.float32): ">f4",
    np.dtype(np.float64): ">f8",
    np.dtype(np.complex64): ">c8",
    np.dtype(np.complex128): ">c16",
}


class XdrEncoder:
    """Accumulates XDR-encoded bytes in one preallocated buffer.

    >>> enc = XdrEncoder()
    >>> enc.pack_int(7)
    >>> enc.pack_string("hi")
    >>> enc.getvalue()
    b'\\x00\\x00\\x00\\x07\\x00\\x00\\x00\\x02hi\\x00\\x00'
    """

    def __init__(self) -> None:
        # ``_buf`` is capacity (unset past ``_len``); ``_len`` is the cursor.
        self._buf = bulk.room(_INITIAL_ROOM)
        self._len = 0

    # -- plumbing ------------------------------------------------------------

    def ensure_room(self, nbytes: int) -> None:
        """Make room for ``nbytes`` more in (at most) one allocation: a
        fresh :func:`~repro.xdr.bulk.room` plus a copy of the written
        prefix -- no zero fill, no copy of the unwritten tail.
        Unannounced growth at least doubles; a caller that knows what it
        is about to pack (``marshal_inputs``/``marshal_outputs``) says so
        here first, so a bulk payload is allocated once at final size."""
        need = self._len + nbytes
        if need > len(self._buf):
            grown = bulk.room(max(need, 2 * len(self._buf)))
            grown[:self._len] = memoryview(self._buf)[:self._len]
            self._buf = grown

    def reserve(self, nbytes: int) -> int:
        """Write ``nbytes`` of zeros; return their offset for patching."""
        offset = self._len
        if offset + nbytes > len(self._buf):
            self.ensure_room(nbytes)
        if nbytes > 4:
            self._buf[offset:offset + nbytes] = bytes(nbytes)
        else:
            _ZEROS[nbytes].pack_into(self._buf, offset)
        self._len = offset + nbytes
        return offset

    def _padded(self, nbytes: int) -> int:
        """Room for ``nbytes`` at the cursor plus XDR padding, which is
        zeroed here; return the end.  The caller writes the ``nbytes``,
        then moves the cursor to the end."""
        offset = self._len
        pad = -nbytes % 4
        end = offset + nbytes + pad
        if end > len(self._buf):
            self.ensure_room(end - offset)
        _ZEROS[pad].pack_into(self._buf, end - pad)
        return end

    def _pack(self, packer: struct.Struct, value) -> None:
        """One scalar, packed in place at the cursor (the hot path of
        every control message: no intermediate ``bytes``)."""
        offset = self._len
        if offset + packer.size > len(self._buf):
            self.ensure_room(packer.size)
        packer.pack_into(self._buf, offset, value)
        self._len = offset + packer.size

    def pack_fixed(self, layout: struct.Struct, *values) -> None:
        """A run of fixed-width fields through one precompiled big-endian
        ``struct.Struct`` (how :mod:`repro.xdr.record` moves them); a
        value its format refuses is an :exc:`XdrError`."""
        offset = self._len
        if offset + layout.size > len(self._buf):
            self.ensure_room(layout.size)
        try:
            layout.pack_into(self._buf, offset, *values)
        except struct.error as exc:
            raise XdrError(f"cannot pack {values!r}: {exc}") from exc
        self._len = offset + layout.size

    def getvalue(self) -> bytes:
        """The encoded byte string so far (a copy; see getbuffer)."""
        return bytes(self.getbuffer())

    def getbuffer(self) -> memoryview:
        """Zero-copy view of the encoded bytes.

        The view aliases the live buffer: bytes packed later are not
        part of it (and land in a different buffer if the encoder has
        to grow), so take it last -- the pattern the framing layer uses
        is encode-everything, then
        ``channel.send(msg_type, enc.getbuffer())``.
        """
        return memoryview(self._buf)[:self._len]

    def __len__(self) -> int:
        return self._len

    def reset(self) -> None:
        """Discard everything encoded so far."""
        self._buf = bulk.room(_INITIAL_ROOM)
        self._len = 0

    def patch_uint(self, offset: int, value: int) -> None:
        """Overwrite 4 bytes at ``offset`` with an unsigned int."""
        if not 0 <= value <= _UINT_MAX:
            raise XdrError(f"unsigned int out of range: {value}")
        _PACK_UINT.pack_into(self._buf, offset, value)

    def begin_opaque(self) -> int:
        """Open a variable-length opaque whose size is not yet known.

        Reserves the length word and returns a token for
        :meth:`end_opaque`.  Everything packed in between becomes the
        opaque's body -- this is how a marshalled argument block lands
        inside a CALL payload without an intermediate bytes object.
        """
        return self.reserve(4)

    def end_opaque(self, token: int) -> None:
        """Close a :meth:`begin_opaque` region: patch the length word
        and add XDR padding for the body packed since."""
        body_len = self._len - token - 4
        if body_len < 0:
            raise XdrError("end_opaque before begin_opaque")
        self.patch_uint(token, body_len)
        self.reserve(-body_len % 4)

    # -- integral types ---------------------------------------------------------

    def pack_int(self, value: int) -> None:
        """Signed 32-bit integer."""
        if not _INT_MIN <= value <= _INT_MAX:
            raise XdrError(f"int out of range: {value}")
        self._pack(_PACK_INT, value)

    def pack_uint(self, value: int) -> None:
        """Unsigned 32-bit integer."""
        if not 0 <= value <= _UINT_MAX:
            raise XdrError(f"unsigned int out of range: {value}")
        self._pack(_PACK_UINT, value)

    def pack_hyper(self, value: int) -> None:
        """Signed 64-bit integer."""
        if not _HYPER_MIN <= value <= _HYPER_MAX:
            raise XdrError(f"hyper out of range: {value}")
        self._pack(_PACK_HYPER, value)

    def pack_uhyper(self, value: int) -> None:
        """Unsigned 64-bit integer."""
        if not 0 <= value <= _UHYPER_MAX:
            raise XdrError(f"unsigned hyper out of range: {value}")
        self._pack(_PACK_UHYPER, value)

    def pack_bool(self, value: bool) -> None:
        """Boolean as 32-bit 0/1."""
        self._pack(_PACK_INT, 1 if value else 0)

    def pack_enum(self, value: int) -> None:
        """Enumeration: same wire form as int."""
        self.pack_int(value)

    # -- floating point -----------------------------------------------------------

    def pack_float(self, value: float) -> None:
        """IEEE-754 single precision."""
        self._pack(_PACK_FLOAT, value)

    def pack_double(self, value: float) -> None:
        """IEEE-754 double precision."""
        self._pack(_PACK_DOUBLE, value)

    # -- opaque and string -----------------------------------------------------------

    def pack_fopaque(self, n: int, data) -> None:
        """Fixed-length opaque: exactly ``n`` bytes, zero-padded to 4.

        ``data`` may be any bytes-like object (``bytes``, ``bytearray``,
        ``memoryview``); views are copied into the buffer directly, no
        intermediate ``bytes`` is materialised.
        """
        if len(data) != n:
            raise XdrError(f"fixed opaque length mismatch: want {n}, got {len(data)}")
        offset, end = self._len, self._padded(n)
        self._buf[offset:offset + n] = data
        self._len = end

    def pack_opaque(self, data) -> None:
        """Variable-length opaque: length word, bytes, zero padding."""
        n = len(data)
        if n > _UINT_MAX:
            raise XdrError(f"unsigned int out of range: {n}")
        offset, end = self._len, self._padded(4 + n)
        _PACK_UINT.pack_into(self._buf, offset, n)
        self._buf[offset + 4:offset + 4 + n] = data
        self._len = end

    def pack_string(self, text: str) -> None:
        """String: UTF-8 bytes as variable opaque."""
        self.pack_opaque(text.encode("utf-8"))

    # -- arrays -----------------------------------------------------------------

    def pack_farray(self, n: int, items: Sequence, pack_item: Callable) -> None:
        """Fixed-length array: exactly ``n`` elements, no length word."""
        if len(items) != n:
            raise XdrError(f"fixed array length mismatch: want {n}, got {len(items)}")
        for item in items:
            pack_item(item)

    def pack_array(self, items: Iterable, pack_item: Callable) -> None:
        """Variable-length array: length word then elements."""
        items = list(items)
        self.pack_uint(len(items))
        for item in items:
            pack_item(item)

    # -- bulk fast paths ---------------------------------------------------------

    def pack_ndarray(self, array) -> None:
        """A NumPy array as: rank, dims, dtype code, then raw big-endian data.

        This is the Ninf matrix wire format: shape-prefixed so the
        receiver can allocate before reading, and the payload is one
        contiguous big-endian block written straight into the frame
        buffer (a single fused byteswap-and-copy), so marshalling
        throughput is memory-bandwidth bound.
        """
        arr = np.ascontiguousarray(array)
        wire = NUMPY_WIRE_DTYPES.get(arr.dtype)
        if wire is None:
            raise XdrError(f"unsupported ndarray dtype {arr.dtype}")
        self.pack_uint(arr.ndim)
        for dim in arr.shape:
            self.pack_uint(dim)
        self.pack_string(wire)
        nbytes = arr.size * arr.itemsize
        self.ensure_room(4 + nbytes + 3)
        self.pack_uint(nbytes)
        self._len += bulk.pack_array_into(self._buf, self._len, arr, wire)
        self.reserve(-nbytes % 4)

    def pack_double_array(self, values: Sequence[float]) -> None:
        """Variable array of doubles via the bulk vectorized path."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise XdrError("pack_double_array expects a 1-D sequence")
        self.ensure_room(4 + 8 * len(arr))
        self.pack_uint(len(arr))
        self._len += bulk.pack_doubles_into(self._buf, self._len, arr)

    def pack_int_array(self, values: Sequence[int]) -> None:
        """Variable array of 32-bit ints via the bulk vectorized path."""
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise XdrError("pack_int_array expects a 1-D sequence")
        self.ensure_room(4 + 4 * len(arr))
        self.pack_uint(len(arr))
        self._len += bulk.pack_ints_into(self._buf, self._len, arr)
