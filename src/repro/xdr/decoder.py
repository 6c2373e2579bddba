"""XDR decoding (RFC 4506) with strict bounds and padding checks.

The decoder never copies while it walks: it holds one ``memoryview``
over the incoming frame and slices windows out of it (:meth:`_take`),
so a bulk array decode touches the payload bytes exactly once -- in the
vectorized byteswap that builds the final native-order container (see
:mod:`repro.xdr.bulk`).  :meth:`XdrDecoder.unpack_opaque_view` extends
the same property to nested payloads: a CALL body can be unmarshalled
straight out of the enclosing frame without materialising an
intermediate ``bytes``.

A :class:`~repro.xdr.bulk.Payload` a frame reader built carries its bulk
regions as native arrays already converted: :meth:`XdrDecoder.unpack_ndarray`
takes a region's array when the array's data starts the region, and no
byte of a region is ever read as XDR -- a read that runs into one, a
region whose size or dtype disagrees with its array header, or a decode
that ends with one unread raises :class:`XdrError`.  Positions are wire
offsets throughout, regions included.
"""

from __future__ import annotations

import struct
from typing import Callable, Union

import numpy as np

from repro.xdr import bulk
from repro.xdr.encoder import NUMPY_WIRE_DTYPES
from repro.xdr.errors import XdrError

__all__ = ["XdrDecoder"]

_WIRE_TO_NATIVE = {wire: dtype for dtype, wire in NUMPY_WIRE_DTYPES.items()}

# Reject absurd length words before allocating (protocol sanity limit).
MAX_REASONABLE_LENGTH = 1 << 33

_LENGTH = struct.Struct(">I")
_ZERO_PADS = (b"", b"\x00", b"\x00\x00", b"\x00\x00\x00")


class XdrDecoder:
    """Decodes XDR values from a byte buffer.

    Accepts any bytes-like source (``bytes``, ``bytearray``,
    ``memoryview``) -- in particular the zero-copy payload view the
    framing layer hands back.

    >>> dec = XdrDecoder(b"\\x00\\x00\\x00\\x07")
    >>> dec.unpack_int()
    7
    >>> dec.done()
    """

    def __init__(self, data):
        regions: tuple[bulk.Region, ...] = ()
        if isinstance(data, bulk.Payload):
            rest, held, is_flat = data.form
            if data.received and not is_flat:
                regions, data = held, rest
            else:
                data = data.flat()
        self._data = memoryview(data)
        self._length = len(self._data)
        if regions:
            self._length += sum(region.nbytes for region in regions)
        self._pos = 0           # wire offset
        self._regions = regions
        self._next = 0          # the next region not yet taken
        self._skipped = 0       # region bytes before ``_pos``
        self._stop = regions[0].offset if regions else self._length

    # -- plumbing ---------------------------------------------------------------

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._length - self._pos

    def done(self, strict: bool = True) -> None:
        """Assert the buffer is fully consumed (trailing bytes = protocol
        bug); with ``strict`` False trailing bytes are ignored, but not
        an unread bulk region."""
        if strict and self._pos != self._length:
            raise XdrError(
                f"unconsumed XDR data: {self._length - self._pos} bytes left"
            )
        if self._next < len(self._regions):
            raise XdrError(f"bulk region at offset {self._stop} left unread")

    def _advance_to(self, pos: int, skipped: int, taken: int) -> None:
        """Move past ``taken`` more regions, ``skipped`` bytes of them,
        to wire offset ``pos``."""
        self._pos = pos
        self._skipped += skipped
        self._next += taken
        self._stop = (self._regions[self._next].offset
                      if self._next < len(self._regions) else self._length)

    def _overrun(self, n: int) -> XdrError:
        if self._next < len(self._regions):
            return XdrError(f"{n} bytes at offset {self._pos} run into the "
                            f"bulk region at offset {self._stop}")
        return XdrError(
            f"truncated XDR data: need {n} bytes at offset {self._pos}, "
            f"have {self._length - self._pos}"
        )

    def _take(self, n: int) -> memoryview:
        if n < 0 or n > MAX_REASONABLE_LENGTH:
            raise XdrError(f"implausible XDR length {n}")
        pos = self._pos
        if pos + n > self._stop:
            raise self._overrun(n)
        at = pos - self._skipped
        view = self._data[at : at + n]
        self._pos = pos + n
        return view

    def _take_region(self, nbytes: int, wire: str):
        """The array of the region starting here, if one does, after
        checking it is the ``nbytes`` of ``wire`` its header announced."""
        if self._pos != self._stop or self._next == len(self._regions):
            return None
        region = self._regions[self._next]
        if (region.nbytes, region.wire) != (nbytes, wire):
            raise XdrError(
                f"bulk region at offset {region.offset} holds "
                f"{region.nbytes} bytes of {region.wire}, its array header "
                f"says {nbytes} of {wire}")
        self._advance_to(self._pos + nbytes, nbytes, 1)
        return region.array

    def _window(self, n: int) -> bulk.Payload:
        """The next ``n`` bytes as a payload of their own, taking the
        regions inside them along; one that straddles the end is an
        error."""
        start, end = self._pos, self._pos + n
        if n > MAX_REASONABLE_LENGTH or end > self._length:
            raise self._overrun(n)
        inside = []
        for region in self._regions[self._next:]:
            if region.offset >= end:
                break
            if region.offset + region.nbytes > end:
                raise XdrError(f"bulk region at offset {region.offset} "
                               f"runs past an opaque ending at {end}")
            inside.append(region._replace(offset=region.offset - start))
        skipped = sum(region.nbytes for region in inside)
        at = start - self._skipped
        rest = self._data[at : at + n - skipped]
        self._advance_to(end, skipped, len(inside))
        return bulk.Payload(rest, inside, n, received=True)

    def _take_padded(self, n: int) -> memoryview:
        """The ``n`` (>= 0) bytes of a variable-length opaque and their
        XDR padding, in one window; the padding must be zeros."""
        pad = -n % 4
        view = self._take(n + pad)
        if not pad:
            return view
        if view[n:] != _ZERO_PADS[pad]:
            raise XdrError(f"nonzero XDR padding {bytes(view[n:])!r}")
        return view[:n]

    def _skip_pad(self, n: int) -> None:
        pad = (4 - n % 4) % 4
        if pad:
            padding = bytes(self._take(pad))
            if padding != b"\x00" * pad:
                raise XdrError(f"nonzero XDR padding {padding!r}")

    def unpack_fixed(self, layout: struct.Struct) -> tuple:
        """A run of fixed-width fields through one precompiled big-endian
        ``struct.Struct`` (inverse of :meth:`XdrEncoder.pack_fixed`)."""
        return layout.unpack(self._take(layout.size))

    # -- integral types ------------------------------------------------------------

    def unpack_int(self) -> int:
        """Signed 32-bit integer."""
        return struct.unpack(">i", self._take(4))[0]

    def unpack_uint(self) -> int:
        """Unsigned 32-bit integer."""
        return struct.unpack(">I", self._take(4))[0]

    def unpack_hyper(self) -> int:
        """Signed 64-bit integer."""
        return struct.unpack(">q", self._take(8))[0]

    def unpack_uhyper(self) -> int:
        """Unsigned 64-bit integer."""
        return struct.unpack(">Q", self._take(8))[0]

    def unpack_bool(self) -> bool:
        """Boolean (strict 0/1)."""
        value = self.unpack_int()
        if value not in (0, 1):
            raise XdrError(f"invalid XDR bool {value}")
        return bool(value)

    def unpack_enum(self) -> int:
        """Enumeration (same wire form as int)."""
        return self.unpack_int()

    # -- floating point ---------------------------------------------------------------

    def unpack_float(self) -> float:
        """IEEE-754 single precision."""
        return struct.unpack(">f", self._take(4))[0]

    def unpack_double(self) -> float:
        """IEEE-754 double precision."""
        return struct.unpack(">d", self._take(8))[0]

    # -- opaque and string ---------------------------------------------------------------

    def unpack_fopaque(self, n: int) -> bytes:
        """Fixed-length opaque of exactly ``n`` bytes."""
        data = bytes(self._take(n))
        self._skip_pad(n)
        return data

    def unpack_opaque(self) -> bytes:
        """Variable-length opaque (length word + bytes)."""
        (n,) = _LENGTH.unpack(self._take(4))
        return bytes(self._take_padded(n))

    def unpack_opaque_view(self) -> Union[memoryview, bulk.Payload]:
        """Variable-length opaque as a zero-copy window.

        Same wire position advance as :meth:`unpack_opaque`, but the
        body comes back as a ``memoryview`` into the source buffer --
        nothing is copied.  The view is only valid while the source
        buffer is alive; callers that keep the payload past the frame's
        lifetime must ``bytes()`` it themselves.  This is the seam the
        CALL/RESULT paths use to unmarshal nested argument blocks
        in place.  An opaque holding bulk regions comes back as a
        :class:`~repro.xdr.bulk.Payload` window that holds them.
        """
        n = self.unpack_uint()
        if self._pos + n <= self._stop:
            view = self._take(n)
        else:   # a region inside, or too few bytes: _window tells which
            view = self._window(n)
        self._skip_pad(n)
        return view

    def unpack_string(self) -> str:
        """UTF-8 string as variable opaque."""
        (n,) = _LENGTH.unpack(self._take(4))
        try:
            return str(self._take_padded(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise XdrError(f"invalid UTF-8 in XDR string: {exc}") from exc

    # -- arrays ----------------------------------------------------------------------

    def unpack_farray(self, n: int, unpack_item: Callable) -> list:
        """Fixed-length array of ``n`` elements."""
        return [unpack_item() for _ in range(n)]

    def unpack_array(self, unpack_item: Callable) -> list:
        """Variable-length array (length word + elements)."""
        n = self.unpack_uint()
        if n > MAX_REASONABLE_LENGTH:
            raise XdrError(f"implausible array length {n}")
        return self.unpack_farray(n, unpack_item)

    # -- bulk fast paths ------------------------------------------------------------------

    def unpack_ndarray(self):
        """Inverse of :meth:`XdrEncoder.pack_ndarray`."""
        ndim = self.unpack_uint()
        if ndim > 32:
            raise XdrError(f"implausible ndarray rank {ndim}")
        shape = tuple(self.unpack_uint() for _ in range(ndim))
        wire = self.unpack_string()
        native = _WIRE_TO_NATIVE.get(wire)
        if native is None:
            raise XdrError(f"unknown ndarray wire dtype {wire!r}")
        nbytes = self.unpack_uint()
        expected = int(np.prod(shape, dtype=np.int64)) * np.dtype(wire).itemsize
        if nbytes != expected:
            raise XdrError(
                f"ndarray payload size mismatch: header says {nbytes}, "
                f"shape {shape} of {wire} needs {expected}"
            )
        array = self._take_region(nbytes, wire)
        if array is None:
            array = bulk.unpack_array(self._take(nbytes), wire, native)
        self._skip_pad(nbytes)
        return array.reshape(shape)

    def unpack_double_array(self):
        """Variable array of doubles via the bulk vectorized path, as
        ``np.ndarray[float64]``."""
        n = self.unpack_uint()
        payload = self._take(8 * n)
        return bulk.unpack_doubles(payload, n)

    def unpack_int_array(self):
        """Variable array of 32-bit ints via the bulk vectorized path."""
        n = self.unpack_uint()
        payload = self._take(4 * n)
        return bulk.unpack_ints(payload, n)
