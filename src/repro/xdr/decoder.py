"""XDR decoding (RFC 4506) with strict bounds and padding checks.

The decoder never copies while it walks: it holds one ``memoryview``
over the incoming frame and slices windows out of it (:meth:`_take`),
so a bulk array decode touches the payload bytes exactly once -- in the
vectorized byteswap that builds the final native-order container (see
:mod:`repro.xdr.bulk`).  :meth:`XdrDecoder.unpack_opaque_view` extends
the same property to nested payloads: a CALL body can be unmarshalled
straight out of the enclosing frame without materialising an
intermediate ``bytes``.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.xdr import bulk
from repro.xdr.encoder import NUMPY_WIRE_DTYPES
from repro.xdr.errors import XdrError

try:  # optional at the XDR layer; required only for rank-N ndarrays
    import numpy as np
except ImportError:  # pragma: no cover - exercised via bulk.FORCE_STDLIB
    np = None

__all__ = ["XdrDecoder"]

_WIRE_TO_NATIVE = {wire: dtype for dtype, wire in NUMPY_WIRE_DTYPES.items()}

# Reject absurd length words before allocating (protocol sanity limit).
MAX_REASONABLE_LENGTH = 1 << 33


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
        self._data = memoryview(data)
        self._pos = 0

    # -- plumbing ---------------------------------------------------------------

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def done(self) -> None:
        """Assert the buffer is fully consumed (trailing bytes = protocol bug)."""
        if self._pos != len(self._data):
            raise XdrError(
                f"unconsumed XDR data: {len(self._data) - self._pos} bytes left"
            )

    def _take(self, n: int) -> memoryview:
        if n < 0 or n > MAX_REASONABLE_LENGTH:
            raise XdrError(f"implausible XDR length {n}")
        if self._pos + n > len(self._data):
            raise XdrError(
                f"truncated XDR data: need {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        view = self._data[self._pos : self._pos + n]
        self._pos += n
        return view

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
        n = self.unpack_uint()
        return self.unpack_fopaque(n)

    def unpack_opaque_view(self) -> memoryview:
        """Variable-length opaque as a zero-copy window.

        Same wire position advance as :meth:`unpack_opaque`, but the
        body comes back as a ``memoryview`` into the source buffer --
        nothing is copied.  The view is only valid while the source
        buffer is alive; callers that keep the payload past the frame's
        lifetime must ``bytes()`` it themselves.  This is the seam the
        CALL/RESULT paths use to unmarshal nested argument blocks
        in place.
        """
        n = self.unpack_uint()
        view = self._take(n)
        self._skip_pad(n)
        return view

    def unpack_string(self) -> str:
        """UTF-8 string as variable opaque."""
        raw = self.unpack_opaque()
        try:
            return raw.decode("utf-8")
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
        """Inverse of :meth:`XdrEncoder.pack_ndarray`.  NumPy only --
        the stdlib fallback covers just the 1-D bulk paths."""
        if np is None:  # pragma: no cover - stdlib-only environments
            raise XdrError("ndarray unpacking requires numpy "
                           "(stdlib fallback covers 1-D bulk arrays only)")
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
        payload = self._take(nbytes)
        self._skip_pad(nbytes)
        arr = np.frombuffer(payload, dtype=wire).reshape(shape)
        return arr.astype(native, copy=True)

    def unpack_double_array(self):
        """Variable array of doubles via the bulk vectorized path.

        ``np.ndarray[float64]`` on the NumPy engine, ``array.array('d')``
        on the stdlib fallback (same values, same indexing protocol).
        """
        n = self.unpack_uint()
        payload = self._take(8 * n)
        return bulk.unpack_doubles(payload, n)

    def unpack_int_array(self):
        """Variable array of 32-bit ints via the bulk vectorized path."""
        n = self.unpack_uint()
        payload = self._take(4 * n)
        return bulk.unpack_ints(payload, n)
