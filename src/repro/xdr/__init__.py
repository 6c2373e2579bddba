"""Sun XDR (RFC 4506) external data representation, from scratch.

Ninf RPC ships all arguments as XDR on TCP/IP ("The underlying transfer
protocol is Sun XDR on TCP/IP, allowing easy porting on most major
supercomputer platforms").  This package implements the XDR primitives
the Ninf protocol needs, plus bulk fast paths so that marshalling a
dense matrix is a single byteswap-and-copy rather than a Python loop --
the paper's Fig 5 result (XDR overhead does not significantly affect
throughput) only holds if marshalling is near memcpy speed.

- :class:`XdrEncoder` / :class:`XdrDecoder`: streaming pack/unpack of
  int, unsigned, hyper, bool, enum, float, double, string, opaque
  (fixed and variable), arrays, and NumPy arrays/matrices.  The encoder
  accumulates into one growing ``bytearray`` exposed zero-copy via
  ``getbuffer()``; the decoder walks a ``memoryview`` and never copies
  until a value is materialised.
- :mod:`repro.xdr.bulk`: the vectorized engine behind the array paths.
- :mod:`repro.xdr.record`: records declared once as a field list (RFC
  4506 struct / counted list / optional), from which the encoder and
  the decoder of every control message are derived.
- :exc:`XdrError`: malformed or truncated data.

Bulk arrays have one engine, NumPy (a hard dependency): each array is
byteswapped-and-copied in one fused pass directly into / out of the
frame buffer, and decodes to an ``ndarray``.  The property tests
(``tests/xdr/test_bulk.py``) hold it to byte equality with the
scalar-loop oracle (PROTOCOL.md §"XDR encoding rules").
"""

from repro.xdr.encoder import XdrEncoder
from repro.xdr.decoder import XdrDecoder
from repro.xdr.errors import XdrError
from repro.xdr import bulk

__all__ = ["XdrDecoder", "XdrEncoder", "XdrError", "bulk"]
