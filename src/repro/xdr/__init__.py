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

Fast-path engine selection (see PROTOCOL.md §"XDR encoding rules"):

1. **NumPy** when ``import numpy`` succeeds and ``NINF_XDR_STDLIB`` is
   unset -- bulk arrays are byteswapped-and-copied in one fused pass
   directly into / out of the frame buffer, and rank-N ``ndarray``
   packing (``pack_ndarray``/``unpack_ndarray``) is available.
2. **Pure stdlib** otherwise (NumPy missing, or ``NINF_XDR_STDLIB=1``
   in the environment, or ``repro.xdr.bulk.FORCE_STDLIB`` flipped at
   runtime) -- 1-D double/int bulk arrays still run vectorized through
   :mod:`array` ``byteswap()``; decoded bulk arrays come back as
   :class:`array.array` instead of ``ndarray``; rank-N ndarray packing
   raises :exc:`XdrError`.

Both engines emit byte-identical wire data -- negotiation is purely
local, never visible to the peer, and the property tests
(``tests/xdr/test_bulk.py``) hold the two engines and the scalar-loop
oracle to byte equality.
"""

from repro.xdr.encoder import XdrEncoder
from repro.xdr.decoder import XdrDecoder
from repro.xdr.errors import XdrError
from repro.xdr import bulk

__all__ = ["XdrDecoder", "XdrEncoder", "XdrError", "bulk"]
