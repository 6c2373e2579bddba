"""Bulk (vectorized) XDR vs the scalar-loop oracle (hypothesis).

The bulk paths in :mod:`repro.xdr.bulk` promise *byte-identical* wire
data to the per-element ``struct`` loops they replaced -- for every
payload including NaN/inf (which must survive bit-exactly), empty
arrays, and odd lengths; whether the values arrive in a NumPy array or
a stdlib container; and for the arrays a big-endian host holds
natively.  PROTOCOL.md §"Bulk arrays" cites this file as the
enforcement of that equivalence.
"""

import array
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.xdr import XdrDecoder, XdrEncoder, XdrError
from repro.xdr import bulk

#: Where the values (or, decoding, the wire bytes) come from: a NumPy
#: array, or a stdlib container -- ``array.array`` / ``list`` / ``bytes``.
SOURCES = ["numpy", "stdlib"]

# NaN with a payload: the bit pattern must survive the trip untouched.
PAYLOAD_NAN = struct.unpack(">d", bytes.fromhex("7ff8deadbeef0001"))[0]

doubles = st.lists(
    st.floats(width=64, allow_nan=True, allow_infinity=True), max_size=65)
ints = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=65)


def as_doubles(source, values):
    if source == "numpy":
        return np.array(values, dtype=np.float64)
    return array.array("d", values)


def as_ints(source, values):
    return np.array(values, dtype=np.int64) if source == "numpy" else values


def as_wire(source, wire: bytes):
    return np.frombuffer(wire, dtype=np.uint8) if source == "numpy" else wire


def bits(values) -> bytes:
    """Bit patterns of a float sequence (NaN-payload-exact equality)."""
    return b"".join(struct.pack(">d", float(v)) for v in values)


# -- encode: bulk == scalar oracle, byte for byte --------------------------


@pytest.mark.parametrize("source", SOURCES)
@given(values=doubles)
@example(values=[])
@example(values=[math.nan, math.inf, -math.inf, -0.0])
@example(values=[PAYLOAD_NAN])
@example(values=[1.0, 2.0, 3.0])  # odd length
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_pack_doubles_matches_scalar_oracle(source, values):
    # bulk writes in place into room the caller reserved
    buf = bytearray(b"prefix--") + bytearray(8 * len(values))
    nbytes = bulk.pack_doubles_into(buf, 8, as_doubles(source, values))
    assert nbytes == 8 * len(values)
    assert bytes(buf[:8]) == b"prefix--"
    assert bytes(buf[8:]) == bulk.scalar_pack_doubles(values)


@pytest.mark.parametrize("source", SOURCES)
@given(values=ints)
@example(values=[])
@example(values=[-(2**31), 2**31 - 1, 0])
@example(values=[1, 2, 3, 4, 5])  # odd length
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_pack_ints_matches_scalar_oracle(source, values):
    buf = bytearray(4 * len(values))
    nbytes = bulk.pack_ints_into(buf, 0, as_ints(source, values))
    assert nbytes == 4 * len(values)
    assert bytes(buf) == bulk.scalar_pack_ints(values)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("bad", [2**31, -(2**31) - 1])
def test_pack_ints_range_check(source, bad):
    with pytest.raises(XdrError):
        bulk.pack_ints_into(bytearray(12), 0, as_ints(source, [0, bad, 1]))


# -- decode: bulk(scalar wire) == original, bit for bit --------------------


@pytest.mark.parametrize("source", SOURCES)
@given(values=doubles)
@example(values=[math.nan, math.inf, PAYLOAD_NAN])
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_unpack_doubles_roundtrip_bit_exact(source, values):
    wire = bulk.scalar_pack_doubles(values)
    decoded = bulk.unpack_doubles(as_wire(source, wire), len(values))
    assert decoded.dtype == np.float64
    assert bits(decoded) == bits(values)
    assert bits(bulk.scalar_unpack_doubles(wire, len(values))) == bits(values)


@pytest.mark.parametrize("source", SOURCES)
@given(values=ints)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_unpack_ints_roundtrip(source, values):
    wire = bulk.scalar_pack_ints(values)
    decoded = bulk.unpack_ints(as_wire(source, wire), len(values))
    assert decoded.dtype == np.int32
    assert list(decoded) == values
    assert bulk.scalar_unpack_ints(wire, len(values)) == values


@pytest.mark.parametrize("source", SOURCES)
def test_unpack_length_mismatch_raises(source):
    with pytest.raises(XdrError):
        bulk.unpack_doubles(as_wire(source, b"\x00" * 12), 2)  # need 16
    with pytest.raises(XdrError):
        bulk.unpack_ints(as_wire(source, b"\x00" * 6), 2)


# -- a big-endian host's native arrays ---------------------------------------
# The wire dtypes (``>f8``, ``>i4``) name their byte order, so the host's
# never enters; arrays already in big-endian order -- what a big-endian
# host holds natively -- go out as their own bytes.


@given(values=doubles)
@example(values=[PAYLOAD_NAN, 1.5])
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_big_endian_host_skips_the_swap(values):
    native = np.array(values, dtype=">f8")
    buf = bytearray(8 * len(values))
    bulk.pack_doubles_into(buf, 0, native)
    assert bytes(buf) == native.tobytes() == bulk.scalar_pack_doubles(values)
    assert bits(bulk.unpack_doubles(bytes(buf), len(values))) == bits(values)


@given(values=ints)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_big_endian_host_roundtrip_ints(values):
    native = np.array(values, dtype=">i4")
    buf = bytearray(4 * len(values))
    bulk.pack_ints_into(buf, 0, native)
    assert bytes(buf) == native.tobytes()
    assert list(bulk.unpack_ints(bytes(buf), len(values))) == values


# -- the encoder/decoder fast paths ride the same engine -------------------


@pytest.mark.parametrize("source", SOURCES)
@given(values=doubles)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_encoder_double_array_wire_format(source, values):
    """``pack_double_array`` is XDR variable-array: uint count + bulk
    payload -- and decodes back bit-exactly through the bulk path."""
    enc = XdrEncoder()
    enc.pack_double_array(as_doubles(source, values))
    wire = enc.getvalue()
    expected = struct.pack(">I", len(values)) + \
        bulk.scalar_pack_doubles(values)
    assert wire == expected
    dec = XdrDecoder(wire)
    decoded = dec.unpack_double_array()
    dec.done()
    assert bits(decoded) == bits(values)


@pytest.mark.parametrize("source", SOURCES)
@given(values=ints)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_encoder_int_array_wire_format(source, values):
    enc = XdrEncoder()
    enc.pack_int_array(as_ints(source, values))
    wire = enc.getvalue()
    assert wire == struct.pack(">I", len(values)) + \
        bulk.scalar_pack_ints(values)
    dec = XdrDecoder(wire)
    assert list(dec.unpack_int_array()) == values
    dec.done()
