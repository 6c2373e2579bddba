"""Bulk (vectorized) XDR vs the scalar-loop oracle (hypothesis).

The bulk paths in :mod:`repro.xdr.bulk` promise *byte-identical* wire
data to the per-element ``struct`` loops they replaced -- on both
engines (NumPy and pure stdlib), for every payload including NaN/inf
(which must survive bit-exactly), empty arrays, and odd lengths, and
on simulated big-endian hosts (the ``byteorder`` injection point that
lets little-endian CI walk the no-swap branch).  PROTOCOL.md §"Bulk
arrays" cites this file as the enforcement of that equivalence.
"""

import contextlib
import math
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.xdr import XdrDecoder, XdrEncoder, XdrError
from repro.xdr import bulk

ENGINES = (["numpy", "stdlib"] if bulk.HAVE_NUMPY else ["stdlib"])

# NaN with a payload: the bit pattern must survive the trip untouched.
PAYLOAD_NAN = struct.unpack(">d", bytes.fromhex("7ff8deadbeef0001"))[0]

doubles = st.lists(
    st.floats(width=64, allow_nan=True, allow_infinity=True), max_size=65)
ints = st.lists(
    st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=65)


@contextlib.contextmanager
def engine(name):
    """Force one bulk engine for the duration of a test body.

    A context manager, not a fixture: hypothesis re-runs the test body
    many times per fixture instantiation, so state flipped in a
    function-scoped fixture would trip the function_scoped_fixture
    health check.
    """
    prev = bulk.FORCE_STDLIB
    bulk.FORCE_STDLIB = (name == "stdlib")
    try:
        yield
    finally:
        bulk.FORCE_STDLIB = prev


def bits(values) -> bytes:
    """Bit patterns of a float sequence (NaN-payload-exact equality)."""
    return b"".join(struct.pack(">d", float(v)) for v in values)


# -- encode: bulk == scalar oracle, byte for byte --------------------------


@pytest.mark.parametrize("eng", ENGINES)
@given(values=doubles)
@example(values=[])
@example(values=[math.nan, math.inf, -math.inf, -0.0])
@example(values=[PAYLOAD_NAN])
@example(values=[1.0, 2.0, 3.0])  # odd length
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_pack_doubles_matches_scalar_oracle(eng, values):
    with engine(eng):
        # bulk writes in place into room the caller reserved
        buf = bytearray(b"prefix--") + bytearray(8 * len(values))
        nbytes = bulk.pack_doubles_into(buf, 8, values)
    assert nbytes == 8 * len(values)
    assert bytes(buf[:8]) == b"prefix--"
    assert bytes(buf[8:]) == bulk.scalar_pack_doubles(values)


@pytest.mark.parametrize("eng", ENGINES)
@given(values=ints)
@example(values=[])
@example(values=[-(2**31), 2**31 - 1, 0])
@example(values=[1, 2, 3, 4, 5])  # odd length
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_pack_ints_matches_scalar_oracle(eng, values):
    with engine(eng):
        buf = bytearray(4 * len(values))
        nbytes = bulk.pack_ints_into(buf, 0, values)
    assert nbytes == 4 * len(values)
    assert bytes(buf) == bulk.scalar_pack_ints(values)


@pytest.mark.parametrize("eng", ENGINES)
@pytest.mark.parametrize("bad", [2**31, -(2**31) - 1])
def test_pack_ints_range_check(eng, bad):
    with engine(eng):
        with pytest.raises(XdrError):
            bulk.pack_ints_into(bytearray(12), 0, [0, bad, 1])


# -- decode: bulk(scalar wire) == original, bit for bit --------------------


@pytest.mark.parametrize("eng", ENGINES)
@given(values=doubles)
@example(values=[math.nan, math.inf, PAYLOAD_NAN])
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_unpack_doubles_roundtrip_bit_exact(eng, values):
    wire = bulk.scalar_pack_doubles(values)
    with engine(eng):
        decoded = bulk.unpack_doubles(wire, len(values))
    assert bits(decoded) == bits(values)
    assert bits(bulk.scalar_unpack_doubles(wire, len(values))) == bits(values)


@pytest.mark.parametrize("eng", ENGINES)
@given(values=ints)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_unpack_ints_roundtrip(eng, values):
    wire = bulk.scalar_pack_ints(values)
    with engine(eng):
        decoded = bulk.unpack_ints(wire, len(values))
    assert list(decoded) == values
    assert bulk.scalar_unpack_ints(wire, len(values)) == values


@pytest.mark.parametrize("eng", ENGINES)
def test_unpack_length_mismatch_raises(eng):
    with engine(eng):
        with pytest.raises(XdrError):
            bulk.unpack_doubles(b"\x00" * 12, 2)  # 12 bytes, need 16
        with pytest.raises(XdrError):
            bulk.unpack_ints(b"\x00" * 6, 2)


# -- the two engines are interchangeable on the wire -----------------------


@pytest.mark.skipif(not bulk.HAVE_NUMPY, reason="needs both engines")
@given(values=doubles)
@example(values=[PAYLOAD_NAN, math.inf])
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_engines_are_byte_identical(values):
    with engine("numpy"):
        np_buf = bytearray(8 * len(values))
        bulk.pack_doubles_into(np_buf, 0, values)
    with engine("stdlib"):
        std_buf = bytearray(8 * len(values))
        bulk.pack_doubles_into(std_buf, 0, values)
    assert bytes(np_buf) == bytes(std_buf)


# -- big-endian host simulation (the byteorder injection point) ------------
# Only the stdlib engine consults ``byteorder``: the NumPy engine's
# ``>f8`` dtype handles ordering unconditionally.


@given(values=doubles)
@example(values=[PAYLOAD_NAN, 1.5])
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_big_endian_host_skips_the_swap(values):
    with engine("stdlib"):
        assert not bulk.swap_needed("big")
        assert bulk.swap_needed("little")
        le_buf = bytearray(8 * len(values))
        be_buf = bytearray(8 * len(values))
        bulk.pack_doubles_into(le_buf, 0, values, byteorder="little")
        bulk.pack_doubles_into(be_buf, 0, values, byteorder="big")
        # A simulated big-endian host writes native bytes unswapped, so
        # the two buffers are each other's element-wise byteswap ...
        swapped = b"".join(bytes(be_buf[i:i + 8][::-1])
                           for i in range(0, len(be_buf), 8))
        assert bytes(le_buf) == swapped
        # ... and a same-byteorder round trip is the identity on both.
        for order, wire in (("little", le_buf), ("big", be_buf)):
            decoded = bulk.unpack_doubles(bytes(wire), len(values),
                                          byteorder=order)
            assert bits(decoded) == bits(values)


@given(values=ints)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_big_endian_host_roundtrip_ints(values):
    with engine("stdlib"):
        for order in ("little", "big"):
            buf = bytearray(4 * len(values))
            bulk.pack_ints_into(buf, 0, values, byteorder=order)
            assert list(bulk.unpack_ints(bytes(buf), len(values),
                                         byteorder=order)) == values


# -- the encoder/decoder fast paths ride the same engine -------------------


@pytest.mark.parametrize("eng", ENGINES)
@given(values=doubles)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_encoder_double_array_wire_format(eng, values):
    """``pack_double_array`` is XDR variable-array: uint count + bulk
    payload -- and decodes back bit-exactly through the bulk path."""
    with engine(eng):
        enc = XdrEncoder()
        enc.pack_double_array(values)
        wire = enc.getvalue()
        expected = struct.pack(">I", len(values)) + \
            bulk.scalar_pack_doubles(values)
        assert wire == expected
        dec = XdrDecoder(wire)
        decoded = dec.unpack_double_array()
        dec.done()
    assert bits(decoded) == bits(values)


@pytest.mark.parametrize("eng", ENGINES)
@given(values=ints)
@settings(suppress_health_check=[HealthCheck.differing_executors])
def test_encoder_int_array_wire_format(eng, values):
    with engine(eng):
        enc = XdrEncoder()
        enc.pack_int_array(values)
        wire = enc.getvalue()
        assert wire == struct.pack(">I", len(values)) + \
            bulk.scalar_pack_ints(values)
        dec = XdrDecoder(wire)
        assert list(dec.unpack_int_array()) == values
        dec.done()
