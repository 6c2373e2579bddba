"""Property tests derived from the wire declarations.

One hypothesis strategy per field *type* (not per message): the
strategy of an op is assembled from its declaration, so a message added
to ``WIRE`` is covered the day it is declared.  Two properties, for
every op:

- what ``pack`` writes, ``unpack`` reads back, equal;
- a decoder fed a strict prefix or a byte-mutated payload either
  decodes it or raises ``XdrError`` / ``ProtocolError`` -- nothing else
  (the north star's "garbage raises ProtocolError and nothing else").
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idl.signature import ARG_SPEC, DTYPE_SIZES, ArgSpec
from repro.protocol.errors import ProtocolError
from repro.protocol.messages import WIRE, MessageType, pack, unpack
from repro.xdr import XdrDecoder, XdrEncoder, XdrError
from repro.xdr.record import Array, Option, Struct, body, opaque, string

#: Scalars by ``struct`` code; a checked scalar is looked up by its
#: declaration first (``bool``, the ranged ``double``).
SCALARS = {
    "i": st.integers(-2**31, 2**31 - 1),
    "I": st.integers(0, 2**32 - 1),
    "q": st.integers(-2**63, 2**63 - 1),
    "Q": st.integers(0, 2**64 - 1),
    "f": st.floats(width=32, allow_nan=False),
    "d": st.floats(allow_nan=False),
    "bool x": st.booleans(),
    "double x (finite, > 0)": st.floats(min_value=0.0, exclude_min=True,
                                        allow_infinity=False),
}
LEAVES = {string: st.text(max_size=8), opaque: st.binary(max_size=9),
          body: st.binary(max_size=9)}
#: A record whose class validates more than its field types do gets a
#: strategy that satisfies the class (``Signature`` checks dtypes and
#: that dimension expressions name scalar inputs).
RECORDS = {ARG_SPEC: st.builds(
    ArgSpec, mode=st.sampled_from(["mode_in", "mode_out", "mode_inout"]),
    dtype=st.sampled_from(sorted(DTYPE_SIZES)), name=st.text(max_size=4),
    dims=st.just(()))}


def values_of(wire_type):
    """The strategy for one declared type."""
    if wire_type in RECORDS:
        return RECORDS[wire_type]
    if wire_type.code:
        return SCALARS.get(wire_type.declare("x"), SCALARS[wire_type.code])
    if isinstance(wire_type, Array):
        return st.lists(values_of(wire_type.item),
                        max_size=min(3, wire_type.limit)).map(tuple)
    if isinstance(wire_type, Option):
        return st.none() | values_of(wire_type.item)
    if isinstance(wire_type, Struct):
        fields = st.tuples(*(values_of(f.type) for f in wire_type.fields))
        if wire_type.make is None:
            return fields
        names = [f.name for f in wire_type.fields]
        return fields.map(lambda v: wire_type.make(**dict(zip(names, v))))
    return LEAVES[wire_type]


OPS = pytest.mark.parametrize("op", list(MessageType), ids=lambda op: op.name)


@OPS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_every_op_round_trips(op, data):
    values = data.draw(values_of(WIRE[op]))
    assert unpack(op, pack(op, *values)) == values


@OPS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_damaged_payloads_decode_or_raise_the_declared_errors(op, data):
    payload = bytearray(pack(op, *data.draw(values_of(WIRE[op]))))
    if payload and data.draw(st.booleans()):
        del payload[data.draw(st.integers(0, len(payload) - 1)):]
    for _ in range(data.draw(st.integers(0, 3)) if payload else 0):
        payload[data.draw(st.integers(0, len(payload) - 1))] = \
            data.draw(st.integers(0, 255))
    try:
        unpack(op, payload)
    except (XdrError, ProtocolError):
        pass


def reachable(wire_type):
    """A declared type and every type declared inside it."""
    yield wire_type
    inner = [f.type for f in wire_type.fields] \
        if isinstance(wire_type, Struct) \
        else [wire_type.item] if isinstance(wire_type, (Array, Option)) else []
    for child in inner:
        yield from reachable(child)


ARRAYS = {id(t): t for declaration in WIRE.values()
          for t in reachable(declaration) if isinstance(t, Array)}


def test_the_covered_lists_are_all_counted_lists():
    assert sorted(a.declare("x") for a in ARRAYS.values()) == [
        "ArgSpec x<4096>", "DirectoryDelta x<4096>", "ServerInfo x<4096>",
        "string x<32>", "string x<4096>", "string x<4096>",
        "{string host, uint port, string site, double bandwidth "
        "(finite, > 0)} x<64>", "{string host, uint port} x<64>"]


@pytest.mark.parametrize("array", ARRAYS.values(),
                         ids=lambda array: array.declare("list"))
def test_every_counted_list_refuses_a_count_past_its_cap_undecoded(array):
    """The count word alone, one past the cap, nothing behind it: the
    refusal names the cap, not the missing elements."""
    enc = XdrEncoder()
    enc.pack_uint(array.limit + 1)
    with pytest.raises(XdrError, match=f"at most {array.limit} allowed"):
        array.unpack(XdrDecoder(enc.getvalue()))
    with pytest.raises(XdrError, match=f"at most {array.limit} allowed"):
        array.pack(XdrEncoder(), [None] * (array.limit + 1))
