"""Golden wire vectors: the derived codec against the hand-written one.

Each hex literal below was recorded from the *hand-written* encoder of
its op at the last commit that had one (PR 23, ``1db2e00``): a
dataclass ``encode`` in ``protocol/messages.py`` or the inline
``enc.pack_*`` chain at the op's sender.  The declarations that
replaced them must reproduce every byte and decode it back.  A vector
changes only together with ``PROTOCOL_VERSION``: version 4 changed the
frame around every payload (its region table) and no payload, so only
``HELLO_REPLY``, which carries the version, moved.
"""

import struct

import pytest

from repro.idl import Signature
from repro.protocol.messages import (
    CALL_HEADER,
    WIRE,
    BusyReply,
    CallHeader,
    DirectoryDelta,
    ErrorReply,
    JobTimestamps,
    LoadReply,
    LoadReport,
    MessageType,
    PickRequest,
    PROTOCOL_VERSION,
    ServerInfo,
    SyncMessage,
    pack,
    unpack,
)
from repro.xdr import XdrEncoder

INFO = ServerInfo(name="j90", host="10.0.0.1", port=5656, num_pes=4,
                  functions=("linpack", "ep"))
LOAD = LoadReply(num_pes=4, running=2, queued=7, load_average=3.25,
                 completed=100)
HEADER = CallHeader(function="dmmul", call_id=123456789,
                    logical_id="0123456789abcdef0123456789abcdef",
                    attempt=2, budget=1.5)
STAMPS = JobTimestamps(enqueue=1.0, dequeue=1.5, complete=4.0)
SIG = Signature.from_idl(
    "Define linpack(mode_in int n, mode_inout double A[n][n], "
    'mode_inout double b[n]) "LU factorize + solve" '
    'CalcOrder "2*n*n*n/3 + 2*n*n" CommOrder "8*n*n + 20*n" '
    'Calls "C" linpack_solve(n, A, b);')
UNSIGNED = LoadReport(info=INFO, load=LOAD, seq=(7 << 20) | 3, lease=4.0)
REPORT = LoadReport(info=INFO, load=LOAD, seq=(7 << 20) | 3, lease=4.0,
                    signature=bytes(range(32)))
SYNC = SyncMessage(origin="meta-a", deltas=(
    DirectoryDelta(info=INFO, seq=9, lease_remaining=2.5, alive=True,
                   load=LOAD),
    DirectoryDelta(info=INFO, seq=10, lease_remaining=-1.0, alive=False)))
OBSERVATION = ("10.0.0.2", 5657, "site-a", 1.25e8)
PICK = PickRequest("linpack", 2880000.0, 1.44e8, "site-a",
                   (("10.0.0.1", 5656),), (OBSERVATION,))
ARGS = bytes(range(1, 11))        # 10 bytes: the opaque tail gets padding

#: op -> the values handed to ``pack`` (and expected back from ``unpack``).
VALUES = {
    "HELLO": (),
    "HELLO_REPLY": (PROTOCOL_VERSION, "j90"),
    "INTERFACE_REQUEST": ("dmmul",),
    "INTERFACE_REPLY": (SIG,),
    "CALL": (HEADER, ARGS),
    "RESULT": (123456789, STAMPS, ARGS),
    "ERROR": (ErrorReply(code="no-such-function", message="nope"),),
    "PING": (),
    "PONG": (),
    "LIST_REQUEST": (),
    "LIST_REPLY": (("dmmul", "linpack", "ep"),),
    "LOAD_QUERY": (),
    "LOAD_REPLY": (LOAD,),
    "CALL_DETACHED": (HEADER, ARGS),
    "CALL_ACCEPTED": (123456789, 42),
    "FETCH_RESULT": (42,),
    "RESULT_PENDING": (42,),
    "CALLBACK": (123456789, 0.25, "quarter done"),
    "STATS": ("prom",),
    "MS_REGISTER": (INFO,),
    "MS_UNREGISTER": ("10.0.0.1", 5656),
    "MS_LOOKUP": ("linpack",),
    "MS_LOOKUP_REPLY": ((INFO, INFO),),
    "MS_PICK": (PICK,),
    "MS_PICK_REPLY": (INFO,),
    "MS_REPORT": OBSERVATION,
    "MS_LIST": (),
    "MS_LIST_REPLY": ((INFO, INFO),),
    "MS_OK": (),
    "STATS_REPLY": ("json", '{"a": 1}'),
    "BUSY": (BusyReply(retry_after=0.125, reason="queue-full"),),
    "CANCEL": (42,),
    "CANCEL_REPLY": (42, True),
    "SHM_HELLO": (1 << 20, 2),
    "SHM_HELLO_REPLY": ("psm_c2s", "psm_s2c", 1 << 20, 2),
    "MS_HEARTBEAT": (REPORT,),
    "MS_SYNC": (SYNC,),
    "MS_SYNC_REPLY": (SyncMessage(origin="meta-b", deltas=()),),
}

GOLDEN = {
    "HELLO": "",
    "HELLO_REPLY": "00000004000000036a393000",
    "INTERFACE_REQUEST": "00000005646d6d756c000000",
    "INTERFACE_REPLY": (
        "000000076c696e7061636b00000000144c5520666163746f72697a65202b20736f6c"
        "76650000002b282828282832202a206e29202a206e29202a206e29202f203329202b"
        "20282832202a206e29202a206e2929000000001a28282838202a206e29202a206e29"
        "202b20283230202a206e2929000000000003000000076d6f64655f696e0000000003"
        "696e7400000000016e000000000000000000000a6d6f64655f696e6f757400000000"
        "0006646f75626c650000000000014100000000000002000000016e00000000000001"
        "6e0000000000000a6d6f64655f696e6f7574000000000006646f75626c6500000000"
        "00016200000000000001000000016e000000"),
    "CALL": (
        "00000005646d6d756c00000000000000075bcd150000002030313233343536373839"
        "61626364656630313233343536373839616263646566000000023ff8000000000000"
        "0000000a0102030405060708090a0000"),
    "RESULT": (
        "00000000075bcd153ff00000000000003ff800000000000040100000000000000000"
        "000a0102030405060708090a0000"),
    "ERROR": "000000106e6f2d737563682d66756e6374696f6e000000046e6f7065",
    "PING": "",
    "PONG": "",
    "LIST_REQUEST": "",
    "LIST_REPLY": (
        "0000000300000005646d6d756c000000000000076c696e7061636b00000000026570"
        "0000"),
    "LOAD_QUERY": "",
    "LOAD_REPLY": "000000040000000200000007400a0000000000000000000000000064",
    "CALL_DETACHED": (
        "00000005646d6d756c00000000000000075bcd150000002030313233343536373839"
        "61626364656630313233343536373839616263646566000000023ff8000000000000"
        "0000000a0102030405060708090a0000"),
    "CALL_ACCEPTED": "00000000075bcd15000000000000002a",
    "FETCH_RESULT": "000000000000002a",
    "RESULT_PENDING": "000000000000002a",
    "CALLBACK": "00000000075bcd153fd00000000000000000000c7175617274657220646f6e65",
    "STATS": "0000000470726f6d",
    "MS_REGISTER": (
        "000000036a3930000000000831302e302e302e310000161800000004000000020000"
        "00076c696e7061636b000000000265700000"),
    "MS_UNREGISTER": "0000000831302e302e302e3100001618",
    "MS_LOOKUP": "000000076c696e7061636b00",
    "MS_LOOKUP_REPLY": (
        "00000002000000036a3930000000000831302e302e302e3100001618000000040000"
        "0002000000076c696e7061636b000000000265700000000000036a39300000000008"
        "31302e302e302e31000016180000000400000002000000076c696e7061636b000000"
        "000265700000"),
    "MS_PICK": (
        "000000076c696e7061636b004145f900000000000000000141a12a88000000000000"
        "0006736974652d610000000000010000000831302e302e302e310000161800000001"
        "0000000831302e302e302e320000161900000006736974652d610000419dcd650000"
        "0000"),
    "MS_PICK_REPLY": (
        "000000036a3930000000000831302e302e302e310000161800000004000000020000"
        "00076c696e7061636b000000000265700000"),
    "MS_REPORT": (
        "0000000831302e302e302e320000161900000006736974652d610000419dcd650000"
        "0000"),
    "MS_LIST": "",
    "MS_LIST_REPLY": (
        "00000002000000036a3930000000000831302e302e302e3100001618000000040000"
        "0002000000076c696e7061636b000000000265700000000000036a39300000000008"
        "31302e302e302e31000016180000000400000002000000076c696e7061636b000000"
        "000265700000"),
    "MS_OK": "",
    "STATS_REPLY": "000000046a736f6e000000087b2261223a20317d",
    "BUSY": "3fc00000000000000000000a71756575652d66756c6c0000",
    "CANCEL": "000000000000002a",
    "CANCEL_REPLY": "000000000000002a00000001",
    "SHM_HELLO": "0010000000000002",
    "SHM_HELLO_REPLY": "0000000770736d5f633273000000000770736d5f733263000010000000000002",
    "MS_HEARTBEAT": (
        "000000036a3930000000000831302e302e302e310000161800000004000000020000"
        "00076c696e7061636b000000000265700000000000040000000200000007400a0000"
        "00000000000000000000006400000000007000034010000000000000000000200001"
        "02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
    "MS_SYNC": (
        "000000066d6574612d61000000000002000000036a3930000000000831302e302e30"
        "2e31000016180000000400000002000000076c696e7061636b000000000265700000"
        "00000000000000094004000000000000000000010000000100000004000000020000"
        "0007400a0000000000000000000000000064000000036a3930000000000831302e30"
        "2e302e31000016180000000400000002000000076c696e7061636b00000000026570"
        "0000000000000000000abff00000000000000000000000000000"),
    "MS_SYNC_REPLY": "000000066d6574612d62000000000000",
}

#: Vectors that are not "one payload of one op": PickRequest as older
#: pickers send it (one trailing list, or neither), the HMAC'd part of a
#: LoadReport, and a report signed under the secret ``b"k"``.
EXTRA = {
    "MS_PICK/no-flops": (
        "00000002657000000000000000000000000000000000000764656661756c74000000"
        "000000000000"),
    "LoadReport.body_bytes": (
        "000000036a3930000000000831302e302e302e310000161800000004000000020000"
        "00076c696e7061636b000000000265700000000000040000000200000007400a0000"
        "00000000000000000000006400000000007000034010000000000000"),
    "LoadReport.signed": (
        "000000036a3930000000000831302e302e302e310000161800000004000000020000"
        "00076c696e7061636b000000000265700000000000040000000200000007400a0000"
        "00000000000000000000006400000000007000034010000000000000000000202728"
        "3f25d36f1eec56d9bc26a76076890b5e1c0b81d31017068e0ac02146dfcb"),
    "MS_PICK/one-list": (
        "00000002657000000000000000000000000000000000000764656661756c74000000"
        "0000"),
    "MS_PICK/no-lists": "00000002657000000000000000000000000000000000000764656661756c7400",
}


def test_every_message_type_has_exactly_one_declaration():
    assert set(WIRE) == set(MessageType)
    assert set(VALUES) == set(GOLDEN) == {op.name for op in MessageType}


@pytest.mark.parametrize("op", list(MessageType), ids=lambda op: op.name)
def test_derived_codec_reproduces_the_hand_written_bytes(op):
    golden = bytes.fromhex(GOLDEN[op.name])
    assert bytes(pack(op, *VALUES[op.name])) == golden
    assert unpack(op, golden) == VALUES[op.name]


@pytest.mark.parametrize("op", [MessageType.CALL, MessageType.RESULT],
                         ids=lambda op: op.name)
def test_opaque_tail_marshalled_in_place_is_the_same_bytes(op):
    """The reserve-once form (``begin_opaque`` / fill / ``end_opaque``)
    of the CALL and RESULT tail, padding included."""
    def fill(enc: XdrEncoder) -> None:
        enc.pack_fixed(struct.Struct(">10B"), *ARGS)   # unpadded, as marshal
    *head, _tail = VALUES[op.name]
    assert bytes(pack(op, *head, fill)) == bytes.fromhex(GOLDEN[op.name])


def test_pick_request_without_flops_and_from_older_pickers():
    bare = PickRequest("ep")
    both = bytes.fromhex(EXTRA["MS_PICK/no-flops"])
    assert bytes(pack(MessageType.MS_PICK, bare)) == both
    for name in ("MS_PICK/no-flops", "MS_PICK/one-list", "MS_PICK/no-lists"):
        assert unpack(MessageType.MS_PICK,
                      bytes.fromhex(EXTRA[name])) == (bare,)


def test_load_report_signs_every_field_but_the_signature():
    assert REPORT.body_bytes() == bytes.fromhex(
        EXTRA["LoadReport.body_bytes"])
    assert REPORT.body_bytes() == UNSIGNED.body_bytes()
    signed = UNSIGNED.signed(b"k")
    assert bytes(pack(MessageType.MS_HEARTBEAT, signed)) == bytes.fromhex(
        EXTRA["LoadReport.signed"])
    assert signed.verify(b"k") and not signed.verify(b"other")


def test_the_restamped_bytes_are_call_headers_trailing_fixed_run():
    """``attempt`` + ``budget``: what ``_CallPayload.stamp`` rewrites in
    place (``tests/client/test_core.py`` pins that only they change)."""
    assert CALL_HEADER.tail.format == ">Id"
    assert CALL_HEADER.tail.size == 12
