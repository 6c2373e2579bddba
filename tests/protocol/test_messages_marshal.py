"""Tests for protocol messages, framing, and signature-driven marshalling."""

import socket
import threading

import numpy as np
import pytest

from repro.idl import IdlError, Signature
from repro.protocol import (
    ConnectionClosed,
    ProtocolError,
    marshal_inputs,
    marshal_outputs,
    recv_frame,
    send_frame,
    unmarshal_inputs,
    unmarshal_outputs,
)
from repro.protocol.messages import (
    CALL_HEADER,
    ERROR_REPLY,
    JOB_TIMESTAMPS,
    LOAD_REPLY,
    SERVER_INFO,
    CallHeader,
    ErrorReply,
    JobTimestamps,
    LoadReply,
    MessageType,
    ServerInfo,
)
from repro.xdr import XdrDecoder, XdrEncoder

DMMUL = Signature.from_idl(
    "Define dmmul(mode_in int n, mode_in double A[n][n], "
    'mode_in double B[n][n], mode_out double C[n][n]) Calls "C" mmul(n,A,B,C);'
)

LINPACK = Signature.from_idl(
    "Define linpack(mode_in int n, mode_inout double A[n][n], "
    'mode_inout double b[n]) Calls "C" solve(n,A,b);'
)

SCALARS = Signature.from_idl(
    "Define stats(mode_in long count, mode_in string label, "
    "mode_out double mean, mode_out double stdev);"
)


# --------------------------------------------------------------- messages


RECORDS = {record.make: record for record in (
    CALL_HEADER, ERROR_REPLY, JOB_TIMESTAMPS, LOAD_REPLY, SERVER_INFO)}


def roundtrip_message(msg):
    """Through the record's one declaration, both directions."""
    enc = XdrEncoder()
    RECORDS[type(msg)].pack(enc, msg)
    dec = XdrDecoder(enc.getvalue())
    out = RECORDS[type(msg)].unpack(dec)
    dec.done()
    return out


def test_call_header_roundtrip():
    header = CallHeader(function="dmmul", call_id=123456789)
    assert roundtrip_message(header) == header


def test_job_timestamps_roundtrip_and_derived():
    ts = JobTimestamps(enqueue=1.0, dequeue=1.5, complete=4.0)
    assert roundtrip_message(ts) == ts
    assert ts.wait == pytest.approx(0.5)
    assert ts.service == pytest.approx(2.5)


def test_error_reply_roundtrip():
    err = ErrorReply(code="no-such-function", message="nope")
    assert roundtrip_message(err) == err


def test_load_reply_roundtrip():
    load = LoadReply(num_pes=4, running=2, queued=7, load_average=3.25,
                     completed=100)
    assert roundtrip_message(load) == load


def test_server_info_roundtrip():
    info = ServerInfo(name="j90", host="10.0.0.1", port=9999, num_pes=4,
                      functions=("linpack", "ep"))
    assert roundtrip_message(info) == info


def test_message_type_values_stable():
    assert MessageType.CALL == 5
    assert MessageType.RESULT == 6
    assert MessageType.MS_REGISTER == 20


# ----------------------------------------------------------------- framing


def socket_pair():
    return socket.socketpair()


def test_frame_roundtrip():
    a, b = socket_pair()
    try:
        send_frame(a, MessageType.PING, b"payload")
        msg_type, payload = recv_frame(b)
        assert msg_type == MessageType.PING
        assert payload == b"payload"
    finally:
        a.close()
        b.close()


def test_frame_empty_payload():
    a, b = socket_pair()
    try:
        send_frame(a, MessageType.LIST_REQUEST)
        msg_type, payload = recv_frame(b)
        assert msg_type == MessageType.LIST_REQUEST
        assert payload == b""
    finally:
        a.close()
        b.close()


def test_frame_large_payload_chunked():
    a, b = socket_pair()
    data = bytes(range(256)) * 4096  # 1 MiB
    try:
        sender = threading.Thread(target=send_frame,
                                  args=(a, MessageType.CALL, data))
        sender.start()
        msg_type, payload = recv_frame(b)
        sender.join()
        assert payload == data
    finally:
        a.close()
        b.close()


def test_frame_bad_magic_raises():
    a, b = socket_pair()
    try:
        a.sendall(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_eof_raises_connection_closed():
    a, b = socket_pair()
    a.close()
    try:
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
    finally:
        b.close()


def test_frame_truncated_mid_payload():
    a, b = socket_pair()
    try:
        import struct

        # Header and an empty region table, then 5 of 100 payload bytes.
        a.sendall(struct.pack(">4sIIII", b"NINF", 1, 100, 0, 0) + b"short")
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
    finally:
        b.close()


# ------------------------------------------------------------- marshalling


def test_marshal_unmarshal_inputs_dmmul():
    n = 3
    a = np.arange(9, dtype=np.float64).reshape(3, 3)
    b = np.eye(3)
    payload = marshal_inputs(DMMUL, [n, a, b, None])
    values = unmarshal_inputs(DMMUL, payload)
    assert values[0] == 3
    np.testing.assert_array_equal(values[1], a)
    np.testing.assert_array_equal(values[2], b)
    # mode_out buffer preallocated with the inferred shape.
    assert values[3].shape == (3, 3)
    assert np.all(values[3] == 0)


def test_marshal_outputs_roundtrip():
    c = np.full((3, 3), 7.0)
    payload = marshal_outputs(DMMUL, [3, None, None, c])
    outputs = unmarshal_outputs(DMMUL, payload)
    assert len(outputs) == 1
    np.testing.assert_array_equal(outputs[0], c)


def test_inout_marshalled_both_ways():
    n = 4
    a = np.random.default_rng(0).standard_normal((n, n))
    b = np.ones(n)
    in_payload = marshal_inputs(LINPACK, [n, a, b])
    values = unmarshal_inputs(LINPACK, in_payload)
    np.testing.assert_array_equal(values[1], a)
    out_payload = marshal_outputs(LINPACK, values)
    outputs = unmarshal_outputs(LINPACK, out_payload)
    assert len(outputs) == 2  # A and b both come back


def test_scalar_outputs_marshalled():
    payload = marshal_inputs(SCALARS, [10, "sample", None, None])
    values = unmarshal_inputs(SCALARS, payload)
    assert values[0] == 10
    assert values[1] == "sample"
    assert values[2] is None and values[3] is None
    out = marshal_outputs(SCALARS, [10, "sample", 1.5, 0.25])
    assert unmarshal_outputs(SCALARS, out) == [1.5, 0.25]


def test_marshal_outputs_missing_scalar_raises():
    with pytest.raises(IdlError):
        marshal_outputs(SCALARS, [10, "sample", None, 0.25])


def test_unmarshal_wire_shape_mismatch_rejected():
    # Marshal with n=3 but claim n=2: the wire array no longer matches.
    n = 3
    a = np.zeros((n, n))
    payload = marshal_inputs(DMMUL, [n, a, a, None])
    # Build a payload with inconsistent scalar (n=2) + 3x3 arrays.
    enc = XdrEncoder()
    enc.pack_int(2)
    from repro.xdr import XdrEncoder as E

    e2 = E()
    e2.pack_ndarray(a)
    bad = enc.getvalue() + e2.getvalue() + e2.getvalue()
    with pytest.raises(IdlError, match="shape"):
        unmarshal_inputs(DMMUL, bad)


def test_marshal_complex_scalars():
    sig = Signature.from_idl(
        "Define cplx(mode_in dcomplex z, mode_out dcomplex w);"
    )
    payload = marshal_inputs(sig, [1 + 2j, None])
    values = unmarshal_inputs(sig, payload)
    assert values[0] == 1 + 2j
    out = marshal_outputs(sig, [1 + 2j, 3 - 4j])
    assert unmarshal_outputs(sig, out) == [3 - 4j]


def test_marshal_inputs_validates_via_bind():
    with pytest.raises(IdlError):
        marshal_inputs(DMMUL, [3, np.zeros((2, 2)), np.zeros((3, 3)), None])
