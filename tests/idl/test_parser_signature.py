"""Tests for the IDL parser and compiled signatures."""

import numpy as np
import pytest

from repro.idl import IdlError, Signature, parse_definitions
from repro.idl.signature import SIGNATURE
from repro.xdr import XdrDecoder, XdrEncoder

DMMUL_IDL = """
Define dmmul(mode_in int n, mode_in double A[n][n],
             mode_in double B[n][n], mode_out double C[n][n])
"dmmul is double precision matrix multiply"
Required "libxxx.o"
CalcOrder "2*n*n*n"
Calls "C" mmul(n, A, B, C);
"""

LINPACK_IDL = """
Define linpack(mode_in int n, mode_inout double A[n][n],
               mode_inout double b[n])
"LU factorization and backward substitution (dgefa+dgesl)"
CalcOrder "2*n*n*n/3 + 2*n*n"
Calls "C" linpack_solve(n, A, b);
"""


def wire_roundtrip(signature):
    """Through the declared wire form (the INTERFACE_REPLY payload)."""
    enc = XdrEncoder()
    SIGNATURE.pack(enc, signature)
    dec = XdrDecoder(enc.getvalue())
    again = SIGNATURE.unpack(dec)
    dec.done()
    return again


# -------------------------------------------------------------------- parser


def test_parse_dmmul_structure():
    (defn,) = parse_definitions(DMMUL_IDL)
    assert defn.name == "dmmul"
    assert [p.name for p in defn.params] == ["n", "A", "B", "C"]
    assert [p.mode for p in defn.params] == [
        "mode_in", "mode_in", "mode_in", "mode_out"
    ]
    assert defn.params[1].dtype == "double"
    assert len(defn.params[1].dims) == 2
    assert defn.description == "dmmul is double precision matrix multiply"
    assert defn.required == ["libxxx.o"]
    assert defn.calls.language == "C"
    assert defn.calls.function == "mmul"
    assert defn.calls.arguments == ("n", "A", "B", "C")
    assert defn.calc_order.evaluate({"n": 10}) == 2000


def test_parse_paper_example_with_long_prefix():
    """The paper's literal example has 'long mode_in int n'; tolerate it."""
    text = '''Define dmmul(long mode_in int n,
        mode_in double A[n][n], mode_in double B[n][n],
        mode_out double C[n][n])
        "dmmul is double precision matrix multiply",
        Required "libxxx.o"
        Calls "C" mmul(n,A,B,C);'''
    (defn,) = parse_definitions(text)
    assert defn.name == "dmmul"
    assert len(defn.params) == 4


def test_parse_multiple_definitions():
    text = DMMUL_IDL + "\n" + LINPACK_IDL
    definitions = parse_definitions(text)
    assert [d.name for d in definitions] == ["dmmul", "linpack"]


def test_parse_empty_input():
    assert parse_definitions("") == []


def test_parse_no_params():
    (defn,) = parse_definitions('Define ping() "liveness check";')
    assert defn.params == []


def test_parse_scalar_only():
    (defn,) = parse_definitions(
        'Define ep(mode_in int log2_trials, mode_out double sx, '
        'mode_out double sy) "NAS EP";'
    )
    assert [p.is_array for p in defn.params] == [False, False, False]


def test_dimension_expressions():
    (defn,) = parse_definitions(
        "Define band(mode_in int n, mode_in int k, "
        "mode_in double A[n][2*k+1], mode_out double x[n]) Calls \"C\" band(n, k, A, x);"
    )
    a = defn.params[2]
    assert a.dims[1].evaluate({"n": 5, "k": 3}) == 7


def test_missing_semicolon_tolerated_at_end():
    (defn,) = parse_definitions('Define f(mode_in int n) "x"')
    assert defn.name == "f"


def test_duplicate_param_names_rejected():
    with pytest.raises(IdlError, match="duplicate"):
        parse_definitions("Define f(mode_in int n, mode_in int n);")


def test_unbound_dimension_variable_rejected():
    with pytest.raises(IdlError, match="not bound"):
        parse_definitions("Define f(mode_in double A[m][m]);")


def test_dimension_may_not_use_output_scalar():
    with pytest.raises(IdlError):
        parse_definitions(
            "Define f(mode_out int n, mode_in double A[n]);"
        )


def test_syntax_error_reports_location():
    with pytest.raises(IdlError, match="line"):
        parse_definitions("Define f(mode_in int 42);")


def test_bad_mode_rejected():
    with pytest.raises(IdlError):
        parse_definitions("Define f(inout int n);")


def test_bad_order_expression_rejected():
    with pytest.raises(IdlError):
        parse_definitions('Define f(mode_in int n) CalcOrder "n+*2";')


def test_aliases():
    (defn,) = parse_definitions('Define f(mode_in int n) Alias "g" Alias "h";')
    assert defn.aliases == ["g", "h"]


# ----------------------------------------------------------------- signature


def test_signature_from_idl():
    sig = Signature.from_idl(DMMUL_IDL)
    assert sig.name == "dmmul"
    assert len(sig.args) == 4
    assert sig.args[3].mode == "mode_out"


def test_signature_from_idl_requires_single_define():
    with pytest.raises(IdlError):
        Signature.from_idl(DMMUL_IDL + LINPACK_IDL)


def test_signature_wire_roundtrip():
    sig = Signature.from_idl(DMMUL_IDL)
    again = wire_roundtrip(sig)
    assert again == sig
    assert again.predicted_flops({"n": 10}) == 2000


def test_signature_bind_valid_call():
    sig = Signature.from_idl(DMMUL_IDL)
    n = 4
    a = np.ones((n, n))
    b = np.ones((n, n))
    bound = sig.bind([n, a, b, None])
    assert bound.env == {"n": 4.0}
    assert bound.output_shapes == {"C": (4, 4)}
    assert bound.inputs["A"].shape == (4, 4)


def test_signature_bind_wrong_arity():
    sig = Signature.from_idl(DMMUL_IDL)
    with pytest.raises(IdlError, match="expects 4"):
        sig.bind([4, np.ones((4, 4))])


def test_signature_bind_wrong_shape():
    sig = Signature.from_idl(DMMUL_IDL)
    with pytest.raises(IdlError, match="shape"):
        sig.bind([4, np.ones((3, 4)), np.ones((4, 4)), None])


def test_signature_bind_casts_dtype():
    sig = Signature.from_idl(DMMUL_IDL)
    bound = sig.bind([2, np.ones((2, 2), dtype=np.int64),
                      np.ones((2, 2)), None])
    assert bound.inputs["A"].dtype == np.float64


def test_signature_bind_string_scalar_rejected_for_numeric():
    sig = Signature.from_idl(DMMUL_IDL)
    with pytest.raises(IdlError):
        sig.bind(["four", np.ones((4, 4)), np.ones((4, 4)), None])


def test_linpack_transfer_size_matches_paper_formula():
    """The paper: Linpack ships 8n^2 + 20n bytes.  With our IDL carrying
    the n x n matrix both ways plus the vector both ways, input+output
    bytes is 2*(8n^2 + 8n) + scalars -- same O(n^2) shape; check the
    exact accounting of the signature machinery instead."""
    sig = Signature.from_idl(LINPACK_IDL)
    n = 600
    env = {"n": float(n)}
    bound = sig.bind([n, np.zeros((n, n)), np.zeros(n)])
    assert bound.input_bytes == 8 * n * n + 8 * n + 4
    assert bound.output_bytes == 8 * n * n + 8 * n
    assert bound.predicted_flops == pytest.approx(2 / 3 * n**3 + 2 * n**2)


def test_signature_inout_array_is_both_input_and_output():
    sig = Signature.from_idl(LINPACK_IDL)
    n = 3
    bound = sig.bind([n, np.eye(n), np.ones(n)])
    assert "A" in bound.inputs
    assert bound.output_shapes["A"] == (3, 3)


def test_negative_dimension_rejected_at_bind():
    sig = Signature.from_idl(
        'Define f(mode_in int n, mode_in double A[n-10]) Calls "C" f(n, A);'
    )
    with pytest.raises(IdlError, match="non-negative"):
        sig.bind([5, np.zeros(1)])


def test_overflowing_dimension_is_an_idl_error_at_bind():
    """``2^x`` past the float range is a bad argument, not an
    ``OverflowError`` (the server sizes ``mode_out`` the same way)."""
    sig = Signature.from_idl(
        "Define f(mode_in double x, mode_out double y[2^x]);")
    with pytest.raises(IdlError, match="2 \\^ x"):
        sig.bind([1e4, None])


def test_predicted_comm_bytes_defaults_to_marshalled_size():
    sig = Signature.from_idl(LINPACK_IDL)
    env = {"n": 100.0}
    assert sig.predicted_comm_bytes(env) == 2 * (8 * 100 * 100 + 8 * 100) + 4


def test_predicted_comm_bytes_uses_comm_order_clause():
    sig = Signature.from_idl(
        'Define f(mode_in int n) CommOrder "8*n*n + 20*n";'
    )
    assert sig.predicted_comm_bytes({"n": 600.0}) == 8 * 600 * 600 + 20 * 600


def test_predicted_flops_none_without_calc_order():
    sig = Signature.from_idl("Define f(mode_in int n);")
    assert sig.predicted_flops({"n": 5.0}) is None


def test_signature_repr_is_informative():
    sig = Signature.from_idl(DMMUL_IDL)
    text = repr(sig)
    assert "dmmul" in text and "mode_out" in text


def test_signature_equality_and_hash():
    a = Signature.from_idl(DMMUL_IDL)
    b = wire_roundtrip(a)
    assert a == b
    assert hash(a) == hash(b)
    c = Signature.from_idl(LINPACK_IDL)
    assert a != c


def test_expressions_are_parsed_once_not_per_call(monkeypatch):
    """Every dimension is parsed when the signature is built (or decoded
    off the wire), ``CalcOrder`` and ``CommOrder`` on their first use:
    after the first call, binding, shaping, unmarshalling and predicting
    a call parse nothing."""
    from repro.idl import expr as expr_module
    from repro.idl import signature as signature_module
    from repro.protocol.marshal import marshal_inputs, unmarshal_inputs

    sig = wire_roundtrip(Signature.from_idl(LINPACK_IDL))
    sig.predicted_flops({"n": 1.0})
    sig.predicted_comm_bytes({"n": 1.0})
    parsed = []
    parse = expr_module.parse_expr
    monkeypatch.setattr(signature_module, "parse_expr",
                        lambda *a: parsed.append(a) or parse(*a))
    n = 12
    args = (n, np.eye(n), np.ones(n))
    for _ in range(3):
        bound = sig.bind(args)
        enc = XdrEncoder()
        marshal_inputs(sig, args, into=enc)
        unmarshal_inputs(sig, enc.getvalue())
        assert sig.predicted_flops(bound.env) == 2 * n**3 / 3 + 2 * n * n
        assert sig.predicted_comm_bytes(bound.env) \
            == 2 * (8 * n * n + 8 * n) + 4
        assert [spec.shape(bound.env) for spec in sig.args] \
            == [(), (n, n), (n,)]
    assert parsed == []
