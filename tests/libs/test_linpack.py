"""Tests for the Linpack kernels: the from-scratch ones, and the LAPACK
``dgetrf``/``dgetrs`` path ``linpack_solve`` takes when NumPy's OpenBLAS
has them."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.libs import linpack
from repro.libs.linpack import (
    SingularMatrixError,
    dgefa,
    dgesl,
    dgetrf_blocked,
    dmmul,
    linpack_bytes,
    linpack_flops,
    linpack_matgen,
    linpack_residual,
    linpack_solve,
)
from repro.libs.openblas import openblas

LAPACK = openblas() is not None and openblas().dgetrf is not None


@pytest.fixture(params=[True, False])
def lapack(request, monkeypatch):
    """``linpack_solve`` on LAPACK (``True``) or forced onto the NumPy
    fallback by hiding the binding (``False``)."""
    if request.param:
        if not LAPACK:
            pytest.skip("NumPy's BLAS has no LAPACKE dgetrf/dgetrs here")
    else:
        monkeypatch.setattr(linpack, "openblas", lambda: None)
    return request.param


def random_system(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)  # well conditioned
    x_true = rng.standard_normal(n)
    return a, a @ x_true, x_true


# ----------------------------------------------------------- dgefa / dgesl


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
def test_dgefa_dgesl_solves(n):
    a, b, x_true = random_system(n)
    lu = a.copy()
    ipvt = dgefa(lu)
    x = dgesl(lu, ipvt, b.copy())
    np.testing.assert_allclose(x, x_true, rtol=1e-9, atol=1e-9)


def test_dgefa_matches_scipy_lu():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    a, _, _ = random_system(20, seed=3)
    lu_ours = a.copy()
    dgefa(lu_ours)
    lu_scipy, _ = scipy_linalg.lu_factor(a)
    np.testing.assert_allclose(lu_ours, lu_scipy, rtol=1e-12, atol=1e-12)


def test_dgefa_pivoting_handles_zero_diagonal():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    lu = a.copy()
    ipvt = dgefa(lu)
    x = dgesl(lu, ipvt, np.array([2.0, 3.0]))
    np.testing.assert_allclose(x, [3.0, 2.0])


def test_dgefa_singular_raises():
    a = np.zeros((3, 3))
    with pytest.raises(SingularMatrixError):
        dgefa(a)


def test_dgefa_singular_last_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        dgefa(a)


def test_dgefa_rejects_nonsquare():
    with pytest.raises(ValueError):
        dgefa(np.zeros((2, 3)))


def test_dgefa_rejects_non_float64():
    with pytest.raises(ValueError):
        dgefa(np.zeros((2, 2), dtype=np.float32))


def test_dgesl_rhs_length_mismatch():
    a, _, _ = random_system(4)
    lu = a.copy()
    ipvt = dgefa(lu)
    with pytest.raises(ValueError):
        dgesl(lu, ipvt, np.zeros(5))


# ------------------------------------------------------------- blocked LU


@pytest.mark.parametrize("n,block", [(1, 4), (7, 2), (16, 4), (33, 8),
                                     (50, 64), (64, 16)])
def test_blocked_lu_solves(n, block):
    a, b, x_true = random_system(n, seed=n)
    lu = a.copy()
    ipvt = dgetrf_blocked(lu, block=block)
    from repro.libs.linpack import _solve_from_lapack_pivots

    x = _solve_from_lapack_pivots(lu, ipvt, b)
    np.testing.assert_allclose(x, x_true, rtol=1e-8, atol=1e-8)


def test_blocked_lu_matches_unblocked_factors():
    a, _, _ = random_system(24, seed=9)
    lu_blocked = a.copy()
    dgetrf_blocked(lu_blocked, block=5)
    lu_ref = a.copy()
    dgefa(lu_ref)
    np.testing.assert_allclose(lu_blocked, lu_ref, rtol=1e-10, atol=1e-12)


def test_blocked_lu_invalid_block():
    with pytest.raises(ValueError):
        dgetrf_blocked(np.eye(4), block=0)


def test_blocked_lu_singular_raises():
    with pytest.raises(SingularMatrixError):
        dgetrf_blocked(np.zeros((4, 4)), block=2)


# ------------------------------------------------------------ linpack_solve


def test_linpack_solve_end_to_end(lapack):
    a, b, x_true = random_system(30, seed=5)
    x = linpack_solve(a.copy(), b.copy())
    np.testing.assert_allclose(x, x_true, rtol=1e-8, atol=1e-8)


def test_dgefa_dgesl_end_to_end():
    a, b, x_true = random_system(30, seed=5)
    lu = a.copy()
    x = dgesl(lu, dgefa(lu), b.copy())
    np.testing.assert_allclose(x, x_true, rtol=1e-8, atol=1e-8)


def test_linpack_solve_residual_is_small(lapack):
    n = 100
    a, b = linpack_matgen(n)
    x = linpack_solve(a.copy(), b.copy())
    assert linpack_residual(a, x, b) < 50  # O(1-10) means correct


# The engine is chosen once per test, not per example: sharing the
# fixture across examples is the intent.
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=1, max_value=40), st.integers(0, 1000))
def test_linpack_solve_property_random_systems(lapack, n, seed):
    a, b, x_true = random_system(n, seed=seed)
    x = linpack_solve(a.copy(), b.copy())
    np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-6)


def test_linpack_solve_writes_factors_and_solution_in_place(lapack):
    a, b, x_true = random_system(12, seed=2)
    lu, rhs = a.copy(), b.copy()
    assert linpack_solve(lu, rhs) is rhs
    np.testing.assert_allclose(rhs, x_true, rtol=1e-9, atol=1e-9)
    reference = a.copy()
    dgetrf_blocked(reference)
    np.testing.assert_allclose(lu, reference, rtol=1e-10, atol=1e-12)


@pytest.mark.skipif(not LAPACK, reason="no LAPACKE dgetrf in NumPy's BLAS")
@pytest.mark.parametrize("n", [1, 2, 5, 37, 64, 65, 600])
def test_lapack_dgetrf_matches_dgetrf_blocked(n):
    """Same pivots (LAPACK's are 1-based) and the same factors."""
    a, _ = linpack_matgen(n, seed=n)
    reference = a.copy()
    pivots = dgetrf_blocked(reference)
    binding, lu = openblas(), a.copy()
    ipiv = np.empty(n, binding.index)
    assert binding.dgetrf(linpack._ROW_MAJOR, n, n, lu.ctypes.data, n,
                          ipiv.ctypes.data) == 0
    np.testing.assert_array_equal(ipiv - 1, pivots)
    np.testing.assert_allclose(lu, reference, rtol=0, atol=1e-10)


# -------------------------------------------- linpack_solve input guards


def test_linpack_solve_refuses_read_only_a(lapack):
    a, b, _ = random_system(6, seed=4)
    raw = a.tobytes()
    frozen = np.frombuffer(bytes(raw), dtype=np.float64).reshape(6, 6)
    with pytest.raises(ValueError):
        linpack_solve(frozen, b.copy())
    assert frozen.tobytes() == raw


def test_linpack_solve_refuses_read_only_b(lapack):
    a, b, _ = random_system(6, seed=4)
    b.flags.writeable = False
    lu = a.copy()
    with pytest.raises(ValueError):
        linpack_solve(lu, b)
    np.testing.assert_array_equal(lu, a)


def test_linpack_solve_fortran_a_and_strided_b_match_c_order(lapack):
    a, b, _ = random_system(9, seed=6)
    expected = linpack_solve(a.copy(), b.copy())
    strided = np.zeros(18)
    strided[::2] = b
    x = linpack_solve(np.asfortranarray(a), strided[::2])
    np.testing.assert_array_equal(x, expected)
    np.testing.assert_array_equal(strided[::2], expected)
    np.testing.assert_array_equal(strided[1::2], 0.0)


@pytest.mark.parametrize("a, b", [
    (np.eye(3, dtype=np.float32), np.ones(3)),
    (np.zeros((2, 3)), np.ones(2)),
    (np.eye(3), np.ones(4)),
    (np.eye(3), np.ones((3, 1))),
], ids=["float32", "non-square", "b-too-long", "b-2d"])
def test_linpack_solve_rejects_bad_shapes_and_types(lapack, a, b):
    with pytest.raises(ValueError):
        linpack_solve(a, b)


@pytest.mark.skipif(not LAPACK, reason="no LAPACKE dgetrf in NumPy's BLAS")
def test_linpack_solve_lapack_refuses_nan():
    a = np.eye(3)
    a[1, 2] = np.nan
    b = np.ones(3)
    with pytest.raises(ValueError):
        linpack_solve(a, b)
    np.testing.assert_array_equal(b, 1.0)


@pytest.mark.parametrize("a, column", [
    (np.zeros((3, 3)), 0),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), 1),  # rank 1
])
def test_linpack_solve_singular_column(lapack, a, column):
    with pytest.raises(SingularMatrixError) as caught:
        linpack_solve(a.copy(), np.ones(a.shape[0]))
    assert caught.value.column == column


# ------------------------------------------------------------------ matgen


def test_matgen_reproducible():
    a1, b1 = linpack_matgen(50)
    a2, b2 = linpack_matgen(50)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2)


def test_matgen_different_seeds_differ():
    a1, _ = linpack_matgen(10, seed=1)
    a2, _ = linpack_matgen(10, seed=2)
    assert not np.array_equal(a1, a2)


def test_matgen_entries_bounded():
    a, _ = linpack_matgen(64)
    assert np.all(np.abs(a) <= 2.0)


def test_matgen_rhs_is_row_sums():
    a, b = linpack_matgen(17)
    np.testing.assert_allclose(b, a.sum(axis=1))


def test_matgen_solution_is_ones(lapack):
    a, b = linpack_matgen(60)
    x = linpack_solve(a.copy(), b.copy())
    np.testing.assert_allclose(x, np.ones(60), rtol=1e-6)


def test_matgen_invalid_order():
    with pytest.raises(ValueError):
        linpack_matgen(0)


# ------------------------------------------------------------------- dmmul


def test_dmmul_correct():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    np.testing.assert_allclose(dmmul(8, a, b), a @ b)


def test_dmmul_output_buffer_reused():
    a = np.eye(3)
    b = np.full((3, 3), 2.0)
    c = np.zeros((3, 3))
    out = dmmul(3, a, b, c)
    assert out is c
    np.testing.assert_allclose(c, b)


def test_dmmul_shape_validation():
    with pytest.raises(ValueError):
        dmmul(3, np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        dmmul(2, np.eye(2), np.eye(2), np.zeros((3, 3)))


# ------------------------------------------------------------ flops / bytes


def test_linpack_flops_formula():
    assert linpack_flops(600) == pytest.approx(2 / 3 * 600**3 + 2 * 600**2)


def test_linpack_bytes_formula():
    # The paper's communication model: 8n^2 + 20n bytes per Ninf_call.
    assert linpack_bytes(600) == 8 * 600**2 + 20 * 600


def test_residual_zero_matrix_edge_case():
    assert linpack_residual(np.zeros((2, 2)), np.zeros(2), np.zeros(2)) == 0.0
