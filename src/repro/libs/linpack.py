"""Linpack kernels: LU factorization and triangular solves.

The paper registers ``sgetrf/sgetrs`` (libSci, Cray J90) and
``glub4/gslv4`` (blocked, for RISC workstations) as the remote Linpack
routine, executing "the LU-decomposition (dgefa) and backward
substitution (dgesl) remotely".  This module provides:

- :func:`linpack_solve` -- factor + solve, the routine the Ninf server
  registers: LAPACK ``dgetrf`` + ``dgetrs``, a vendor library like the
  paper's, with the from-scratch kernels below as reference and fallback.
- :func:`dgefa` / :func:`dgesl` -- the classic LINPACK pair: right-looking
  unblocked LU with partial pivoting, and the corresponding solver.
  Inner loops are vectorized (rank-1 updates), the outer elimination
  loop mirrors the reference algorithm.
- :func:`dgetrf_blocked` -- a blocked right-looking LU (the "blocking
  optimizations" of glub4): panel factorization + triangular solve +
  matrix-matrix update, which is the cache-friendly variant.
- :func:`dmmul` -- double-precision matrix multiply, the paper's running
  API example.
- :func:`linpack_matgen`, :func:`linpack_residual`,
  :func:`linpack_flops` -- the benchmark harness pieces: reproducible
  matrix generation, the standard ``||Ax-b|| / (n ||A|| ||x|| eps)``
  residual check, and the official ``2/3 n^3 + 2 n^2`` flop count used
  for all Mflops numbers in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.libs.openblas import openblas

__all__ = [
    "SingularMatrixError",
    "dgefa",
    "dgesl",
    "dgetrf_blocked",
    "dmmul",
    "linpack_flops",
    "linpack_matgen",
    "linpack_residual",
    "linpack_solve",
]


_ROW_MAJOR = 101  # LAPACK_ROW_MAJOR: a C-order matrix, used as is


class SingularMatrixError(ArithmeticError):
    """Raised when elimination hits an (exactly) zero pivot."""

    def __init__(self, column: int):
        super().__init__(f"zero pivot at column {column}")
        self.column = column


def dgefa(a: np.ndarray) -> np.ndarray:
    """LU factorization with partial pivoting, in place.

    ``a`` is overwritten with L (unit diagonal, below) and U (on and
    above the diagonal).  Returns the pivot index vector ``ipvt`` where
    ``ipvt[k]`` is the row swapped into position ``k`` at step ``k``
    (LINPACK convention).

    Raises :class:`SingularMatrixError` on an exactly zero pivot.
    """
    a = _require_square(a)
    n = a.shape[0]
    ipvt = np.empty(n, dtype=np.int64)
    for k in range(n - 1):
        # Partial pivoting: largest magnitude in column k at/below diagonal.
        pivot = k + int(np.argmax(np.abs(a[k:, k])))
        ipvt[k] = pivot
        if a[pivot, k] == 0.0:
            raise SingularMatrixError(k)
        if pivot != k:
            a[[k, pivot], k:] = a[[pivot, k], k:]
        # Multipliers, then the rank-1 trailing update (vectorized).
        a[k + 1 :, k] /= a[k, k]
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    ipvt[n - 1] = n - 1
    if a[n - 1, n - 1] == 0.0:
        raise SingularMatrixError(n - 1)
    return ipvt


def dgesl(a: np.ndarray, ipvt: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the :func:`dgefa` factorization, in place.

    ``b`` is overwritten with the solution and returned.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs length {b.shape[0]} != matrix order {n}")
    # Forward: apply the recorded row interchanges, then L^-1.
    for k in range(n - 1):
        pivot = int(ipvt[k])
        if pivot != k:
            b[[k, pivot]] = b[[pivot, k]]
        b[k + 1 :] -= a[k + 1 :, k] * b[k]
    # Backward: U^-1.
    for k in range(n - 1, -1, -1):
        b[k] /= a[k, k]
        if k:
            b[:k] -= a[:k, k] * b[k]
    return b


def dgetrf_blocked(a: np.ndarray, block: int = 64) -> np.ndarray:
    """Blocked right-looking LU with partial pivoting, in place.

    The cache-blocked variant the paper calls "blocking optimizations"
    (glub4): factor an ``n x nb`` panel with the unblocked kernel, apply
    its interchanges across the block row, triangular-solve the block
    row, then one matrix-matrix update of the trailing submatrix.
    Returns pivots in LAPACK convention (absolute row swapped with row
    ``k``).
    """
    a = _require_square(a)
    if block < 1:
        raise ValueError(f"block size must be >= 1, got {block}")
    n = a.shape[0]
    ipvt = np.arange(n, dtype=np.int64)
    for j in range(0, n, block):
        jb = min(block, n - j)
        # Factor the panel a[j:, j:j+jb] (unblocked, with pivoting).
        panel = a[j:, j : j + jb]
        for k in range(jb):
            col = j + k
            pivot = k + int(np.argmax(np.abs(panel[k:, k])))
            if panel[pivot, k] == 0.0:
                raise SingularMatrixError(col)
            if pivot != k:
                # Swap full rows of A so the update sees consistent data.
                a[[j + k, j + pivot], :] = a[[j + pivot, j + k], :]
            ipvt[col] = j + pivot
            panel[k + 1 :, k] /= panel[k, k]
            if k + 1 < jb:
                panel[k + 1 :, k + 1 : jb] -= np.outer(
                    panel[k + 1 :, k], panel[k, k + 1 : jb]
                )
        if j + jb < n:
            # Block row: solve L11 * U12 = A12 (unit lower triangular).
            l11 = a[j : j + jb, j : j + jb]
            u12 = a[j : j + jb, j + jb :]
            for k in range(1, jb):
                u12[k, :] -= l11[k, :k] @ u12[:k, :]
            # Trailing update: A22 -= L21 @ U12 (the GEMM that makes
            # blocking fast).
            a[j + jb :, j + jb :] -= a[j + jb :, j : j + jb] @ u12
    return ipvt


def _solve_from_lapack_pivots(a: np.ndarray, ipvt: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
    """Solve using LAPACK-convention pivots (absolute swap targets)."""
    b = np.asarray(b, dtype=np.float64).copy()
    n = a.shape[0]
    for k in range(n):
        pivot = int(ipvt[k])
        if pivot != k:
            b[[k, pivot]] = b[[pivot, k]]
    for k in range(n - 1):
        b[k + 1 :] -= a[k + 1 :, k] * b[k]
    for k in range(n - 1, -1, -1):
        b[k] /= a[k, k]
        if k:
            b[:k] -= a[:k, k] * b[k]
    return b


def linpack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Factor ``a`` and solve for ``b`` in place (the registered routine).

    Returns ``b``, overwritten with the solution; ``a`` (a copy, if not
    contiguous) holds the LU factors.  The paper's ``sgetrf/sgetrs``:
    LAPACK's when bound, else :func:`dgetrf_blocked`, singular at the
    same column.  A bad or read-only argument is a ``ValueError``, and
    so is a NaN in ``a`` for LAPACK, which checks for one first.
    """
    a = _require_square(np.ascontiguousarray(a))
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    if b.shape != (n,) or not (a.flags.writeable and b.flags.writeable):
        raise ValueError(f"need a writeable a and a writeable b of shape "
                         f"({n},), got b of shape {b.shape}")
    lapack = openblas()
    if lapack is None or lapack.dgetrf is None or not a.flags.aligned:
        x = _solve_from_lapack_pivots(a, dgetrf_blocked(a), b)
    else:
        x, ipiv = np.array(b), np.empty(n, lapack.index)
        info = lapack.dgetrf(_ROW_MAJOR, n, n, a.ctypes.data, n,
                             ipiv.ctypes.data)
        if info == 0:
            info = lapack.dgetrs(_ROW_MAJOR, b"N", n, 1, a.ctypes.data, n,
                                 ipiv.ctypes.data, x.ctypes.data, 1)
        if info > 0:
            raise SingularMatrixError(info - 1)
        if info < 0:
            raise ValueError(f"LAPACK rejected argument {-info}")
    b[...] = x
    return b


def dmmul(n: int, a: np.ndarray, b: np.ndarray,
          c: Optional[np.ndarray] = None) -> np.ndarray:
    """Double-precision matrix multiply ``C = A @ B`` (the paper's example).

    Mirrors the C calling convention ``dmmul(n, A, B, C)``: ``c`` may be
    a preallocated output buffer, otherwise one is allocated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (n, n) or b.shape != (n, n):
        raise ValueError(f"dmmul expects two {n}x{n} matrices, got "
                         f"{a.shape} and {b.shape}")
    if c is None:
        c = np.empty((n, n), dtype=np.float64)
    elif c.shape != (n, n):
        raise ValueError(f"output buffer must be {n}x{n}, got {c.shape}")
    np.matmul(a, b, out=c)
    return c


def linpack_flops(n: int) -> float:
    """The official Linpack operation count: ``2/3 n^3 + 2 n^2``.

    All Mflops figures in the paper divide this by the wall time.
    """
    return (2.0 / 3.0) * n**3 + 2.0 * n**2


def linpack_bytes(n: int) -> float:
    """The paper's transfer size for a remote Linpack call: ``8n^2+20n``."""
    return 8.0 * n * n + 20.0 * n


def linpack_matgen(n: int, seed: int = 1325) -> tuple[np.ndarray, np.ndarray]:
    """Generate the standard Linpack test problem.

    Like the classic ``matgen``: uniform entries in (-0.5, 0.5) and
    ``b = A @ ones`` so the exact solution is all ones.  The classic C
    driver's ``s = s*3125 % 65536`` recurrence has period 16384, which
    makes the matrix *exactly singular* for n >= 512 (duplicate rows),
    so we draw the same distribution from a full-period generator
    instead; results remain reproducible per (n, seed).
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    b = a.sum(axis=1)  # b = A @ ones
    return a, b


def linpack_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """The standard normalized residual ``||Ax-b||_inf / (n ||A|| ||x|| eps)``.

    Values of O(1-10) indicate a correct solve.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    residual = np.abs(a @ x - b).max()
    norm_a = np.abs(a).max()
    norm_x = np.abs(x).max()
    eps = np.finfo(np.float64).eps
    denom = n * norm_a * norm_x * eps
    if denom == 0.0:
        return 0.0 if residual == 0.0 else np.inf
    return float(residual / denom)


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.dtype != np.float64:
        raise ValueError(f"expected float64 (in-place factorization), got {a.dtype}")
    return a
