"""Shared fixtures: a live Ninf server with the standard library
registered (``server``, a :class:`NinfServer`, the one server driver)
and a blocking :class:`NinfClient` on it (``client``)."""

import numpy as np
import pytest

from repro.client import NinfClient
from repro.libs.ep import ep_kernel
from repro.libs.linpack import dmmul as dmmul_impl
from repro.libs.linpack import linpack_solve
from repro.libs.openblas import blas_kernel
from repro.server import NinfServer, Registry

DMMUL_IDL = """
Define dmmul(mode_in int n, mode_in double A[n][n],
             mode_in double B[n][n], mode_out double C[n][n])
"double precision matrix multiply"
CalcOrder "2*n*n*n"
Calls "C" mmul(n, A, B, C);
"""

LINPACK_IDL = """
Define linpack(mode_in int n, mode_inout double A[n][n],
               mode_inout double b[n])
"LU factorization and solve (dgefa+dgesl)"
CalcOrder "2*n*n*n/3 + 2*n*n"
CommOrder "8*n*n + 20*n"
Calls "C" linpack_solve(n, A, b);
"""

EP_IDL = """
Define ep(mode_in int m, mode_in long skip, mode_in long pairs,
          mode_out long accepted, mode_out double sx, mode_out double sy)
"NAS EP kernel slice"
CalcOrder "2^(m+1)"
Calls "C" ep(m, skip, pairs, accepted, sx, sy);
"""

FAIL_IDL = 'Define always_fails(mode_in int n) "raises on purpose";'

SLEEP_IDL = 'Define sleeper(mode_in double seconds) "sleeps";'


@blas_kernel
def _dmmul(n, a, b, c):
    dmmul_impl(int(n), a, b, c)


@blas_kernel
def _linpack(n, a, b):
    linpack_solve(a, b)


def _ep(m, skip, pairs, accepted, sx, sy):
    result = ep_kernel(int(m), skip_pairs=int(skip), pairs=int(pairs))
    return result.accepted, result.sx, result.sy


def _always_fails(n):
    raise ValueError(f"refusing to process {n}")


def _sleeper(seconds):
    import time

    time.sleep(float(seconds))


def build_registry() -> Registry:
    registry = Registry()
    registry.register(DMMUL_IDL, _dmmul)
    registry.register(LINPACK_IDL, _linpack)
    registry.register(EP_IDL, _ep)
    registry.register(FAIL_IDL, _always_fails)
    registry.register(SLEEP_IDL, _sleeper)
    return registry


# One server id and one client id: both are part of the test names the
# suite's pass-floor lists, so each keeps its single param.
@pytest.fixture(params=["threaded"])
def server_cls(request):
    """The server class, for tests that build servers inline."""
    return NinfServer


@pytest.fixture(params=["threaded"])
def server(request):
    with NinfServer(build_registry(), num_pes=4, mode="task") as srv:
        yield srv


@pytest.fixture(params=["facade"])
def client(request, server):
    with NinfClient(*server.address) as cli:
        yield cli


@pytest.fixture
def rng():
    return np.random.default_rng(42)
