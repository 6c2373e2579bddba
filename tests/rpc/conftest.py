"""Shared fixtures: a live Ninf server with the standard library registered.

The ``server`` and ``client`` fixtures are parametrized so every RPC
test runs against the full transport matrix (DESIGN.md §3.6):

- ``server``: the thread-per-connection :class:`NinfServer` and the
  asyncio :class:`AsyncNinfServer`, both composing the same
  :class:`~repro.server.services.NinfRpcServices` handlers.
- ``client``: the two drivers of ``repro.client.core`` -- the blocking
  :class:`NinfClient` and the native :class:`AsyncNinfClient`, the
  latter driven from blocking test code through a private
  :class:`~repro.transport.loopbridge.LoopThread`
  (:class:`NativeClientDriver` below).
"""

import asyncio

import numpy as np
import pytest

from repro.client import AsyncNinfClient, NinfClient, NinfFuture
from repro.libs.ep import ep_kernel
from repro.libs.linpack import dmmul as dmmul_impl
from repro.libs.linpack import linpack_solve
from repro.libs.openblas import blas_kernel
from repro.server import AsyncNinfServer, NinfServer, Registry
from repro.transport import LoopThread

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


SERVER_CLASSES = {"threaded": NinfServer, "async": AsyncNinfServer}


class NativeClientDriver:
    """Blocking shim over :class:`AsyncNinfClient` for the sync tests.

    Owns a private :class:`LoopThread`; every RPC method submits the
    matching coroutine and blocks on the result, so the existing test
    bodies exercise the native async client without rewriting a line.
    """

    def __init__(self, host, port, **kwargs):
        self._runner = LoopThread(name="ninf-test-native")
        self._client = self._runner.run(self._construct(host, port, kwargs))

    @staticmethod
    async def _construct(host, port, kwargs):
        # Built on the loop so every asyncio primitive binds to it.
        return AsyncNinfClient(host, port, **kwargs)

    # -- blocking mirrors of the coroutine surface ------------------------

    def ping(self):
        return self._runner.run(self._client.ping())

    def list_functions(self):
        return self._runner.run(self._client.list_functions())

    def query_load(self):
        return self._runner.run(self._client.query_load())

    def get_signature(self, function):
        return self._runner.run(self._client.get_signature(function))

    def fetch_stats(self, fmt="json"):
        return self._runner.run(self._client.fetch_stats(fmt))

    def call(self, function, *args, on_callback=None):
        return self._runner.run(
            self._client.call(function, *args, on_callback=on_callback))

    def call_with_record(self, function, *args, on_callback=None,
                         timeout=None):
        return self._runner.run(
            self._client.call_with_record(function, *args,
                                          on_callback=on_callback,
                                          timeout=timeout))

    def call_async(self, function, *args, on_callback=None):
        future = NinfFuture()

        async def drive():
            try:
                outputs, record = await self._client.call_with_record(
                    function, *args, on_callback=on_callback)
            except BaseException as exc:  # delivered via future.result()
                future._fail(exc)
            else:
                future._fulfill(outputs, record)

        asyncio.run_coroutine_threadsafe(drive(), self._runner.loop)
        return future

    def call_detached(self, function, *args, timeout=None):
        handle = self._runner.run(
            self._client.call_detached(function, *args, timeout=timeout))
        # Re-home the handle so handle.fetch() blocks via this driver
        # instead of returning the async client's coroutine.
        handle.client = self
        return handle

    def fetch_detached(self, call, timeout=None, poll_interval=0.02):
        return self._runner.run(
            self._client.fetch_detached(call, timeout=timeout,
                                        poll_interval=poll_interval))

    def cancel_detached(self, call):
        return self._runner.run(self._client.cancel_detached(call))

    # -- bookkeeping ------------------------------------------------------

    @property
    def records(self):
        return self._client.records

    @property
    def attempts(self):
        return self._client.attempts

    @property
    def retries(self):
        return self._client.retries

    def close(self):
        try:
            self._runner.run(self._shutdown())
        except OSError:  # loop already stopped (second close)
            pass
        self._runner.stop()

    async def _shutdown(self):
        self._client.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture(params=sorted(SERVER_CLASSES), ids=sorted(SERVER_CLASSES))
def server_cls(request):
    """Both server implementations, for tests that build servers inline."""
    return SERVER_CLASSES[request.param]


@pytest.fixture(params=["threaded", "async"])
def server(request):
    with SERVER_CLASSES[request.param](build_registry(), num_pes=4,
                                       mode="task") as srv:
        yield srv


# The blocking NinfClient keeps the param id "facade": the ids are part
# of the test names the suite's pass-floor lists.
@pytest.fixture(params=["facade", "native"])
def client(request, server):
    host, port = server.address
    if request.param == "facade":
        with NinfClient(host, port) as cli:
            yield cli
    else:
        with NativeClientDriver(host, port) as cli:
            yield cli


@pytest.fixture
def rng():
    return np.random.default_rng(42)
