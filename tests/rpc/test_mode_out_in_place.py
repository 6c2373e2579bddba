"""``mode_out`` arrays reach the executable as the ``NinfExecutable``
contract says: all zeros, writable, C-contiguous, of the declared dtype
and shape, whether their frames are above ``bulk.UNZEROED_MIN`` (receive
and encoder room left unset) or below it.  An executable that fills them
in place and returns ``None`` round-trips, on a PE
thread and in a PE worker process.
"""

import numpy as np
import pytest

from repro.client import NinfClient
from repro.idl import Signature
from repro.protocol.marshal import marshal_inputs, unmarshal_inputs
from repro.server import NinfServer, Registry
from repro.xdr import bulk

FILL_IDL = ('Define {name}(mode_in int n, mode_out double B[n][n], '
            'mode_out int C[n]) "B, C = ranges" {order} '
            'Calls "C" fill(n, B, C);')
BIG_N = 512     # B is 2 MiB, C 2 KiB
SMALL_N = 64    # B is 32 KiB


def _fill(n, b, c):
    """Check the buffers as handed over, then fill them in place."""
    n = int(n)
    for array, dtype, shape in ((b, np.float64, (n, n)), (c, np.int32, (n,))):
        if (array.dtype != dtype or array.shape != shape or array.any()
                or not array.flags.writeable
                or not array.flags.c_contiguous):
            raise ValueError(f"bad mode_out buffer {array.dtype} "
                             f"{array.shape} {array.flags}")
    b[:] = np.arange(n * n, dtype=np.float64).reshape(n, n)
    c[:] = np.arange(n, dtype=np.int32)


def _registry() -> Registry:
    registry = Registry()
    registry.register(FILL_IDL.format(name="fill", order=""), _fill)
    registry.register(FILL_IDL.format(name="fill_in_worker",
                                      order='CalcOrder "n"'), _fill)
    return registry


def test_a_large_mode_out_array_is_zeros_of_the_declared_kind():
    signature = Signature.from_idl(FILL_IDL.format(name="fill", order=""))
    payload = marshal_inputs(signature, [BIG_N, None, None])
    _n, b, c = unmarshal_inputs(signature, payload)
    assert b.nbytes >= bulk.UNZEROED_MIN > c.nbytes
    _fill(BIG_N, b, c)  # zeros, writable, C-contiguous, dtype and shape


@pytest.mark.parametrize("function", ["fill", "fill_in_worker"])
@pytest.mark.parametrize("n", [BIG_N, SMALL_N])
@pytest.mark.parametrize("server_cls", [NinfServer], ids=["threaded"])
def test_a_mode_out_array_filled_in_place_round_trips(server_cls, n,
                                                      function):
    with server_cls(_registry(), num_pes=1) as server, \
            NinfClient(*server.address, timeout=30.0) as client:
        b, c = client.call(function, n, None, None)
    np.testing.assert_array_equal(
        b, np.arange(n * n, dtype=np.float64).reshape(n, n))
    np.testing.assert_array_equal(c, np.arange(n, dtype=np.int32))
