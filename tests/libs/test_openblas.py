"""The ``ctypes`` binding of NumPy's OpenBLAS (``repro.libs.openblas``)."""

import threading

import pytest

from repro.libs.openblas import blas_kernel, blas_threads, openblas


def test_the_local_setter_is_bound_beside_differently_named_entry_points():
    """``openblas_set_num_threads_local`` is searched for on its own: a
    wheel may export it under other affixes than ``get`` / ``set`` (NumPy
    2.4's: unprefixed, beside ``scipy_..._64_``).  It returns the count
    it replaced, and the count it sets is the one BLAS reports."""
    binding = openblas()
    if binding is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS here")
    set_local = binding.set_num_threads_local
    assert set_local is not None
    seen = []

    def capped():
        default = blas_threads()
        replaced = set_local(1)
        seen.append((replaced, blas_threads()))
        set_local(replaced)
        seen.append(blas_threads() == default)

    thread = threading.Thread(target=capped)
    thread.start()
    thread.join()
    (replaced, during), restored = seen
    assert replaced >= 1 and during == 1 and restored


def test_blas_kernel_marks_and_returns_the_function():
    def kernel():
        pass

    assert blas_kernel(kernel) is kernel
    assert kernel.blas_kernel is True
