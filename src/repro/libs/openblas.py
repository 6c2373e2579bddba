"""The OpenBLAS NumPy loaded, bound once with ``ctypes``: the thread
count a server caps per call, and LAPACKE ``dgetrf`` / ``dgetrs``.  A
``64_`` symbol suffix means 64-bit LAPACK integers (a C ``int``
otherwise); a mismatch corrupts memory, so only :attr:`OpenBLAS.index`
decides it.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Any, Callable, NamedTuple, Optional, TypeVar

import numpy as np

__all__ = ["OpenBLAS", "blas_kernel", "blas_threads", "openblas",
           "set_blas_threads"]

_AFFIXES = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))

_F = TypeVar("_F", bound=Callable[..., Any])


class OpenBLAS(NamedTuple):
    """The entry points (LAPACKE and the local setter ``None`` if
    missing); ``index`` is the dtype of a LAPACK integer, such as a
    pivot.  ``set_num_threads_local(count)`` returns the count it
    replaced.  It caps the calling thread on an OpenMP build; on the
    pthreads build NumPy's wheels carry, it sets the process's count."""

    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]
    set_num_threads_local: Optional[Callable[[int], int]]
    dgetrf: Optional[Callable[..., int]]
    dgetrs: Optional[Callable[..., int]]
    index: Any


@functools.cache
def openblas() -> Optional[OpenBLAS]:
    """NumPy's OpenBLAS, bound (``None`` for another BLAS)."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
        for line in maps:
            fields = line.split(maxsplit=5)  # address perms offset dev inode path
            if len(fields) == 6 and "openblas" in fields[5]:
                paths.add(fields[5].strip())
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _AFFIXES:
            def bind(name: str, restype: Any, *argtypes: Any) -> Any:
                func = getattr(lib, f"{prefix}{name}{suffix}", None)
                if func is not None:
                    func.argtypes, func.restype = argtypes, restype
                return func

            get = bind("openblas_get_num_threads", ctypes.c_int)
            set_ = bind("openblas_set_num_threads", None, ctypes.c_int)
            if get is None or set_ is None:
                continue
            i, p = ctypes.c_int64 if suffix else ctypes.c_int, ctypes.c_void_p
            # (layout, m, n, a, lda, ipiv)
            getrf = bind("LAPACKE_dgetrf", i, ctypes.c_int, i, i, p, i, p)
            # (layout, trans, n, nrhs, a, lda, ipiv, b, ldb)
            getrs = bind("LAPACKE_dgetrs", i, ctypes.c_int, ctypes.c_char,
                         i, i, p, i, p, p, i)
            if getrf is None or getrs is None:
                getrf = getrs = None
            return OpenBLAS(get, set_, _local_setter(lib), getrf, getrs,
                            np.int64 if suffix else np.int32)
    return None


def _local_setter(lib: ctypes.CDLL) -> Optional[Callable[[int], int]]:
    """``openblas_set_num_threads_local`` under any affix, searched on
    its own: a wheel may export it under other affixes than the rest
    (NumPy 2.4's: unprefixed, beside ``scipy_..._64_``)."""
    for prefix, suffix in _AFFIXES:
        func = getattr(lib, f"{prefix}openblas_set_num_threads_local{suffix}",
                       None)
        if func is not None:
            func.argtypes, func.restype = (ctypes.c_int,), ctypes.c_int
            return func
    return None


def blas_kernel(func: _F) -> _F:
    """Mark ``func`` as spending its time in BLAS / LAPACK with the GIL
    released: a server runs it on its PE thread, under a BLAS cap of
    the PEs its call claimed (DESIGN.md §3.6), not in a PE worker."""
    func.blas_kernel = True
    return func


def blas_threads() -> Optional[int]:
    """The BLAS thread count a call from this thread gets (``None``:
    not OpenBLAS)."""
    calls = openblas()
    return None if calls is None else calls.get_num_threads()


def set_blas_threads(count: int) -> None:
    """Cap this process's BLAS pool at ``count`` threads."""
    calls = openblas()
    if calls is not None:
        calls.set_num_threads(count)
