"""Numerical libraries registered on Ninf computational servers.

These are the actual payloads the paper benchmarks:

- :mod:`repro.libs.linpack` -- the Linpack benchmark kernels: the
  registered ``linpack_solve`` (LAPACK, through
  :mod:`repro.libs.openblas`), ``dgefa`` / ``dgesl`` and a blocked LU
  from scratch, ``dmmul`` (the paper's running dmmul example), matrix
  generation and residual checks.
- :mod:`repro.libs.ep` -- the NAS Parallel Benchmarks EP kernel with the
  authentic NPB linear-congruential generator (vectorized), Gaussian
  pair generation and annulus counts.
- :mod:`repro.libs.dos` -- a density-of-states Monte-Carlo calculation,
  the "EP-style practical application in computational chemistry" of
  §4.3.1.
- :mod:`repro.libs.mandel` -- tile-based Mandelbrot rendering, the
  "parallel rendering/imaging" application class §4.3.1 names.
"""

from repro.libs.linpack import (
    dgefa,
    dgesl,
    dgetrf_blocked,
    dmmul,
    linpack_flops,
    linpack_matgen,
    linpack_residual,
    linpack_solve,
)
from repro.libs.ep import ep_kernel, EPResult, NPBRandom
from repro.libs.dos import dos_kernel, DOSResult
from repro.libs.mandel import mandel_image, mandel_tile, tile_grid

__all__ = [
    "DOSResult",
    "EPResult",
    "NPBRandom",
    "dgefa",
    "dgesl",
    "dgetrf_blocked",
    "dmmul",
    "dos_kernel",
    "ep_kernel",
    "linpack_flops",
    "linpack_matgen",
    "linpack_residual",
    "linpack_solve",
    "mandel_image",
    "mandel_tile",
    "tile_grid",
]
