"""repro: a working Ninf-style GridRPC system plus the Ninf
global-computing simulator, reproducing Takefusa et al., "Multi-client
LAN/WAN Performance Analysis of Ninf" (SC'97).

Layers (see DESIGN.md for the full inventory):

- :mod:`repro.xdr`, :mod:`repro.idl`, :mod:`repro.protocol` -- the wire:
  Sun XDR, the Ninf IDL with compiled signatures, the two-stage RPC
  protocol.
- :mod:`repro.server`, :mod:`repro.client`, :mod:`repro.metaserver` --
  the system: computational servers (FCFS/SJF/FPFS/FPMPFS scheduling,
  task- vs data-parallel execution), the Ninf_call client API with
  async calls and dependency-driven transactions, and the monitoring/
  scheduling metaserver.
- :mod:`repro.libs` -- the registered numerics: Linpack (LAPACK, and
  dgefa/dgesl + blocked LU), NAS EP (bit-faithful NPB generator), DOS.
- :mod:`repro.sim`, :mod:`repro.model`, :mod:`repro.simninf` -- the
  simulator: discrete-event substrate, calibrated 1997 machine/network
  catalogs, and the Ninf model that regenerates every table and figure
  of the paper (drivers in :mod:`repro.experiments`).

Quickstart::

    from repro.server import NinfServer, Registry
    from repro.client import NinfClient
    import numpy as np

    registry = Registry()
    registry.register(
        'Define dmmul(mode_in int n, mode_in double A[n][n], '
        'mode_in double B[n][n], mode_out double C[n][n]);',
        lambda n, a, b, c: np.matmul(a, b, out=c))
    with NinfServer(registry) as server:
        with NinfClient(*server.address) as client:
            c = np.zeros((4, 4))
            client.call("dmmul", 4, np.eye(4), np.eye(4), c)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
