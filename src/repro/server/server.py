"""The Ninf computational server.

All socket plumbing lives in :class:`repro.transport.Endpoint` (one
reactor thread reads every TCP connection; a shm ring connection has a
thread of its own); the Ninf RPC semantics -- and the constructor --
live in :class:`repro.server.services.NinfRpcServices`.  This module is
only the composition of the two.
"""

from __future__ import annotations

from repro.server.services import NinfRpcServices
from repro.transport import Endpoint

__all__ = ["NinfServer"]


class NinfServer(NinfRpcServices, Endpoint):
    """A Ninf computational server process (TCP on one reactor thread,
    and the shared-memory upgrade).  Parameters:
    :class:`~repro.server.services.NinfRpcServices`."""
