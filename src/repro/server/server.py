"""The Ninf computational server, thread per connection.

All socket plumbing lives in :class:`repro.transport.Endpoint`; the
Ninf RPC semantics -- and the constructor -- live in
:class:`repro.server.services.NinfRpcServices`, shared verbatim with
the asyncio server (:class:`repro.server.AsyncNinfServer`).  This
module is only the composition of the two.
"""

from __future__ import annotations

from repro.server.services import NinfRpcServices
from repro.transport import Endpoint

__all__ = ["NinfServer"]


class NinfServer(NinfRpcServices, Endpoint):
    """A Ninf computational server process (threaded TCP; the one that
    honours the shared-memory upgrade).  Parameters:
    :class:`~repro.server.services.NinfRpcServices`."""
