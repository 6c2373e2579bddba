"""The Ninf computational server on the asyncio endpoint.

Same RPC brain as :class:`~repro.server.NinfServer`
(:class:`~repro.server.services.NinfRpcServices` -- the same handlers,
byte-for-byte the same wire behaviour), different serving body:
:class:`~repro.transport.aioendpoint.AsyncEndpoint` multiplexes every
connection onto one event loop, so idle connections cost a
heap-allocated task instead of a thread, and C10K+ concurrent clients
fit in one process.  The handlers run on that loop and never block it;
executor completion callbacks reply from their own PE threads.
"""

from __future__ import annotations

from repro.server.services import NinfRpcServices
from repro.transport import AsyncEndpoint

__all__ = ["AsyncNinfServer"]


class AsyncNinfServer(NinfRpcServices, AsyncEndpoint):
    """A Ninf computational server process (asyncio, C10K-capable).
    Parameters: :class:`~repro.server.services.NinfRpcServices`; the
    lifecycle surface stays synchronous (``start()``/``stop()``/
    ``with``), the server owns a private loop thread."""
