"""AsyncNinfServer: the old asyncio server's name for NinfServer."""

from repro.server.server import NinfServer

__all__ = ["AsyncNinfServer"]

AsyncNinfServer = NinfServer
