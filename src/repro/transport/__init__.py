"""The shared socket-transport layer.

Everything that touches a raw ``socket.socket`` in the reproduction
lives here; client, server, and metaserver are written against these
abstractions:

- :class:`Channel` -- a framed, thread-safe request/reply connection
  with per-operation deadlines (``repro.protocol.framing`` underneath).
- :class:`ConnectionPool` -- keep-alive channel reuse keyed by
  ``(host, port)`` with max-idle eviction; ``pool=False`` restores the
  paper's per-call-connection behaviour as an ablation.
- :class:`EndpointCore` -- the ``MessageType -> handler`` registry,
  dispatch contract and lifecycle of every Ninf process, with two
  drivers that keep only their I/O: :class:`Endpoint` (accept thread,
  thread per connection: :class:`~repro.server.NinfServer`,
  :class:`~repro.metaserver.Metaserver`) and :class:`AsyncEndpoint`
  (one event loop: :class:`~repro.server.AsyncNinfServer`).  Handlers
  are plain functions that never block and reply through a
  :class:`Connection` (DESIGN.md §3.6).
- :class:`FaultPlan` / :class:`FaultyChannel` -- seeded, deterministic
  fault injection at the three places a channel is born (``connect``,
  pool checkout, endpoint accept).  The plan computes one
  :class:`~repro.transport.faults.FaultStep` per dial, send and recv,
  which the blocking :class:`FaultyChannel` and the asyncio
  :class:`AsyncFaultyChannel` only apply; see
  :mod:`repro.transport.faults`.
- :class:`RetryPolicy` -- bounded exponential backoff with seeded
  jitter and transient-error classification, used by the client's
  idempotent operations (and, with server-side dedup, CALL itself) and
  the metaserver's liveness prober.
- :class:`CircuitBreaker` -- per-host consecutive-failure trip with a
  half-open probe, so failover skips dead hosts without paying a
  connect timeout each time; see :mod:`repro.transport.breaker`.
- :class:`AsyncChannel` / :class:`AsyncConnectionPool` -- the asyncio
  channel, and the pool's ``await``-dialing subclass (DESIGN.md §3.6).
  :class:`LoopThread` (:mod:`repro.transport.loopbridge`) is the
  private loop thread behind an :class:`AsyncEndpoint`'s synchronous
  ``start()``/``stop()``.
- :class:`ShmRing` / :class:`ShmTransport` / :func:`shm_negotiate`
  (:mod:`repro.transport.shm`) -- the same-host shared-memory fast
  path.  A dialing channel that believes it shares a machine with the
  server offers ``SHM_HELLO`` over TCP; on agreement both sides attach
  a ring pair in place (``Channel.attach_io``) and frames -- same
  ``MAGIC|type|len|crc`` header, its ``crc`` word covering the header
  only, received by the same ``framing.FrameReader`` -- flow through
  shared memory while the socket stays open purely as the
  liveness/close signal.
  Negotiation policy is a tri-state ``shm`` flag on ``connect``,
  ``ConnectionPool`` and ``Endpoint``: ``False`` = never, ``True`` =
  always offer, ``None`` = auto (same-host peers, unless
  ``NINF_SHM=0`` opts out); ``NinfClient(shm=True)`` offers it and the
  default never does.  Refusals fall back to TCP silently; blocking
  channels are the only negotiating client side (the asyncio loop
  never blocks on ring polls).

Layering: ``xdr`` (encoding) -> ``protocol`` (framing + messages) ->
``transport`` (connections) -> ``client`` / ``server`` / ``metaserver``.
"""

from repro.transport.aiochannel import (
    AsyncChannel,
    AsyncFaultyChannel,
    aconnect,
    aconnect_with_faults,
)
from repro.transport.aioendpoint import AsyncEndpoint
from repro.transport.aiopool import AsyncConnectionPool
from repro.transport.breaker import CircuitBreaker
from repro.transport.channel import Channel, connect
from repro.transport.endpoint import Connection, Endpoint, EndpointCore
from repro.transport.faults import (
    FaultEvent,
    FaultPlan,
    FaultyChannel,
    PartitionMap,
)
from repro.transport.loopbridge import LoopThread
from repro.transport.pool import ConnectionPool
from repro.transport.retry import RetryPolicy, is_transient
from repro.transport.shm import ShmRing, ShmTransport
from repro.transport.shm import negotiate as shm_negotiate

__all__ = [
    "AsyncChannel",
    "AsyncConnectionPool",
    "AsyncEndpoint",
    "AsyncFaultyChannel",
    "Channel",
    "CircuitBreaker",
    "Connection",
    "ConnectionPool",
    "Endpoint",
    "EndpointCore",
    "FaultEvent",
    "FaultPlan",
    "FaultyChannel",
    "LoopThread",
    "PartitionMap",
    "RetryPolicy",
    "ShmRing",
    "ShmTransport",
    "aconnect",
    "aconnect_with_faults",
    "connect",
    "is_transient",
    "shm_negotiate",
]
