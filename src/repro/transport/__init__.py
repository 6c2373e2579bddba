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
  dispatch contract and lifecycle of every Ninf process, and
  :class:`Endpoint`, its one driver (:class:`~repro.server.NinfServer`,
  :class:`~repro.metaserver.Metaserver`): a reactor thread accepts and
  reads every TCP connection, a ring connection gets a thread of its
  own.  Handlers are plain functions that never block and reply
  through a :class:`Connection` (DESIGN.md §3.6).
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
  channel, and the pool's ``await``-dialing subclass: the asyncio
  client's transport (DESIGN.md §3.6).
- :class:`ShmRing` / :class:`ShmTransport` / :func:`shm_negotiate`
  (:mod:`repro.transport.shm`) -- the same-host shared-memory fast
  path.  A dialing channel that shares a machine with the server and
  is asked to (``shm=True`` on ``connect``, ``ConnectionPool`` or
  ``NinfClient``; the default never does) offers ``SHM_HELLO`` over
  TCP; on agreement both sides attach a ring pair in place
  (``Channel.attach_io``) and frames -- same ``MAGIC|type|len|crc``
  header, then a table of the payload's bulk regions, the ``crc`` word
  covering header and table only -- flow through shared memory while
  the socket stays open purely as the liveness/close signal.  The
  :class:`Endpoint` answers every hello
  (:func:`repro.transport.shm.serve_hello`) and refuses only one it
  cannot take; refusals fall back to TCP silently.  Blocking channels
  are the only negotiating client side (the asyncio loop never blocks
  on ring polls).

Layering: ``xdr`` (encoding) -> ``protocol`` (framing + messages) ->
``transport`` (connections) -> ``client`` / ``server`` / ``metaserver``.
"""

from repro.transport.aiochannel import (
    AsyncChannel,
    AsyncFaultyChannel,
    aconnect,
    aconnect_with_faults,
)
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
from repro.transport.pool import ConnectionPool
from repro.transport.retry import RetryPolicy, is_transient
from repro.transport.shm import ShmRing, ShmTransport
from repro.transport.shm import negotiate as shm_negotiate

__all__ = [
    "AsyncChannel",
    "AsyncConnectionPool",
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
