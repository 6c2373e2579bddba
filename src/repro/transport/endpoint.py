"""The request/reply endpoint: one core, and its thread-per-connection driver.

Both the computational servers (:class:`repro.server.NinfServer`,
:class:`repro.server.AsyncNinfServer`) and the metaserver
(:class:`repro.metaserver.Metaserver`) are one listening socket and one
``MessageType -> handler`` dispatch table.  :class:`EndpointCore` is
everything about that which does not touch a socket -- constructor
state, the registry, :meth:`~EndpointCore.dispatch` and its error
contract, the PING and STATS handlers, the lifecycle order -- written
once.  Its two drivers keep only their I/O: :class:`Endpoint` here
(accept thread, thread per connection) and
:class:`~repro.transport.aioendpoint.AsyncEndpoint` (event loop, task
per connection).

The handler contract is the same on both (DESIGN.md §3.6): plain
functions that never block and answer through a :class:`Connection`.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Any, Callable, Optional, TYPE_CHECKING, TypeVar

from repro.obs import MetricsRegistry, names
from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.framing import BytesLike
from repro.protocol.messages import (ErrorReply, MessageType, pack,
                                     unpack)
from repro.transport import shm
from repro.transport.channel import Channel
from repro.xdr import XdrError

if TYPE_CHECKING:  # annotation only -- faults wiring happens per-socket
    from repro.transport.faults import FaultPlan

__all__ = ["Connection", "Endpoint", "EndpointCore"]

#: How long a reply of the threaded driver may make no progress (a peer
#: that stopped reading) before its connection is given up: the writing
#: thread -- an executor PE, for a RESULT -- has other calls to serve.
REPLY_STALL_SECONDS = 30.0


class Connection:
    """What a handler sees of one accepted connection: best-effort
    replies, callable from any thread (executor completion callbacks
    included).  A reply that fails to send closes the connection and
    raises nowhere."""

    def send(self, msg_type: int, payload: BytesLike = b"") -> None:
        """Write one reply frame."""
        raise NotImplementedError

    def reply(self, op: int, *values: Any) -> None:
        """Write one ``op`` frame carrying its declared fields."""
        self.send(op, pack(op, *values))

    def send_error(self, code: str, message: str) -> None:
        """Reply with a well-formed ``ErrorReply`` frame."""
        self.reply(MessageType.ERROR, ErrorReply(code=code, message=message))


class _ThreadConnection(Connection):
    """A connection served by its own thread: ``send`` writes in place."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        # Reads idle between requests; a write may not stall for good.
        # The kernel fails a stalled socket send with EAGAIN; a ring has
        # no kernel, so send() gives a frame written there a deadline.
        channel.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack(
                "ll", *divmod(int(REPLY_STALL_SECONDS * 1e6), 10**6)))

    def send(self, msg_type: int, payload: BytesLike = b"") -> None:
        try:
            self.channel.send(msg_type, payload, timeout=(
                REPLY_STALL_SECONDS if self.channel.via_shm else None))
        except (ProtocolError, OSError):
            # The connection's own thread reads EOF and closes it.
            self.channel.shutdown()


#: ``handler(conn, payload)``; ``conn`` is the serving driver's
#: :class:`Connection` (or any object with ``send``/``send_error``).
Handler = Callable[..., None]
_E = TypeVar("_E", bound="EndpointCore")


class EndpointCore:
    """Handler registry, dispatch and lifecycle shared by both drivers.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    name:
        Thread-name prefix and HELLO identity.
    backlog:
        Explicit listen backlog (the kernel accept queue).  Bursty
        multi-client dials overflow small queues; refused dials are
        observable client-side as ``ninf_pool_dials_refused_total``.
    fault_plan:
        A :class:`~repro.transport.faults.FaultPlan` that wraps every
        accepted connection, making *server-side* faults (a delayed,
        corrupted, or dropped reply) injectable without touching any
        handler.
    metrics:
        The process's :class:`~repro.obs.MetricsRegistry` (default: a
        fresh one).  Every accepted channel records its framed I/O
        here, and the pre-registered ``STATS`` op exposes a snapshot of
        it remotely (see OBSERVABILITY.md).

    An unknown ``MessageType`` gets a well-formed ``ErrorReply``
    (``bad-message``) and the connection stays open; a malformed payload
    (``XdrError`` escaping a handler) gets ``bad-request``.
    ``PING -> PONG`` and ``STATS -> STATS_REPLY`` are pre-registered.

    A driver supplies the four I/O steps at the end of this class;
    :meth:`start`/:meth:`stop` run them around the :meth:`on_start`/
    :meth:`on_stop` hooks in the one order subclasses rely on.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 name: str = "endpoint",
                 fault_plan: Optional["FaultPlan"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 backlog: int = 512) -> None:
        self.name = name
        self.fault_plan = fault_plan
        self.backlog = backlog
        self._bind_host = host
        self._bind_port = port
        self._running = False
        self._address: Optional[tuple[str, int]] = None
        # Guards the lifecycle state: start()/stop() may be called from
        # any thread, and an unlocked check-then-act on _running lets
        # two concurrent start() calls both bind.  Serving code still
        # reads _running unlocked by design (a stale True costs one
        # extra accept, nothing more).
        self._lock = threading.Lock()
        self._handlers: dict[int, Handler] = {}
        # Message types whose handler may block (see
        # register_blocking_handler); only the loop driver consults it.
        self._blocking: set[int] = set()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if fault_plan is not None and fault_plan.metrics is None:
            fault_plan.metrics = self.metrics
        # The connection-reuse acceptance metric of the LAN benchmarks
        # (pooled clients keep this at 1).
        self._accepted = self.metrics.counter(
            names.ENDPOINT_CONNECTIONS_ACCEPTED,
            "TCP connections accepted by this endpoint")
        self.register_handler(MessageType.PING, self._handle_ping)
        self.register_blocking_handler(MessageType.STATS, self._handle_stats)

    # -- handler registry ---------------------------------------------------

    def register_handler(self, msg_type: int, handler: Handler) -> None:
        """Route frames of ``msg_type`` to ``handler(conn, payload)``,
        run in the connection's own context: it must not block."""
        self._handlers[int(msg_type)] = handler
        self._blocking.discard(int(msg_type))

    def register_blocking_handler(self, msg_type: int,
                                  handler: Handler) -> None:
        """:meth:`register_handler` for a handler that may block: the
        loop driver runs it on the default executor instead of the loop
        (a connection thread runs it in place either way)."""
        self.register_handler(msg_type, handler)
        self._blocking.add(int(msg_type))

    def dispatch(self, conn: Connection, msg_type: int,
                 payload: bytes) -> None:
        """Route one received frame to its handler."""
        handler = self._handlers.get(msg_type)
        if handler is None:
            conn.send_error("bad-message",
                            f"unexpected message type {msg_type}")
            return
        try:
            handler(conn, payload)
        except XdrError as exc:
            conn.send_error("bad-request", str(exc))

    def _handle_ping(self, conn: Connection, payload: bytes) -> None:
        conn.send(MessageType.PONG, payload)

    def _handle_stats(self, conn: Connection, payload: bytes) -> None:
        """The STATS op: reply with a snapshot of this endpoint's
        registry, JSON (default) or Prometheus text (``"prom"``).
        Rendering walks the whole registry under its lock -- contended
        and O(series) -- hence registered as blocking."""
        (fmt,) = unpack(MessageType.STATS, payload)
        if fmt == "prom":
            text = self.metrics.render_prometheus()
        elif fmt == "json":
            text = json.dumps(self.metrics.snapshot(), sort_keys=True)
        else:
            conn.send_error("bad-request", f"unknown stats format {fmt!r}")
            return
        conn.reply(MessageType.STATS_REPLY, fmt, text)

    @property
    def connections_accepted(self) -> int:
        """Connections accepted over this endpoint's lifetime
        (registry-backed: ``ninf_endpoint_connections_accepted_total``)."""
        return int(self._accepted.value())

    # -- lifecycle ----------------------------------------------------------

    def on_start(self) -> None:
        """Hook: runs before the listener accepts its first connection."""

    def on_stop(self) -> None:
        """Hook: runs after the listener closes, while the accepted
        connections are still open -- completion callbacks fired from
        here still deliver their replies."""

    def start(self: _E) -> _E:
        """Bind and listen, run :meth:`on_start`, then start accepting."""
        # Atomic check-and-set: two racing start() calls must not both
        # pass the "already started" gate and bind two listeners.
        with self._lock:
            if self._running:
                raise RuntimeError(f"{self.name} already started")
            # _running must be True before on_start: subclass hooks
            # spawn threads whose loops gate on it (the metaserver
            # monitor), and a thread scheduled immediately would
            # otherwise see False and exit before the first poll.
            self._running = True
        try:
            address = self._listen()
        except BaseException:
            # A failed bind/listen (port in use, bad address) must not
            # leave the endpoint claiming to run.
            with self._lock:
                self._running = False
            raise
        with self._lock:
            self._address = address
        self.on_start()
        self._accept_connections()
        return self

    def stop(self) -> None:
        """Close the listener, run :meth:`on_stop`, then end the
        accepted connections."""
        with self._lock:
            self._running = False
            self._address = None
        self._close_listener()
        self.on_stop()
        self._close_connections()

    def __enter__(self: _E) -> _E:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        address = self._address
        if address is None:
            raise RuntimeError(f"{self.name} is not running")
        return address

    # -- the driver's I/O ---------------------------------------------------

    def _listen(self) -> tuple[str, int]:
        """Bind and listen without accepting; returns the bound address
        (and leaks nothing when it raises)."""
        raise NotImplementedError

    def _accept_connections(self) -> None:
        raise NotImplementedError

    def _close_listener(self) -> None:
        raise NotImplementedError

    def _close_connections(self) -> None:
        raise NotImplementedError


class Endpoint(EndpointCore):
    """The threaded driver: an accept thread and one daemon thread per
    connection, each reading frames in a loop and dispatching them.

    Parameters are :class:`EndpointCore`'s.  Every accepted connection
    is wrapped in a :class:`Channel` (which sets ``TCP_NODELAY``);
    ``SHM_HELLO -> SHM_HELLO_REPLY`` (PROTOCOL.md §"Shared-memory
    handshake", :func:`repro.transport.shm.serve_hello`) is
    pre-registered next to the core's PING and STATS.  Upgrades count
    in ``ninf_shm_upgrades_total``; refusals -- well-formed
    ``ErrorReply`` frames, the client keeps TCP -- in
    ``ninf_shm_fallbacks_total`` by reason.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 name: str = "endpoint",
                 fault_plan: Optional["FaultPlan"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 backlog: int = 512) -> None:
        super().__init__(host=host, port=port, name=name,
                         fault_plan=fault_plan, metrics=metrics,
                         backlog=backlog)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        # Live connection threads, for stop().  GUARDED_BY(_lock).
        self._connections: dict[threading.Thread, Channel] = {}
        self._shm_upgrades = self.metrics.counter(
            names.SHM_UPGRADES,
            "Connections upgraded to the shared-memory transport")
        self._shm_fallbacks = self.metrics.counter(
            names.SHM_FALLBACKS,
            "SHM_HELLO requests refused (client stays on TCP)",
            labelnames=("reason",))
        self.register_handler(MessageType.SHM_HELLO, self._handle_shm_hello)

    def _handle_shm_hello(self, conn: _ThreadConnection,
                          payload: bytes) -> None:
        refused = shm.serve_hello(conn, payload)
        if refused is None:
            self._shm_upgrades.inc()
        else:
            self._shm_fallbacks.inc(reason=refused)

    # -- the driver's I/O ---------------------------------------------------

    def _listen(self) -> tuple[str, int]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._bind_host, self._bind_port))
            listener.listen(self.backlog)
        except BaseException:
            listener.close()
            raise
        with self._lock:
            self._listener = listener
        return listener.getsockname()[:2]

    def _accept_connections(self) -> None:
        with self._lock:
            listener = self._listener
            if listener is None:
                return  # stop() won the race
            thread = self._accept_thread = threading.Thread(
                target=self._accept_loop, args=(listener,),
                name=f"{self.name}-accept", daemon=True)
        thread.start()

    def _close_listener(self) -> None:
        with self._lock:
            listener = self._listener
            self._listener = None
        if listener is not None:
            # shutdown() (not just close()) is required to wake a thread
            # blocked in accept(); close() alone leaves it accepting on
            # the dead fd (and, after fd reuse, stealing other sockets'
            # connections).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    def _close_connections(self) -> None:
        """End and join the connection threads (bounded wait), so a
        connection's socket and shm rings are released by its own
        thread first."""
        with self._lock:
            thread = self._accept_thread
            self._accept_thread = None
        if thread is not None:
            thread.join(timeout=5.0)
        # After the accept thread: no new connection can register now.
        with self._lock:
            connections = dict(self._connections)
        for channel in connections.values():
            channel.shutdown()
        deadline = time.monotonic() + 5.0
        for conn_thread in connections:
            if conn_thread is not threading.current_thread():
                conn_thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def _accept_loop(self, listener: socket.socket) -> None:
        # The listener arrives as an argument: stop() nulls
        # self._listener concurrently.
        while self._running:
            try:
                sock, _peer = listener.accept()
            except OSError:
                return  # listener closed
            if not self._running:
                sock.close()
                return
            self._accepted.inc()
            channel = Channel(sock)
            if self.fault_plan is not None:
                channel = self.fault_plan.wrap(channel)
            channel.metrics = self.metrics
            conn_thread = threading.Thread(
                target=self._serve_connection, args=(channel,),
                name=f"{self.name}-conn", daemon=True,
            )
            with self._lock:
                self._connections[conn_thread] = channel
            conn_thread.start()

    def _serve_connection(self, channel: Channel) -> None:
        try:
            conn = _ThreadConnection(channel)
            while True:
                try:
                    msg_type, payload = channel.recv()
                except ConnectionClosed:
                    return
                self.dispatch(conn, msg_type, payload)
        except (ProtocolError, OSError):
            pass
        finally:
            channel.close()
            with self._lock:
                self._connections.pop(threading.current_thread(), None)
