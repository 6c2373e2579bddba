"""Shared TCP accept-loop + message-dispatch base for Ninf processes.

Both the computational server (:class:`repro.server.NinfServer`) and
the metaserver (:class:`repro.metaserver.Metaserver`) are one listening
socket, one accept thread, one handler thread per connection, and one
``MessageType -> handler`` dispatch table.  :class:`Endpoint` is that
skeleton, written once: subclasses register handlers and override the
:meth:`on_start`/:meth:`on_stop` hooks for their extra machinery
(executor pool, monitor thread).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Optional, TYPE_CHECKING

from repro.obs import MetricsRegistry, names
from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.messages import MessageType
from repro.transport.channel import Channel
from repro.xdr import XdrDecoder, XdrEncoder, XdrError

if TYPE_CHECKING:  # annotation only -- faults wiring happens per-socket
    from repro.transport.faults import FaultPlan

__all__ = ["Endpoint"]

Handler = Callable[[Channel, bytes], None]


class Endpoint:
    """A threaded TCP request/reply endpoint with a handler registry.

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
    shm:
        Whether to honour ``SHM_HELLO`` upgrade requests from same-host
        clients (PROTOCOL.md §"Shared-memory handshake").  ``None``
        (default) defers to the ``NINF_SHM`` environment opt-out;
        ``True``/``False`` force it.  Refused handshakes get a
        well-formed ``ErrorReply`` (the client keeps TCP) and count in
        ``ninf_shm_fallbacks_total``; upgrades count in
        ``ninf_shm_upgrades_total``.

    Every accepted connection is wrapped in a :class:`Channel` (which
    sets ``TCP_NODELAY``) and served by a daemon thread: frames are
    read in a loop and routed through the dispatch table.  An unknown
    ``MessageType`` gets a well-formed ``ErrorReply`` and the
    connection stays open; a malformed payload (``XdrError`` escaping a
    handler) gets ``bad-request``.  ``PING -> PONG``,
    ``STATS -> STATS_REPLY``, and ``SHM_HELLO -> SHM_HELLO_REPLY`` are
    pre-registered.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 name: str = "endpoint",
                 fault_plan: Optional["FaultPlan"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 backlog: int = 512, shm: Optional[bool] = None) -> None:
        self.name = name
        self.fault_plan = fault_plan
        self.backlog = backlog
        self.shm = shm
        self._bind_host = host
        self._bind_port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._running = False
        # Guards the lifecycle state above: start()/stop() may be called
        # from any thread, and the old check-then-act on _running let two
        # concurrent start() calls both pass the "already started" check.
        # Loop threads still read _running unlocked by design (a stale
        # True costs one extra accept() wakeup, nothing more).
        self._lock = threading.Lock()
        # Live connection threads, for stop().  GUARDED_BY(_lock).
        self._connections: dict[threading.Thread, Channel] = {}
        self._handlers: dict[int, Handler] = {}
        # Server-side observability: the connection-reuse acceptance
        # metric of the LAN benchmarks (pooled clients keep this at 1);
        # registry-backed, see the connections_accepted property.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if fault_plan is not None and fault_plan.metrics is None:
            fault_plan.metrics = self.metrics
        self._accepted = self.metrics.counter(
            names.ENDPOINT_CONNECTIONS_ACCEPTED,
            "TCP connections accepted by this endpoint")
        self._shm_upgrades = self.metrics.counter(
            names.SHM_UPGRADES,
            "Connections upgraded to the shared-memory transport")
        self._shm_fallbacks = self.metrics.counter(
            names.SHM_FALLBACKS,
            "SHM_HELLO requests refused (client stays on TCP)",
            labelnames=("reason",))
        self.register_handler(MessageType.PING, self._handle_ping)
        self.register_handler(MessageType.STATS, self._handle_stats)
        self.register_handler(MessageType.SHM_HELLO, self._handle_shm_hello)

    # -- handler registry ---------------------------------------------------

    def register_handler(self, msg_type: int, handler: Handler) -> None:
        """Route frames of ``msg_type`` to ``handler(channel, payload)``."""
        self._handlers[int(msg_type)] = handler

    def _handle_ping(self, channel: Channel, payload: bytes) -> None:
        channel.send(MessageType.PONG, payload)

    def _handle_stats(self, channel: Channel, payload: bytes) -> None:
        """The STATS op: reply with a snapshot of this endpoint's
        registry, JSON (default) or Prometheus text (``"prom"``)."""
        fmt = "json"
        if payload:
            fmt = XdrDecoder(payload).unpack_string()
        if fmt == "prom":
            text = self.metrics.render_prometheus()
        elif fmt == "json":
            text = json.dumps(self.metrics.snapshot(), sort_keys=True)
        else:
            channel.send_error("bad-request",
                               f"unknown stats format {fmt!r}")
            return
        enc = XdrEncoder()
        enc.pack_string(fmt)
        enc.pack_string(text)
        channel.send(MessageType.STATS_REPLY, enc.getvalue())

    def _handle_shm_hello(self, channel: Channel, payload: bytes) -> None:
        """The server half of the shm handshake: create a ring pair,
        advertise it over TCP, then reroute this connection's frames
        onto the rings.  Refusals are ordinary ``ErrorReply`` frames --
        the client falls back to TCP without redialing."""
        from repro.transport import shm as shm_mod

        if not shm_mod.shm_enabled(self.shm):
            self._shm_fallbacks.inc(reason="disabled")
            channel.send_error("shm-disabled",
                               "shared-memory transport is disabled here")
            return
        if channel.via_shm:
            self._shm_fallbacks.inc(reason="already-upgraded")
            channel.send_error("bad-request",
                               "connection already upgraded to shm")
            return
        hint = shm_mod.DEFAULT_CAPACITY
        if payload:
            hint = XdrDecoder(payload).unpack_uint()
        # Clamp the client's hint: tiny rings would deadlock-prone-poll,
        # huge ones would exhaust /dev/shm (often small in containers).
        capacity = max(1 << 12, min(hint or shm_mod.DEFAULT_CAPACITY,
                                    1 << 24))
        try:
            c2s = shm_mod.ShmRing.create(capacity)
        except OSError as exc:
            self._shm_fallbacks.inc(reason="alloc-failed")
            channel.send_error("shm-unavailable",
                               f"cannot allocate shm ring: {exc}")
            return
        try:
            s2c = shm_mod.ShmRing.create(capacity)
        except OSError as exc:
            c2s.close()
            self._shm_fallbacks.inc(reason="alloc-failed")
            channel.send_error("shm-unavailable",
                               f"cannot allocate shm ring: {exc}")
            return
        enc = XdrEncoder()
        enc.pack_string(c2s.name)
        enc.pack_string(s2c.name)
        enc.pack_uint(capacity)
        # Reply over TCP first, then attach: the next frame the client
        # sends after reading the reply already arrives via the ring.
        channel.send(MessageType.SHM_HELLO_REPLY, enc.getvalue())
        channel.attach_io(
            shm_mod.ShmTransport(send_ring=s2c, recv_ring=c2s))
        self._shm_upgrades.inc()

    @property
    def connections_accepted(self) -> int:
        """Connections accepted over this endpoint's lifetime
        (registry-backed: ``ninf_endpoint_connections_accepted_total``)."""
        return int(self._accepted.value())

    # -- lifecycle ----------------------------------------------------------

    def on_start(self) -> None:
        """Hook: runs before the listener accepts its first connection."""

    def on_stop(self) -> None:
        """Hook: runs after the listener closes, before thread joins."""

    def start(self) -> "Endpoint":
        """Bind, listen, and start the accept loop."""
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
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._bind_host, self._bind_port))
            listener.listen(self.backlog)
        except BaseException:
            # A failed bind/listen (port in use, bad address) must not
            # leak the fd or leave the endpoint claiming to run.
            listener.close()
            with self._lock:
                self._running = False
            raise
        with self._lock:
            self._listener = listener
        self.on_start()
        thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name=f"{self.name}-accept", daemon=True,
        )
        with self._lock:
            self._accept_thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Shut down: close the listener, run :meth:`on_stop`, then end
        and join the connection threads (bounded wait), so a connection's
        socket and shm rings are released by its own thread first."""
        with self._lock:
            self._running = False
            listener = self._listener
            self._listener = None
            thread = self._accept_thread
            self._accept_thread = None
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
        self.on_stop()
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

    def __enter__(self) -> "Endpoint":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError(f"{self.name} is not running")
        return self._listener.getsockname()[:2]

    # -- accept / dispatch --------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        # The listener arrives as an argument: stop() nulls
        # self._listener concurrently, and reading the attribute here
        # forced an AttributeError catch to paper over that race.
        while self._running:
            try:
                conn, _peer = listener.accept()
            except OSError:
                return  # listener closed
            if not self._running:
                conn.close()
                return
            self._accepted.inc()
            channel = Channel(conn)
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
            while True:
                try:
                    msg_type, payload = channel.recv()
                except ConnectionClosed:
                    return
                handler = self._handlers.get(msg_type)
                if handler is None:
                    channel.send_error(
                        "bad-message", f"unexpected message type {msg_type}"
                    )
                    continue
                try:
                    handler(channel, payload)
                except XdrError as exc:
                    channel.send_error("bad-request", str(exc))
        except (ProtocolError, OSError):
            pass
        finally:
            channel.close()
            with self._lock:
                self._connections.pop(threading.current_thread(), None)
