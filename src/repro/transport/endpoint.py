"""The request/reply endpoint: one core, and its reactor driver.

Both the computational server (:class:`repro.server.NinfServer`) and
the metaserver (:class:`repro.metaserver.Metaserver`) are one listening
socket and one ``MessageType -> handler`` dispatch table.
:class:`EndpointCore` is everything about that which does not touch a
socket -- constructor state, the registry,
:meth:`~EndpointCore.dispatch` and its error contract, the PING and
STATS handlers, the lifecycle order.  :class:`Endpoint` is its driver:
one reactor thread accepts every connection and reads every TCP one,
and a connection upgraded to the shared-memory ring gets a thread of
its own.

The handler contract (DESIGN.md §3.6): plain functions that never block
-- the reactor runs them in place, for every connection at once -- and
answer through a :class:`Connection`.
"""

from __future__ import annotations

import collections
import json
import selectors
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (Any, Callable, Iterator, Optional, TYPE_CHECKING,
                    TypeVar, Union)

from repro.obs import MetricsRegistry, names
from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.framing import BytesLike, FrameReader, unsent
from repro.protocol.messages import (ErrorReply, MessageType, pack,
                                     unpack)
from repro.transport import shm
from repro.transport.channel import Channel
from repro.xdr import XdrError

if TYPE_CHECKING:  # annotation only -- faults wiring happens per-socket
    from repro.transport.faults import FaultPlan

__all__ = ["Connection", "Endpoint", "EndpointCore"]

#: How long a reply may make no progress (a peer that stopped reading)
#: before its connection is given up: the thread writing it -- a PE
#: thread for a RESULT, a writer thread for what the reactor could not
#: write at once -- has other work to do.
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


class _ReplySocket(socket.socket):
    """An accepted TCP socket whose frame writes never wait for the peer.

    A frame write (``send_gathers``, or ``sendall`` of a pre-framed one,
    under the channel's send lock) puts what the kernel takes at once on
    the wire and keeps the rest as a backlog, owned by the thread that
    left it (:attr:`owner`), for :meth:`drain` to write out blocking --
    ``SO_SNDTIMEO`` (:data:`REPLY_STALL_SECONDS`) bounds a stall.  A
    frame written while a backlog is owned queues behind it, so no
    writer ever waits for another.  A PE thread drains its own backlog
    before its ``send`` returns, so that backlog may be views of its
    buffers and the rest of its frame not yet drawn: a bulk region is
    converted into the thread's one piece buffer only as the piece
    before it has gone out.  The reactor must not block, so its backlog
    is copied and handed to a writer thread (:meth:`Endpoint._park`),
    which also waits out another thread's (:meth:`wait_flushed`).
    """

    # Thousands are held at once: no per-socket ``__dict__``.
    __slots__ = ("reactor", "owner", "_lock", "_backlog", "_flushed")

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(fileno=sock.detach())
        self.reactor = threading.get_ident()  # accepted on the reactor
        self._lock = threading.Lock()
        # GUARDED_BY(_lock): what the kernel has not taken yet, in order
        # -- bytes, or the buffer lists of a frame still to be drawn --
        # and the condition wait_flushed() makes.
        self._backlog: list[Union[BytesLike,
                                  Iterator[list[BytesLike]]]] = []
        self._flushed: Optional[threading.Condition] = None
        # The thread that owes the socket the backlog (None: no backlog).
        self.owner: Optional[int] = None
        self.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack(
            "ll", *divmod(int(REPLY_STALL_SECONDS * 1e6), 10**6)))

    def sendall(self, data: BytesLike, flags: int = 0) -> None:
        self.send_gathers(iter(([data],)))

    def send_gathers(self, gathers: Iterator[list[BytesLike]]) -> None:
        """Write one frame, given as buffer lists each valid until the
        next is drawn (``framing.send_frame``)."""
        with self._lock:
            if self.owner is not None:
                # Queue behind the owner's backlog; copied, because the
                # caller reuses its buffers once this returns.
                self._backlog.extend(bytes(buf) for gather in gathers
                                     for buf in gather)
                return
        # No backlog: it only starts here, under the channel's send lock.
        for gather in gathers:
            try:
                sent = super().sendmsg(gather, (), socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            if sent == sum(map(len, gather)):
                continue
            rest = unsent(gather, sent)
            me = threading.get_ident()
            with self._lock:
                self.owner = me
                if me == self.reactor:
                    self._backlog.extend(bytes(view) for view in rest)
                    self._backlog.extend(bytes(buf) for gather in gathers
                                         for buf in gather)
                else:
                    self._backlog.extend(rest)
                    self._backlog.append(gathers)
            return

    def drain(self) -> None:
        """Write out the backlog this thread owns, blocking; raises
        :class:`OSError` when the peer is gone or stalls."""
        try:
            while True:
                with self._lock:
                    if not self._backlog:
                        self._flushed_locked()
                        return
                    item = self._backlog.pop(0)
                if isinstance(item, (bytes, bytearray, memoryview)):
                    super().sendall(item)
                else:
                    for gather in item:
                        for buf in gather:
                            super().sendall(buf)
        except OSError:
            with self._lock:
                self._backlog.clear()
                self._flushed_locked()
            raise

    def _flushed_locked(self) -> None:
        self.owner = None
        if self._flushed is not None:
            self._flushed.notify_all()

    def wait_flushed(self) -> None:
        """Wait until no thread but the reactor owes the socket a
        backlog."""
        with self._lock:
            if self._flushed is None:
                self._flushed = threading.Condition(self._lock)
            while self.owner not in (None, self.reactor):
                self._flushed.wait()


class _SocketConnection(Connection):
    """One accepted connection: ``send`` writes on whichever thread has
    the reply, under the channel's send lock, and never waits for the
    peer on the reactor (:class:`_ReplySocket`); :attr:`reader` holds
    the frame the reactor is part-way through reading."""

    def __init__(self, channel: Channel, sock: _ReplySocket,
                 closed: Callable[["_SocketConnection"], None]) -> None:
        self.channel = channel
        self.sock = sock
        self.reader = FrameReader()
        self._closed = closed
        # (delay, rest) the reactor drew and left to the writer thread.
        self.later: collections.deque[tuple[float, Callable[[], None]]] = \
            collections.deque()

    def defer(self, delay: float, rest: Callable[[], None]) -> bool:
        """Leave a fault delay drawn on the reactor to the writer."""
        if threading.get_ident() != self.sock.reactor:
            return False
        self.later.append((delay, rest))
        return True

    def send(self, msg_type: int, payload: BytesLike = b"") -> None:
        sock = self.sock
        try:
            # A ring has no kernel buffer to park a frame in: a frame
            # written there gets a deadline instead.
            self.channel.send(msg_type, payload, timeout=(
                REPLY_STALL_SECONDS if self.channel.via_shm else None))
            me = threading.get_ident()
            if sock.owner == me != sock.reactor:
                sock.drain()
        except (ProtocolError, OSError):
            # Whoever reads the connection sees EOF and closes it.
            self.channel.shutdown()
        if self.channel.closed:
            # A send fault closed the socket here: no EOF will tell.
            self._closed(self)


#: ``handler(conn, payload)``; ``conn`` is the serving driver's
#: :class:`Connection` (or any object with ``send``/``send_error``).
Handler = Callable[..., None]
_E = TypeVar("_E", bound="EndpointCore")


class EndpointCore:
    """Handler registry, dispatch and lifecycle of an endpoint.

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
        # Started by the first STATS request.  GUARDED_BY(_lock).
        self._stats_worker: Optional[ThreadPoolExecutor] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if fault_plan is not None and fault_plan.metrics is None:
            fault_plan.metrics = self.metrics
        # The connection-reuse acceptance metric of the LAN benchmarks
        # (pooled clients keep this at 1).
        self._accepted = self.metrics.counter(
            names.ENDPOINT_CONNECTIONS_ACCEPTED,
            "TCP connections accepted by this endpoint")
        self.register_handler(MessageType.PING, self._handle_ping)
        self.register_handler(MessageType.STATS, self._handle_stats)

    # -- handler registry ---------------------------------------------------

    def register_handler(self, msg_type: int, handler: Handler) -> None:
        """Route frames of ``msg_type`` to ``handler(conn, payload)``,
        run by the thread that read the frame: it must not block."""
        self._handlers[int(msg_type)] = handler

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
        Rendering walks the whole registry under its lock, O(series),
        so the endpoint's one stats thread renders and replies, in the
        order the requests came."""
        (fmt,) = unpack(MessageType.STATS, payload)
        if fmt not in ("prom", "json"):
            conn.send_error("bad-request", f"unknown stats format {fmt!r}")
            return
        with self._lock:
            if self._stats_worker is None:
                self._stats_worker = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"{self.name}-stats")
            worker = self._stats_worker
        worker.submit(self._send_stats, conn, fmt)

    def _send_stats(self, conn: Connection, fmt: str) -> None:
        text = (self.metrics.render_prometheus() if fmt == "prom" else
                json.dumps(self.metrics.snapshot(), sort_keys=True))
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
        accepted connections and the stats thread."""
        with self._lock:
            self._running = False
            self._address = None
        self._close_listener()
        self.on_stop()
        self._close_connections()
        with self._lock:
            worker, self._stats_worker = self._stats_worker, None
        if worker is not None:
            worker.shutdown(cancel_futures=True)

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
    """The reactor driver: one daemon thread (``<name>-reactor``) owns a
    :class:`selectors.DefaultSelector` over the listener and every TCP
    connection.

    On each wakeup it accepts what the backlog holds, and reads a ready
    connection into its :class:`~repro.protocol.framing.FrameReader`
    (``MSG_DONTWAIT``) until a frame completes or the socket runs dry.
    A completed frame takes the plan's recv step (a connection wrapped
    by ``fault_plan``) and is dispatched in place.  A reply goes out on
    the thread that has it, under the channel's send lock -- a PE
    thread writes its RESULT with no hop -- and no write waits for
    another (:class:`_ReplySocket`).  A reply the reactor cannot write
    at once parks its connection: it is not read while a
    ``<name>-writer`` thread writes the rest out, within
    :data:`REPLY_STALL_SECONDS` of no progress.  So does a fault delay
    drawn on the reactor: the writer thread sleeps it, then dispatches
    the frame or finishes the send.  Idle connections cost
    a selector entry, not a thread; the live count is
    ``ninf_server_connections_open``.

    Parameters are :class:`EndpointCore`'s.  Every accepted connection
    is wrapped in a :class:`Channel` (which sets ``TCP_NODELAY``);
    ``SHM_HELLO -> SHM_HELLO_REPLY`` (PROTOCOL.md §"Shared-memory
    handshake", :func:`repro.transport.shm.serve_hello`) is
    pre-registered next to the core's PING and STATS.  An upgraded
    connection leaves the selector for a thread of its own, which polls
    its ring.  Upgrades count in ``ninf_shm_upgrades_total``; refusals
    -- well-formed ``ErrorReply`` frames, the client keeps TCP -- in
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
        self._reactor: Optional[threading.Thread] = None
        # The write end of the reactor's wake-up pair: closing it ends
        # the reactor.  GUARDED_BY(_lock), like _reactor.
        self._wake: Optional[socket.socket] = None
        # Ring connection threads, for stop().  GUARDED_BY(_lock).
        self._rings: dict[threading.Thread, Channel] = {}
        # Connections for the reactor to look at again (appended
        # anywhere, taken by the reactor): closed by a writing thread,
        # or parked ones whose backlog is written out.
        self._returned: collections.deque[_SocketConnection] = \
            collections.deque()
        # Connections not read while a writer thread writes out the
        # backlog a reply of the reactor's left (the reactor's own).
        self._parked: set[_SocketConnection] = set()
        self._open = self.metrics.gauge(
            names.SERVER_CONNECTIONS_OPEN,
            "Connections currently being served")
        self._shm_upgrades = self.metrics.counter(
            names.SHM_UPGRADES,
            "Connections upgraded to the shared-memory transport")
        self._shm_fallbacks = self.metrics.counter(
            names.SHM_FALLBACKS,
            "SHM_HELLO requests refused (client stays on TCP)",
            labelnames=("reason",))
        self.register_handler(MessageType.SHM_HELLO, self._handle_shm_hello)

    @property
    def connections_open(self) -> int:
        """Connections currently being served (registry-backed gauge
        ``ninf_server_connections_open``)."""
        return int(self._open.value())

    def _handle_shm_hello(self, conn: _SocketConnection,
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
            listener.setblocking(False)
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
            wake, self._wake = socket.socketpair()
            # Registered here, before stop() can close the listener;
            # the selector is the reactor's from its first select().
            selector = selectors.DefaultSelector()
            selector.register(listener, selectors.EVENT_READ)
            selector.register(wake, selectors.EVENT_READ)
            thread = self._reactor = threading.Thread(
                target=self._react, args=(selector, listener, wake),
                name=f"{self.name}-reactor", daemon=True)
        thread.start()

    def _close_listener(self) -> None:
        with self._lock:
            listener = self._listener
            self._listener = None
        if listener is not None:
            # The kernel drops a closed descriptor from the selector; a
            # reactor already past its select() fails the accept.
            try:
                listener.close()
            except OSError:
                pass

    def _close_connections(self) -> None:
        """End the reactor, which closes every TCP connection, then the
        ring threads (bounded waits), each closing its own channel."""
        with self._lock:
            thread, wake = self._reactor, self._wake
            self._reactor = self._wake = None
        if wake is not None:
            wake.close()  # the reactor reads EOF on its end
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        # After the reactor: no connection can move to a ring now.
        with self._lock:
            rings = dict(self._rings)
        for channel in rings.values():
            channel.shutdown()
        deadline = time.monotonic() + 5.0
        for ring_thread in rings:
            if ring_thread is not threading.current_thread():
                ring_thread.join(timeout=max(0.0, deadline - time.monotonic()))

    # -- the reactor --------------------------------------------------------

    def _react(self, selector: selectors.BaseSelector,
               listener: socket.socket, wake: socket.socket) -> None:
        # The listener arrives as an argument: stop() nulls
        # self._listener concurrently.
        try:
            while True:
                for key, _mask in selector.select():
                    if key.data is not None:
                        self._read(selector, key.data)
                    elif key.fileobj is listener:
                        self._accept(selector, listener)
                    elif not wake.recv(4096):
                        return  # stop() closed the wake-up pair
                    else:
                        while self._returned:
                            self._take_back(selector,
                                            self._returned.popleft())
        finally:
            for conn in [key.data for key in selector.get_map().values()
                         if key.data is not None] + list(self._parked):
                # A shut-down socket also fails a writer blocked on it.
                conn.channel.shutdown()
                self._drop(selector, conn)
            selector.close()
            wake.close()

    def _accept(self, selector: selectors.BaseSelector,
                listener: socket.socket) -> None:
        while True:
            try:
                sock, _peer = listener.accept()
            except OSError:
                return  # backlog drained, or listener closed by stop()
            if not self._running:
                sock.close()
                return
            self._accepted.inc()
            sock = _ReplySocket(sock)
            conn = _SocketConnection(Channel(sock), sock, self._give_back)
            if self.fault_plan is not None:
                faulty = conn.channel = self.fault_plan.wrap(conn.channel)
                faulty.defer = conn.defer
            conn.channel.metrics = self.metrics
            try:
                selector.register(sock, selectors.EVENT_READ, conn)
            except KeyError:
                # A writing thread closed this descriptor's last holder
                # (a send fault drops its connection) and the kernel
                # reused the number: the old entry is stale.
                self._drop(selector, selector.get_key(sock).data)
                selector.register(sock, selectors.EVENT_READ, conn)
            self._open.inc()

    def _read(self, selector: selectors.BaseSelector,
              conn: _SocketConnection) -> None:
        """Read what has arrived on ``conn``; dispatch a completed
        frame in place."""
        channel, reader, sock = conn.channel, conn.reader, conn.sock
        try:
            while True:
                try:
                    nbytes = sock.recv_into(
                        reader.buffer(), 0, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    return
                if not nbytes:
                    raise ConnectionClosed(
                        f"connection closed with {reader.outstanding} "
                        f"bytes outstanding")
                frame = reader.advance(nbytes)
                if frame is not None:
                    break
            delay = channel.received_delay()
            if delay:
                conn.later.append((delay, lambda: self.dispatch(
                    conn, *channel.received(*frame))))
            else:
                self.dispatch(conn, *channel.received(*frame))
        except (ProtocolError, OSError):
            self._drop(selector, conn)
            return
        except Exception as exc:
            # A failing handler ends its connection, not the reactor.
            self._drop(selector, conn)
            sys.excepthook(type(exc), exc, exc.__traceback__)
            return
        if channel.via_shm:
            self._to_ring(selector, conn)
        elif sock.owner is not None or conn.later:
            self._park(selector, conn)

    def _to_ring(self, selector: selectors.BaseSelector,
                 conn: _SocketConnection) -> None:
        """Ring waits are polled: an upgraded connection gets its own
        thread (which first writes out any backlog the reactor left)."""
        selector.unregister(conn.sock)
        thread = threading.Thread(
            target=self._serve_ring, args=(conn,),
            name=f"{self.name}-ring", daemon=True)
        with self._lock:
            self._rings[thread] = conn.channel
        thread.start()

    def _park(self, selector: selectors.BaseSelector,
              conn: _SocketConnection) -> None:
        """``conn`` has a backlog or a fault delay: stop reading it (a
        peer that does not read its replies has no more requests read)
        while a writer thread waits out the delays, then writes out the
        reactor's backlog, or waits out a PE thread's."""
        selector.unregister(conn.sock)
        self._parked.add(conn)
        threading.Thread(target=self._write_out, args=(conn,),
                         name=f"{self.name}-writer", daemon=True).start()

    def _write_out(self, conn: _SocketConnection) -> None:
        sock, me = conn.sock, threading.get_ident()
        try:
            # A delayed frame's dispatch, or the rest of a delayed send.
            while conn.later and not conn.channel.closed:
                delay, rest = conn.later.popleft()
                time.sleep(delay)
                rest()
                if sock.owner == me:
                    sock.drain()
            # Only the reactor's backlog is left for this thread: a PE
            # thread drains its own.
            sock.wait_flushed()
            if sock.owner == sock.reactor:
                sock.drain()
        except Exception as exc:
            conn.channel.shutdown()  # the reactor reads EOF, and drops it
            if not isinstance(exc, (ProtocolError, OSError)):
                sys.excepthook(type(exc), exc, exc.__traceback__)
        self._give_back(conn)

    def _give_back(self, conn: _SocketConnection) -> None:
        """From a writing thread: have the reactor look at ``conn``
        again -- its socket closed by a send fault (no EOF will tell),
        or its backlog written out."""
        self._returned.append(conn)
        wake = self._wake
        if wake is not None:
            try:
                wake.send(b"\0", socket.MSG_DONTWAIT)
            except OSError:
                pass  # already woken (buffer full), or stopping

    def _take_back(self, selector: selectors.BaseSelector,
                   conn: _SocketConnection) -> None:
        if conn.channel.closed:
            self._drop(selector, conn)
        elif conn in self._parked:
            self._parked.discard(conn)
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            if conn.channel.via_shm:  # upgraded by a delayed SHM_HELLO
                self._to_ring(selector, conn)

    def _drop(self, selector: selectors.BaseSelector,
              conn: _SocketConnection) -> None:
        if conn in self._parked:
            self._parked.discard(conn)
        else:
            try:
                selector.unregister(conn.sock)
            except (KeyError, ValueError):
                return  # dropped already
        conn.channel.close()
        self._open.dec()

    def _serve_ring(self, conn: _SocketConnection) -> None:
        channel, sock = conn.channel, conn.sock
        try:
            if sock.owner == sock.reactor:
                sock.drain()
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
            self._open.dec()
            with self._lock:
                self._rings.pop(threading.current_thread(), None)
