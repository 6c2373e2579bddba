"""Event-loop TCP accept/dispatch base: the C10K-capable Endpoint.

:class:`AsyncEndpoint` is the asyncio twin of
:class:`~repro.transport.endpoint.Endpoint`: one ``asyncio.Server``
(instead of an accept thread), one connection *task* (instead of a
thread) per accepted socket, and the same ``MessageType -> handler``
dispatch table with the same error contract (unknown type ->
``bad-message`` and the connection survives; ``XdrError`` escaping a
handler -> ``bad-request``; protocol/socket failure -> close).

The lifecycle surface is deliberately synchronous -- ``start()`` /
``stop()`` / ``with`` -- so subclasses and callers of the threaded
endpoint port over unchanged: the endpoint owns a private
:class:`~repro.transport.loopbridge.LoopThread` and drives its loop
from whatever thread the caller is on.

Handlers may be either coroutines (awaited on the loop with the raw
:class:`~repro.transport.aiochannel.AsyncChannel`) or plain callables
(the entire existing :class:`~repro.server.NinfServer` handler set):
sync handlers run in a bounded thread pool via ``run_in_executor`` and
receive a :class:`~repro.transport.loopbridge.FacadeChannel`, so they
may block (dedup waits, executor admission) and may send replies from
*other* threads (executor completion callbacks) without ever stalling
the loop.

Observability: ``ninf_endpoint_connections_accepted_total`` (as on the
threaded endpoint) plus the event-loop vitals
``ninf_server_connections_open`` (gauge) and
``ninf_server_loop_lag_seconds`` (histogram, sampled by a sleep-drift
monitor task) -- see OBSERVABILITY.md.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from typing import Callable, Optional

from repro.obs import MetricsRegistry, names
from repro.protocol.aframing import FrameStream
from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.messages import MessageType
from repro.transport.aiochannel import AsyncChannel, AsyncFaultyChannel
from repro.transport.faults import FaultPlan
from repro.transport.loopbridge import FacadeChannel, LoopThread
from repro.xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = ["AsyncEndpoint"]

Handler = Callable[..., object]

#: Sub-millisecond to one-second lag buckets: loop lag is healthy in
#: the tens of microseconds and pathological past ~100 ms.
_LAG_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                0.05, 0.1, 0.25, 0.5, 1.0)


class AsyncEndpoint:
    """An event-loop TCP request/reply endpoint with a handler registry.

    Parameters match :class:`~repro.transport.endpoint.Endpoint`
    (``host``/``port``/``name``/``fault_plan``/``metrics``), plus:

    backlog:
        Explicit listen backlog.  Bursty C10K dials overflow the
        kernel's default accept queue; refused dials surface client-side
        in ``ninf_pool_dials_refused_total``.
    handler_threads:
        Size of the thread pool that runs *sync* handlers.  Blocking
        handlers occupy a worker, never the loop.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 name: str = "aio-endpoint",
                 fault_plan: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 backlog: int = 512, handler_threads: int = 32) -> None:
        self.name = name
        self.fault_plan = fault_plan
        self.backlog = backlog
        self.handler_threads = handler_threads
        self._bind_host = host
        self._bind_port = port
        self._runner: Optional[LoopThread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._sockname: Optional[tuple[str, int]] = None
        self._handler_pool: Optional[
            concurrent.futures.ThreadPoolExecutor] = None
        self._running = False
        # Guards the lifecycle state above; same discipline as the
        # threaded Endpoint (start/stop race from any thread, loop-side
        # code reads _running unlocked by design).
        self._lock = threading.Lock()
        self._handlers: dict[int, Handler] = {}
        # Loop-affine state: only the loop thread touches these.
        self._conn_tasks: set[asyncio.Task] = set()
        self._lag_task: Optional[asyncio.Task] = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if fault_plan is not None and fault_plan.metrics is None:
            fault_plan.metrics = self.metrics
        self._accepted = self.metrics.counter(
            names.ENDPOINT_CONNECTIONS_ACCEPTED,
            "TCP connections accepted by this endpoint")
        self._open_gauge = self.metrics.gauge(
            names.SERVER_CONNECTIONS_OPEN,
            "Connections currently being served")
        self._loop_lag = self.metrics.histogram(
            names.SERVER_LOOP_LAG,
            "Event-loop scheduling lag sampled by the drift monitor",
            buckets=_LAG_BUCKETS)
        self.register_handler(MessageType.PING, self._handle_ping)
        self.register_handler(MessageType.STATS, self._handle_stats)

    # -- handler registry ---------------------------------------------------

    def register_handler(self, msg_type: int, handler: Handler) -> None:
        """Route frames of ``msg_type`` to ``handler(channel, payload)``.

        A coroutine function is awaited on the loop with the
        :class:`AsyncChannel`; a plain callable runs in the handler
        thread pool with a :class:`FacadeChannel`.
        """
        self._handlers[int(msg_type)] = handler

    async def _handle_ping(self, channel: AsyncChannel,
                           payload: bytes) -> None:
        await channel.send(MessageType.PONG, payload)

    async def _handle_stats(self, channel: AsyncChannel,
                            payload: bytes) -> None:
        """The STATS op: reply with a snapshot of this endpoint's
        registry, JSON (default) or Prometheus text (``"prom"``)."""
        fmt = "json"
        if payload:
            fmt = XdrDecoder(payload).unpack_string()
        # Rendering walks the whole registry under its lock -- a
        # contended, O(series) operation that must not stall the accept
        # loop, so it runs on the default executor.
        loop = asyncio.get_running_loop()
        if fmt == "prom":
            text = await loop.run_in_executor(
                None, self.metrics.render_prometheus)
        elif fmt == "json":
            snapshot = await loop.run_in_executor(
                None, self.metrics.snapshot)
            text = json.dumps(snapshot, sort_keys=True)
        else:
            await channel.send_error("bad-request",
                                     f"unknown stats format {fmt!r}")
            return
        enc = XdrEncoder()
        enc.pack_string(fmt)
        enc.pack_string(text)
        await channel.send(MessageType.STATS_REPLY, enc.getvalue())

    @property
    def connections_accepted(self) -> int:
        """Connections accepted over this endpoint's lifetime
        (registry-backed: ``ninf_endpoint_connections_accepted_total``)."""
        return int(self._accepted.value())

    @property
    def connections_open(self) -> int:
        """Connections currently being served (registry-backed gauge
        ``ninf_server_connections_open``)."""
        return int(self._open_gauge.value())

    # -- lifecycle ----------------------------------------------------------

    def on_start(self) -> None:
        """Hook: runs before the listener accepts its first connection."""

    def on_stop(self) -> None:
        """Hook: runs after the listener closes, while the loop (and the
        accepted connections) are still alive -- in-flight completion
        callbacks can still deliver replies."""

    def start(self) -> "AsyncEndpoint":
        """Bind, listen, and start serving on a private loop thread."""
        with self._lock:
            if self._running:
                raise RuntimeError(f"{self.name} already started")
            self._running = True
        runner = LoopThread(name=f"{self.name}-loop")
        try:
            server, sockname = runner.run(self._open_listener())
        except BaseException:
            # A failed bind (port in use, bad address) must not leak
            # the loop thread or leave the endpoint claiming to run.
            runner.stop()
            with self._lock:
                self._running = False
            raise
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.handler_threads,
            thread_name_prefix=f"{self.name}-handler")
        with self._lock:
            self._runner = runner
            self._server = server
            self._sockname = sockname
            self._handler_pool = pool
        # Same ordering contract as the threaded Endpoint: the listener
        # exists, on_start() machinery (executor pool, monitors) comes
        # up, and only then does the first accept happen.
        self.on_start()
        runner.run(self._begin_serving(server))
        return self

    def stop(self) -> None:
        """Shut down: close the listener, run :meth:`on_stop`, then tear
        down connection tasks and the loop."""
        with self._lock:
            self._running = False
            runner = self._runner
            self._runner = None
            server = self._server
            self._server = None
            self._sockname = None
            pool = self._handler_pool
            self._handler_pool = None
        if runner is not None and server is not None:
            try:
                runner.run(self._close_listener(server), timeout=5.0)
            except (OSError, concurrent.futures.TimeoutError):
                pass
        # on_stop drains subclass machinery (the PE executor) while the
        # loop still runs: queued jobs complete or abort and their
        # replies travel the still-open connections.
        self.on_stop()
        if runner is not None:
            try:
                runner.run(self._cancel_connections(), timeout=5.0)
            except (OSError, concurrent.futures.TimeoutError):
                pass
            runner.stop()
        if pool is not None:
            pool.shutdown(wait=False)

    def __enter__(self) -> "AsyncEndpoint":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        with self._lock:
            sockname = self._sockname
        if sockname is None:
            raise RuntimeError(f"{self.name} is not running")
        return sockname

    # -- loop-side lifecycle -------------------------------------------------

    async def _open_listener(self) -> tuple[asyncio.Server, tuple[str, int]]:
        server = await asyncio.get_running_loop().create_server(
            lambda: FrameStream(on_connect=self._accept),
            self._bind_host, self._bind_port,
            backlog=self.backlog, reuse_address=True, start_serving=False)
        return server, server.sockets[0].getsockname()[:2]

    async def _begin_serving(self, server: asyncio.AbstractServer) -> None:
        self._lag_task = asyncio.get_running_loop().create_task(
            self._monitor_lag())
        await server.start_serving()

    async def _close_listener(self, server: asyncio.AbstractServer) -> None:
        # close() alone: on 3.12+ wait_closed() also waits for every
        # accepted connection to finish, which would deadlock against
        # clients holding pooled connections open.
        server.close()

    async def _cancel_connections(self) -> None:
        # One tick first: a connection accepted just before the
        # listener closed may have its connection_made callback
        # queued but not yet run -- let it register (and see _running
        # False) so it is torn down here, not leaked to GC.
        await asyncio.sleep(0)
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)
            # channel.close() in the tasks' finally blocks only
            # *schedules* the transport teardown (call_soon); yield two
            # ticks so the sockets actually close -- peers must see FIN
            # before the loop stops, not at process exit.
            await asyncio.sleep(0)
            await asyncio.sleep(0)

    async def _monitor_lag(self, interval: float = 0.05) -> None:
        """Observe scheduling lag: how late a timed sleep wakes up."""
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            self._loop_lag.observe(max(0.0, loop.time() - before - interval))

    # -- accept / dispatch --------------------------------------------------

    def _accept(self, stream: FrameStream) -> None:
        """``connection_made`` of an accepted socket: one task serves it."""
        if not self._running:
            stream.transport.close()
            return
        self._accepted.inc()
        if self.fault_plan is not None:
            channel: AsyncChannel = AsyncFaultyChannel(stream, self.fault_plan)
        else:
            channel = AsyncChannel(stream)
        channel.metrics = self.metrics
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(channel))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(self, channel: AsyncChannel) -> None:
        # Captured once: stop() nulls the attributes concurrently, but a
        # connection that is already being served keeps its bridge.
        runner = self._runner
        pool = self._handler_pool
        facade: Optional[FacadeChannel] = None
        self._open_gauge.inc()
        try:
            while True:
                try:
                    msg_type, payload = await channel.recv()
                except ConnectionClosed:
                    return
                handler = self._handlers.get(msg_type)
                if handler is None:
                    await channel.send_error(
                        "bad-message", f"unexpected message type {msg_type}"
                    )
                    continue
                try:
                    if asyncio.iscoroutinefunction(handler):
                        await handler(channel, payload)
                    else:
                        if facade is None:
                            facade = FacadeChannel(channel, runner)
                        await asyncio.get_running_loop().run_in_executor(
                            pool, handler, facade, payload)
                except XdrError as exc:
                    await channel.send_error("bad-request", str(exc))
        # RuntimeError: the handler pool/loop shut down mid-dispatch --
        # the stop() race, same terminal outcome as a socket error.
        except (ProtocolError, OSError, RuntimeError):
            pass
        finally:
            self._open_gauge.dec()
            channel.close()
