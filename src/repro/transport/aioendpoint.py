"""The event-loop driver of :class:`~repro.transport.endpoint.EndpointCore`:
the C10K-capable endpoint.

:class:`AsyncEndpoint` serves the core's handler table from one
``asyncio.Server`` (instead of an accept thread) and one connection
*task* (instead of a thread) per accepted socket.  The lifecycle
surface is the core's -- ``start()`` / ``stop()`` / ``with``, all
synchronous -- so subclasses and callers of the threaded endpoint port
over unchanged: the endpoint owns a private
:class:`~repro.transport.loopbridge.LoopThread` and drives its loop
from whatever thread the caller is on.

Handlers are the same plain functions the threaded driver runs, called
*on the loop*, in the connection's task (DESIGN.md §3.6); only one
registered with ``register_blocking_handler`` is handed to the loop's
default executor.

Observability: ``ninf_endpoint_connections_accepted_total`` (the
core's) plus the event-loop vitals ``ninf_server_connections_open``
(gauge) and ``ninf_server_loop_lag_seconds`` (histogram, sampled by a
sleep-drift monitor task) -- see OBSERVABILITY.md.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import threading
from typing import Optional

from repro.obs import MetricsRegistry
from repro.obs import names
from repro.protocol.aframing import FrameStream
from repro.protocol.errors import ConnectionClosed, ProtocolError
from repro.protocol.framing import BytesLike
from repro.transport.aiochannel import AsyncChannel, AsyncFaultyChannel
from repro.transport.endpoint import Connection, EndpointCore
from repro.transport.faults import FaultPlan
from repro.transport.loopbridge import LoopThread
from repro.xdr import bulk

__all__ = ["AsyncEndpoint"]

#: Sub-millisecond to one-second lag buckets: loop lag is healthy in
#: the tens of microseconds and pathological past ~100 ms.
_LAG_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                0.05, 0.1, 0.25, 0.5, 1.0)


class _LoopConnection(Connection):
    """A connection served by a task on the loop: ``send`` queues the
    frame and returns -- from the loop thread directly, from any other
    (a PE thread's completion callback) through ``call_soon_threadsafe``
    -- and :attr:`writer` drains the queue in order.  A payload with
    bulk regions sent from another thread is flattened there, before it
    is queued, so the conversion stays off the loop."""

    def __init__(self, channel: AsyncChannel) -> None:
        self.channel = channel
        self.writer: Optional[asyncio.Task[None]] = None
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        # Loop-affine, like the writer.
        self._outbox: collections.deque[tuple[int, BytesLike]] = \
            collections.deque()

    def send(self, msg_type: int, payload: BytesLike = b"") -> None:
        if threading.get_ident() == self._loop_thread:
            self._post(msg_type, payload)
            return
        payload = bulk.flat(payload)
        try:
            self._loop.call_soon_threadsafe(self._post, msg_type, payload)
        except RuntimeError:
            pass  # the loop has stopped and the connection with it

    def _post(self, msg_type: int, payload: BytesLike) -> None:
        self._outbox.append((msg_type, payload))
        if self.writer is None:
            self.writer = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        try:
            while self._outbox:
                await self.channel.send(*self._outbox.popleft())
        except (ProtocolError, OSError):
            # The peer has gone: closing fails the reader, which ends
            # the connection's task.
            self._outbox.clear()
            self.channel.close()
        finally:
            self.writer = None


class AsyncEndpoint(EndpointCore):
    """The event-loop driver: parameters, registry, dispatch contract
    and lifecycle are :class:`~repro.transport.endpoint.EndpointCore`'s.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 name: str = "aio-endpoint",
                 fault_plan: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 backlog: int = 512) -> None:
        super().__init__(host=host, port=port, name=name,
                         fault_plan=fault_plan, metrics=metrics,
                         backlog=backlog)
        self._runner: Optional[LoopThread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        # Loop-affine state: only the loop thread touches these.
        self._conn_tasks: dict[asyncio.Task[None], _LoopConnection] = {}
        self._lag_task: Optional[asyncio.Task[None]] = None
        self._open_gauge = self.metrics.gauge(
            names.SERVER_CONNECTIONS_OPEN,
            "Connections currently being served")
        self._loop_lag = self.metrics.histogram(
            names.SERVER_LOOP_LAG,
            "Event-loop scheduling lag sampled by the drift monitor",
            buckets=_LAG_BUCKETS)

    @property
    def connections_open(self) -> int:
        """Connections currently being served (registry-backed gauge
        ``ninf_server_connections_open``)."""
        return int(self._open_gauge.value())

    # -- the driver's I/O ---------------------------------------------------

    def _listen(self) -> tuple[str, int]:
        runner = LoopThread(name=f"{self.name}-loop")
        try:
            server, sockname = runner.run(self._open_listener())
        except BaseException:
            runner.stop()  # a failed bind must not leak the loop thread
            raise
        with self._lock:
            self._runner = runner
            self._server = server
        return sockname

    def _accept_connections(self) -> None:
        runner, server = self._runner, self._server
        if runner is not None and server is not None:
            runner.run(self._begin_serving(server))

    def _close_listener(self) -> None:
        with self._lock:
            runner, server = self._runner, self._server
            self._server = None
        if runner is not None and server is not None:
            try:
                runner.run(self._stop_listening(server), timeout=5.0)
            except (OSError, concurrent.futures.TimeoutError):
                pass

    def _close_connections(self) -> None:
        with self._lock:
            runner = self._runner
            self._runner = None
        if runner is not None:
            try:
                runner.run(self._cancel_connections(), timeout=5.0)
            except (OSError, concurrent.futures.TimeoutError):
                pass
            runner.stop()

    # -- loop side ----------------------------------------------------------

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

    async def _stop_listening(self, server: asyncio.AbstractServer) -> None:
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
        # Replies queued by on_stop (the executor's ServerShutdown
        # errors) go out before their connections are cancelled.
        writers = [conn.writer for conn in self._conn_tasks.values()
                   if conn.writer is not None]
        if writers:
            await asyncio.wait(writers, timeout=2.0)
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
        conn = _LoopConnection(channel)
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(conn))
        self._conn_tasks[task] = conn
        task.add_done_callback(self._conn_tasks.pop)

    async def _serve_connection(self, conn: _LoopConnection) -> None:
        channel = conn.channel
        loop = asyncio.get_running_loop()
        self._open_gauge.inc()
        try:
            while True:
                try:
                    msg_type, payload = await channel.recv()
                except ConnectionClosed:
                    return
                if msg_type in self._blocking:
                    await loop.run_in_executor(
                        None, self.dispatch, conn, msg_type, payload)
                else:
                    self.dispatch(conn, msg_type, payload)
                # A peer that does not read its replies is not read from.
                while conn.writer is not None:
                    await conn.writer
        except (ProtocolError, OSError):
            pass
        finally:
            self._open_gauge.dec()
            channel.close()
