"""Sync-facade plumbing: drive an event loop from blocking code.

The asyncio rebuild keeps every existing synchronous surface --
:class:`~repro.client.NinfClient`, the pooled
:class:`~repro.transport.pool.ConnectionPool`, server handlers running
in executor threads -- as thin facades over coroutines.  Two pieces
make that work:

- :class:`LoopThread` -- one daemon thread running one event loop
  forever; blocking callers submit coroutines with
  ``asyncio.run_coroutine_threadsafe`` and wait on the returned
  concurrent future.  The loop-ownership rule (DESIGN.md §3.6): the
  loop thread never blocks, and no coroutine is ever awaited from two
  loops.
- :class:`FacadeChannel` -- the synchronous
  :class:`~repro.transport.channel.Channel` surface (``send`` /
  ``recv`` / ``request`` / ``healthy`` / ``close``...) wrapped around
  an :class:`~repro.transport.aiochannel.AsyncChannel` living on a
  :class:`LoopThread`.  Deadlines are enforced *inside* the coroutines
  (whole-frame semantics, :mod:`repro.protocol.aframing`), so the
  bridging future is waited without its own timeout; a dead or closing
  loop surfaces as :class:`OSError`, which every existing caller
  already treats as a burned connection.

Client facades share one process-wide :func:`shared_loop` (clients are
cheap, loops are not); each :class:`~repro.transport.aioendpoint.AsyncEndpoint`
owns a private :class:`LoopThread` so servers remain isolated and
stoppable.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Callable, Coroutine, Optional, TYPE_CHECKING, Union

from repro.transport.channel import _DEFAULT, _Unset

if TYPE_CHECKING:  # annotations only -- aiochannel is imported lazily
    from repro.obs import MetricsRegistry
    from repro.protocol.framing import BytesLike
    from repro.transport.aiochannel import AsyncChannel
    from repro.transport.faults import FaultPlan

__all__ = ["FacadeChannel", "LoopThread", "facade_connect",
           "shared_loop"]


class LoopThread:
    """A daemon thread running a private event loop until stopped."""

    def __init__(self, name: str = "ninf-loop") -> None:
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()
        self._started.wait()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            try:
                self._loop.close()
            except RuntimeError:
                pass

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def alive(self) -> bool:
        """Whether the loop thread is still running its loop."""
        return self._thread.is_alive() and not self._loop.is_closed()

    def run(self, coro: Coroutine[Any, Any, Any],
            timeout: Optional[float] = None) -> Any:
        """Run ``coro`` on the loop, block until it finishes.

        ``timeout`` bounds only the *wait* (the coroutine keeps running
        if it expires); the usual contract is that the coroutine bounds
        itself via frame deadlines and ``timeout`` stays ``None``.
        A stopped loop raises :class:`OSError` (a burned transport to
        every existing caller).
        """
        try:
            future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        except RuntimeError:
            coro.close()
            raise OSError("event loop is not running") from None
        try:
            return future.result(timeout)
        except concurrent.futures.CancelledError:
            raise OSError("event loop shut down mid-operation") from None

    def call_soon(self, callback: Callable[..., object],
                  *args: object) -> bool:
        """Schedule a plain callback; False when the loop is gone."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            return False
        return True

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
            self._thread.join(timeout=5.0)


_shared_lock = threading.Lock()
_shared: Optional[LoopThread] = None


def shared_loop() -> LoopThread:
    """The process-wide client-side loop thread (lazily created).

    Shared by every sync-facade :class:`~repro.client.NinfClient`; it
    is a daemon and is never stopped -- channels close individually,
    the loop dies with the process.
    """
    global _shared
    with _shared_lock:
        if _shared is None or not _shared.alive():
            _shared = LoopThread(name="ninf-client-loop")
        return _shared


def facade_connect(host: str, port: int, timeout: Optional[float] = None,
                   connect_timeout: Optional[float] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   runner: Optional[LoopThread] = None) -> "FacadeChannel":
    """Dial an :class:`AsyncChannel` and wrap it for blocking callers.

    A drop-in for :func:`repro.transport.channel.connect` (and, with
    ``fault_plan``, for ``FaultPlan.connector``): the same signature the
    :class:`~repro.transport.pool.ConnectionPool` expects of its
    injectable ``connector``, which is what turns the existing
    synchronous client into an asyncio one without touching its call
    logic.  Dials on ``runner`` (default: the process-wide
    :func:`shared_loop`).
    """
    from repro.transport.aiochannel import aconnect, aconnect_with_faults

    runner = runner if runner is not None else shared_loop()
    if fault_plan is not None:
        coro = aconnect_with_faults(fault_plan, host, port, timeout=timeout,
                                    connect_timeout=connect_timeout)
    else:
        coro = aconnect(host, port, timeout=timeout,
                        connect_timeout=connect_timeout)
    return FacadeChannel(runner.run(coro), runner)


class FacadeChannel:
    """The sync :class:`Channel` surface over an ``AsyncChannel``.

    Every operation submits the matching coroutine to the owning
    :class:`LoopThread` and blocks on it; per-operation deadlines are
    enforced by the coroutine itself (whole-frame semantics), so
    expiry raises the same :class:`repro.protocol.errors.TimeoutError`
    the sync channel raises.  ``close`` flips the facade's flag
    immediately (pool bookkeeping relies on ``closed`` being current)
    and schedules the transport teardown on the loop.
    """

    def __init__(self, channel: AsyncChannel, runner: LoopThread) -> None:
        self._channel = channel
        self._runner = runner
        self._facade_closed = False

    # -- passthrough surface ------------------------------------------------

    @property
    def timeout(self) -> Optional[float]:
        return self._channel.timeout

    @timeout.setter
    def timeout(self, value: Optional[float]) -> None:
        self._channel.timeout = value

    @property
    def remote(self) -> Optional[tuple[str, int]]:
        return self._channel.remote

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self._channel.metrics

    @metrics.setter
    def metrics(self, registry: Optional[MetricsRegistry]) -> None:
        self._channel.metrics = registry

    @property
    def plan(self) -> Optional[FaultPlan]:
        """The fault plan, when wrapping an ``AsyncFaultyChannel``."""
        return getattr(self._channel, "plan", None)

    def fileno(self) -> int:
        """The wrapped transport's file descriptor (for diagnostics)."""
        return self._channel.fileno()

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._facade_closed or self._channel.closed

    def close(self) -> None:
        """Close (idempotent, non-blocking, callable from any thread)."""
        if self._facade_closed:
            return
        self._facade_closed = True
        if not self._runner.call_soon(self._channel.close):
            # Loop already gone: the transport dies with it; just make
            # sure the channel agrees it is unusable.
            self._channel._closed = True

    def healthy(self) -> bool:
        """Idle-channel health, evaluated against the stream state.

        The loop eagerly drains the fd, so peer death shows up as EOF
        (or stray buffered bytes) on the reader -- the same signal the
        sync channel's zero-timeout ``select`` reads off the socket.
        """
        return not self._facade_closed and self._channel.healthy()

    def __enter__(self) -> "FacadeChannel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<FacadeChannel {self.remote or ''} {state}>"

    # -- framed I/O ---------------------------------------------------------

    def send(self, msg_type: int, payload: BytesLike = b"",
             timeout: Union[None, float, _Unset] = _DEFAULT) -> None:
        """Write one frame (blocking facade of ``AsyncChannel.send``)."""
        self._runner.run(
            self._channel.send(msg_type, payload, timeout=timeout))

    def recv(self, timeout: Union[None, float, _Unset] = _DEFAULT
             ) -> tuple[int, bytearray]:
        """Read one frame as ``(msg_type, payload)``."""
        return self._runner.run(self._channel.recv(timeout=timeout))

    def request(self, msg_type: int, payload: BytesLike = b"",
                expect: Optional[int] = None,
                timeout: Union[None, float, _Unset] = _DEFAULT
                ) -> tuple[int, bytearray]:
        """One send + one recv with the sync channel's reply decoding."""
        return self._runner.run(
            self._channel.request(msg_type, payload, expect=expect,
                                  timeout=timeout))

    def send_error(self, code: str, message: str) -> None:
        """Reply with a well-formed ``ErrorReply`` frame (server side)."""
        self._runner.run(self._channel.send_error(code, message))
