"""Sync-facade plumbing: drive an event loop from blocking code.

:class:`~repro.transport.aioendpoint.AsyncEndpoint` runs plain-function
handlers in executor threads while their connection lives on its event
loop.  Two pieces make that work:

- :class:`LoopThread` -- one daemon thread running one event loop
  forever; blocking callers submit coroutines to it and wait.  The
  loop-ownership rule (DESIGN.md §3.6): the loop thread never blocks,
  and no coroutine is ever awaited from two loops.
- :class:`FacadeChannel` -- the synchronous
  :class:`~repro.transport.channel.Channel` surface over an
  :class:`~repro.transport.aiochannel.AsyncChannel` living on a
  :class:`LoopThread`; a dead or closing loop surfaces as
  :class:`OSError`, which every caller already treats as a burned
  connection.

Each :class:`~repro.transport.aioendpoint.AsyncEndpoint` owns a private
:class:`LoopThread`, so servers remain isolated and stoppable; clients
never come through here (DESIGN.md §3.6).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Coroutine, Optional, TYPE_CHECKING, Union

from repro.transport.channel import _DEFAULT, _Unset

if TYPE_CHECKING:  # annotations only -- aiochannel is imported lazily
    from repro.protocol.framing import BytesLike
    from repro.transport.aiochannel import AsyncChannel

__all__ = ["FacadeChannel", "LoopThread"]


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

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
            self._thread.join(timeout=5.0)


class FacadeChannel:
    """The sync :class:`Channel` surface over an ``AsyncChannel``.

    Every operation submits the matching coroutine to the owning
    :class:`LoopThread` and blocks on it; per-operation deadlines are
    enforced by the coroutine itself (whole-frame semantics), so
    expiry raises the same :class:`repro.protocol.errors.TimeoutError`
    the sync channel raises.  ``close`` flips the facade's flag
    immediately and schedules the transport teardown on the loop.
    """

    def __init__(self, channel: AsyncChannel, runner: LoopThread) -> None:
        self._channel = channel
        self._runner = runner
        self._facade_closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._facade_closed or self._channel.closed

    def close(self) -> None:
        """Close (idempotent, non-blocking, callable from any thread)."""
        if self._facade_closed:
            return
        self._facade_closed = True
        try:
            self._runner.loop.call_soon_threadsafe(self._channel.close)
        except RuntimeError:
            # Loop already gone: the transport dies with it; just make
            # sure the channel agrees it is unusable.
            self._channel._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<FacadeChannel {self._channel.remote or ''} {state}>"

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
