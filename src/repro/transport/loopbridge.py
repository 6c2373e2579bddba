"""Drive an event loop from blocking code.

:class:`LoopThread` is one daemon thread running one event loop
forever; blocking callers submit coroutines to it and wait.  The
loop-ownership rule (DESIGN.md §3.6): the loop thread never blocks, and
no coroutine is ever awaited from two loops.

Each :class:`~repro.transport.aioendpoint.AsyncEndpoint` owns a private
:class:`LoopThread` for its synchronous ``start()``/``stop()``, so
servers remain isolated and stoppable; nothing on a request's path
waits on one, and clients never come through here.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Coroutine, Optional

__all__ = ["LoopThread"]


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
