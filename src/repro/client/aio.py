"""The natively asynchronous Ninf client.

:class:`AsyncNinfClient` drives the same operations as
:class:`~repro.client.NinfClient` -- the generators of
:mod:`repro.client.core`, so every semantic is identical -- but answers
their I/O requests with ``await`` over an
:class:`~repro.transport.AsyncConnectionPool` and ``asyncio.sleep``:
``await client.call(...)`` runs on the caller's event loop with no
bridge thread and no blocking socket, so one process can keep thousands
of calls in flight.

Loop affinity: all coroutine methods must run on one loop (the pool is
loop-affine).  ``close()`` is synchronous and thread-safe, matching
the channel contract.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.client import core
from repro.client.core import ClientState
from repro.obs import MetricsRegistry, Tracer
from repro.transport import AsyncConnectionPool, RetryPolicy

__all__ = ["AsyncNinfClient"]


class AsyncNinfClient(ClientState):
    """Async client binding to one Ninf computational server.

    Parameters are :class:`~repro.client.NinfClient`'s, documented
    there, minus ``shm`` (the event loop never blocks on ring polls).
    A ``retry`` backoff is slept with ``asyncio.sleep``, so a seeded
    policy replays the same schedule on either client.  As there,
    ``retry_calls`` with a ``retry`` policy makes ``CALL`` and
    ``CALL_DETACHED`` exactly-once under a ``logical_id`` whose reply
    the server holds; without both a call is at-most-once and sends
    ``logical_id=""``, so the server keeps nothing of it.
    """

    def __init__(self, host: str, port: int, timeout: float = 300.0,
                 clock=None, pool: bool = True, max_idle: float = 60.0,
                 retry: Optional[RetryPolicy] = None, fault_plan=None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 retry_calls: bool = False,
                 call_budget: Optional[float] = None):
        super().__init__(host, port, timeout, clock, retry, metrics, tracer,
                         retry_calls, call_budget)
        self._pool = AsyncConnectionPool(timeout=timeout, pool=pool,
                                         max_idle_seconds=max_idle,
                                         fault_plan=fault_plan,
                                         metrics=self.metrics)

    async def __aenter__(self) -> "AsyncNinfClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()

    # -- the driver -----------------------------------------------------------

    async def _perform(self, request):
        """Answer one core request on the running loop."""
        kind = type(request)
        if kind is core.Send:
            return await request.channel.send(request.msg_type,
                                              request.payload)
        if kind is core.Recv:
            return await request.channel.recv()
        if kind is core.Checkout:
            return await self._pool.checkout(self.host, self.port)
        if kind is core.Exchange:
            async with self._pool.lease(self.host, self.port) as channel:
                return await channel.request(request.msg_type,
                                             request.payload,
                                             expect=request.expect)
        return await asyncio.sleep(request.seconds)

    async def _drive(self, operation: core.Operation):
        """Run one core operation to completion on the running loop."""
        try:
            request = next(operation)
            while True:
                try:
                    answer = await self._perform(request)
                except BaseException as exc:
                    request = operation.throw(exc)
                else:
                    request = operation.send(answer)
        except StopIteration as done:
            return done.value

    # -- calls (the other operations are ClientState's driven methods) ---------

    async def call(self, function: str, *args: Any,
                   on_callback: Optional[Callable[[float, str], None]] = None
                   ) -> list[Any]:
        """``Ninf_call``, awaitable: outputs in declaration order, output
        arrays also updated in place."""
        outputs, _record = await self.call_with_record(
            function, *args, on_callback=on_callback)
        return outputs
