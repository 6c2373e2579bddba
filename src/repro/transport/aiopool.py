"""Keep-alive :class:`AsyncChannel` reuse keyed by ``(host, port)``.

:class:`AsyncConnectionPool` is :class:`~repro.transport.pool
.ConnectionPool` with an awaited dial: idle buckets, LIFO reuse,
health-checked checkout, lazy eviction and the ``ninf_pool_*`` metrics
are the base class's (``healthy()``/``close()`` are synchronous on both
channel types).  All methods run on the owning event loop, where the
base class's lock is never contended and never held across an
``await``.
"""

from __future__ import annotations

import functools
import time
from contextlib import asynccontextmanager
from typing import Any, AsyncIterator, Callable, Optional

from repro.obs import MetricsRegistry
from repro.transport.aiochannel import AsyncChannel, aconnect, \
    aconnect_with_faults
from repro.transport.faults import FaultPlan
from repro.transport.pool import ConnectionPool

__all__ = ["AsyncConnectionPool"]


class AsyncConnectionPool(ConnectionPool):
    """Loop-affine keep-alive pool of :class:`AsyncChannel` objects.

    Parameter semantics match
    :class:`~repro.transport.pool.ConnectionPool` exactly (there is no
    ``shm``: the loop never blocks on ring polls); ``connector``
    is an *async* channel factory with the signature of
    :func:`~repro.transport.aiochannel.aconnect`, and ``fault_plan``
    routes every dial through
    :func:`~repro.transport.aiochannel.aconnect_with_faults` (mutually
    exclusive with ``connector``, as in the sync pool).
    """

    def __init__(self, timeout: Optional[float] = None, pool: bool = True,
                 max_idle_per_key: int = 8,
                 max_idle_seconds: float = 60.0,
                 connect_timeout: Optional[float] = None,
                 connector: Optional[Callable[..., Any]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 fault_plan: Optional[FaultPlan] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(timeout=timeout, pool=pool,
                         max_idle_per_key=max_idle_per_key,
                         max_idle_seconds=max_idle_seconds,
                         connect_timeout=connect_timeout,
                         connector=connector, clock=clock,
                         fault_plan=fault_plan, metrics=metrics)
        if connector is None:
            self._connect = aconnect if fault_plan is None else \
                functools.partial(aconnect_with_faults, fault_plan)

    async def _dial(self, host: str, port: int) -> AsyncChannel:
        try:
            return await self._connect(
                host, port, timeout=self.timeout,
                connect_timeout=self.connect_timeout)
        except ConnectionRefusedError:
            self._dials_refused.inc()
            raise

    async def checkout(  # type: ignore[override]
            self, host: str, port: int) -> AsyncChannel:
        """An open channel to ``host:port`` -- reused when possible."""
        channel = self._take_idle(host, port)
        return channel if channel is not None \
            else self._adopt(await self._dial(host, port))

    @asynccontextmanager  # type: ignore[override]
    async def lease(self, host: str, port: int) -> AsyncIterator[AsyncChannel]:
        """``async with pool.lease(h, p) as ch:`` -- checkin on success,
        discard on any exception (a failed exchange leaves the stream
        in an unknown framing state, so the connection is burned)."""
        channel = await self.checkout(host, port)
        try:
            yield channel
        except BaseException:
            self.discard(channel)
            raise
        self.checkin(channel)

    async def __aenter__(self) -> "AsyncConnectionPool":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()
