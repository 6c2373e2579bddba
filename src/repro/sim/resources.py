"""Resources for the simulation engine.

Two contention primitives cover everything the Ninf model needs:

:class:`Resource`
    A counted gate with a FCFS wait queue -- models the data-parallel
    server's serialized all-PE execution (``Machine.run_serialized``).
:class:`ProcessorSharingServer`
    A server of fixed aggregate capacity shared equally among the jobs
    currently in service (optionally capped per job) -- models a PE
    time-slicing among multiple Ninf executables, and SMP thread
    scheduling.

All wait queues are deterministic: ties broken by arrival sequence.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.sim.engine import Awaitable, EventHandle, Simulator

__all__ = [
    "ProcessorSharingServer",
    "PSJob",
    "Request",
    "Resource",
]


class Request(Awaitable):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource", "_callback", "granted")

    def __init__(self, resource: "Resource"):
        self.resource = resource
        self._callback: Optional[Callable] = None
        self.granted = False

    def _subscribe(self, callback: Callable) -> None:
        self._callback = callback
        self.resource._maybe_grant()


class Resource:
    """Counted resource with a FCFS queue."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: list[Request] = []

    def request(self) -> Request:
        """Create a claim; yield it from a process to wait for a slot."""
        req = Request(self)
        self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot to the pool."""
        if not request.granted:
            raise RuntimeError("releasing a request that was never granted")
        request.granted = False
        self.in_use -= 1
        self._maybe_grant()

    def _maybe_grant(self) -> None:
        # Grant in arrival order, and only to claims already yielded: a
        # not-yet-subscribed earlier arrival keeps its place.
        while (self.in_use < self.capacity and self._queue
               and self._queue[0]._callback is not None):
            req = self._queue.pop(0)
            self.in_use += 1
            req.granted = True
            self.sim.schedule(0.0, req._callback, req, None)


class PSJob(Awaitable):
    """A job inside a :class:`ProcessorSharingServer`; fires on completion."""

    __slots__ = ("server", "work", "remaining", "weight", "max_rate", "_callback",
                 "start_time", "finish_time", "seq")

    def __init__(self, server: "ProcessorSharingServer", work: float,
                 weight: float, max_rate: float, seq: int):
        self.server = server
        self.work = work
        self.remaining = work
        self.weight = weight
        self.max_rate = max_rate
        self.seq = seq
        self._callback: Optional[Callable] = None
        self.start_time = server.sim.now
        self.finish_time: Optional[float] = None

    def _subscribe(self, callback: Callable) -> None:
        self._callback = callback
        self.server._activate(self)


class ProcessorSharingServer:
    """Fixed-capacity server shared among active jobs.

    Each active job receives ``min(max_rate, capacity * weight / W)``
    where ``W`` is the total weight of active jobs; capacity freed by
    capped jobs is redistributed to the uncapped ones (water-filling),
    so the allocation is max-min fair in one dimension.

    ``work`` is in abstract service units (e.g. flop for a CPU model);
    ``capacity`` in units per second.
    """

    def __init__(self, sim: Simulator, capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._jobs: list[PSJob] = []
        self._rates: dict[PSJob, float] = {}
        self._seq = 0
        self._last_update = sim.now
        self._next_completion: Optional[EventHandle] = None
        # ∫ (allocated rate / capacity) dt: Machine's CPU-utilization
        # windows read it.
        self._busy_integral = 0.0

    # -- public API ---------------------------------------------------------

    def submit(self, work: float, weight: float = 1.0,
               max_rate: float = math.inf) -> PSJob:
        """Create a job; yield it from a process to wait for completion."""
        if work < 0 or math.isnan(work):
            raise ValueError(f"invalid work amount {work}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        job = PSJob(self, work, weight, max_rate, self._seq)
        self._seq += 1
        return job

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    # -- internals ------------------------------------------------------------

    def _activate(self, job: PSJob) -> None:
        self._advance()
        self._jobs.append(job)
        if job.remaining <= 0.0:
            # Zero-work job: complete immediately (still via the event loop).
            self._jobs.remove(job)
            self._complete(job)
        self._recompute()

    def _advance(self) -> None:
        """Drain accumulated service from each active job up to now."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            total_rate = 0.0
            for job in self._jobs:
                rate = self._rates.get(job, 0.0)
                job.remaining = max(0.0, job.remaining - rate * dt)
                total_rate += rate
            self._busy_integral += (total_rate / self.capacity) * dt
        self._last_update = self.sim.now

    def _recompute(self) -> None:
        """Water-filling allocation, then reschedule the next completion."""
        self._rates = _waterfill(
            self.capacity,
            [(job, job.weight, job.max_rate) for job in self._jobs],
        )
        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None
        soonest: Optional[PSJob] = None
        soonest_dt = math.inf
        for job in self._jobs:
            rate = self._rates.get(job, 0.0)
            if rate <= 0:
                continue
            dt = job.remaining / rate
            if dt < soonest_dt:
                soonest_dt = dt
                soonest = job
        if soonest is not None:
            self._next_completion = self.sim.schedule(
                soonest_dt, self._on_completion, soonest
            )

    def _on_completion(self, job: PSJob) -> None:
        self._next_completion = None
        self._advance()
        # Numerical guard: the scheduled job is done by construction.
        job.remaining = 0.0
        finished = [j for j in self._jobs if j.remaining <= 1e-12]
        for j in finished:
            self._jobs.remove(j)
        self._recompute()
        for j in finished:
            self._complete(j)

    def _complete(self, job: PSJob) -> None:
        job.finish_time = self.sim.now
        self.sim.schedule(0.0, job._callback, job, None)


def _waterfill(
    capacity: float, entries: list[tuple[Any, float, float]]
) -> dict[Any, float]:
    """Weighted max-min allocation of ``capacity`` among ``entries``.

    ``entries`` is a list of ``(key, weight, cap)``.  Returns key->rate.
    Keys whose fair share exceeds their cap are frozen at the cap and the
    surplus redistributed among the rest.
    """
    rates: dict[Any, float] = {}
    remaining = list(entries)
    budget = capacity
    while remaining:
        total_weight = sum(w for _, w, _ in remaining)
        share_per_weight = budget / total_weight
        capped = [(k, w, c) for (k, w, c) in remaining if c < share_per_weight * w]
        if not capped:
            for k, w, _ in remaining:
                rates[k] = share_per_weight * w
            break
        for k, _, c in capped:
            rates[k] = c
            budget -= c
        remaining = [e for e in remaining if e not in capped]
        if budget <= 0:
            for k, _, _ in remaining:
                rates[k] = 0.0
            break
    return rates
