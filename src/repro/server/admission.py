"""The admission core: which call queues, which runs, which is shed.

Sans-IO -- no threads, no locks, time from an injected ``clock`` -- so
the live :class:`~repro.server.executor.Executor` (under its lock, from
its PE and expiry threads) and the simulated
:class:`~repro.simninf.server.SimNinfServer` (on simulated time) take
every queue and PE decision from the same object (DESIGN.md §3.5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.protocol.errors import ServerBusy, ServerShutdown
from repro.server.scheduling import FCFSPolicy, SchedulingPolicy

__all__ = ["AdmissionCore", "Ticket"]

EWMA_ALPHA = 0.3  #: newest service time's weight: tracks load in a few calls


@dataclass(eq=False)
class Ticket:
    """One call as admission sees it.  ``deadline`` is absolute on the
    core's clock; :meth:`AdmissionCore.offer` stamps ``seq`` (arrival
    order) and ``enqueue_time``."""

    pes_required: int
    predicted_cost: Optional[float] = None
    deadline: Optional[float] = None
    seq: int = 0
    enqueue_time: float = 0.0


class AdmissionCore:
    """The pending queue and PE claims of a ``num_pes`` server, with a
    count of every way a ticket ends but :meth:`close`'s drop."""

    def __init__(self, num_pes: int,
                 policy: Optional[SchedulingPolicy] = None,
                 clock: Callable[[], float] = time.monotonic,
                 max_queued: Optional[int] = None) -> None:
        if num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {num_pes}")
        if max_queued is not None and max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued}")
        self.num_pes = num_pes
        self.policy = policy or FCFSPolicy()
        self.clock = clock
        self.max_queued = max_queued
        self.pending: list[Ticket] = []
        self.free_pes = num_pes
        self.running = 0
        self.closed = False
        self.service_ewma = 0.0
        self.completed = self.failed = self.shed = 0
        self.expired = self.cancelled = 0
        self._seq = 0

    def offer(self, ticket: Ticket) -> None:
        """Queue ``ticket``; :class:`ServerShutdown` once closed, and
        :class:`ServerBusy` (with a retry-after hint) to shed it:
        ``queue-full`` past ``max_queued`` when it does not fit the free
        PEs, ``deadline-unmeetable`` when the wait overruns its deadline.
        """
        if self.closed:
            raise ServerShutdown("executor is shut down")
        ticket.seq = self._seq
        if (self.max_queued is not None
                and len(self.pending) >= self.max_queued
                and self.free_pes < ticket.pes_required):
            self.shed += 1
            raise ServerBusy("queue-full", retry_after=self.estimated_wait())
        if ticket.deadline is not None:
            wait = self.estimated_wait(ticket)
            if self.clock() + wait >= ticket.deadline:
                self.shed += 1
                raise ServerBusy("deadline-unmeetable", retry_after=wait)
        ticket.enqueue_time = self.clock()
        self._seq += 1
        self.pending.append(ticket)

    def estimated_wait(self, ticket: Optional[Ticket] = None) -> float:
        """Queue wait of a new arrival, in seconds: occupancy (queued +
        running, in full server passes) times the EWMA service time (0
        until something has run: no deadline shed on a cold start); 0
        for a ``ticket`` the policy would start at once."""
        if ticket is not None and self._starts_now(ticket):
            return 0.0
        occupancy = len(self.pending) + self.running
        return self.service_ewma * occupancy / self.num_pes

    def _starts_now(self, ticket: Ticket) -> bool:
        """Whether the policy's picks over the queue plus ``ticket``, on
        the free PEs, reach ``ticket`` before the PEs run out."""
        pending, free = [*self.pending, ticket], self.free_pes
        while (index := self.policy.select(pending, free)) is not None:
            picked = pending.pop(index)
            if picked is ticket:
                return True
            free -= picked.pes_required
        return False

    def take(self) -> Optional[Ticket]:
        """The queued ticket the policy starts now, its PEs claimed."""
        index = self.policy.select(self.pending, self.free_pes)
        if index is None:
            return None
        ticket = self.pending.pop(index)
        self.free_pes -= ticket.pes_required
        self.running += 1
        return ticket

    def release(self, ticket: Ticket, service: float, ok: bool = True) -> None:
        """Return a taken ticket's PEs after ``service`` seconds of run."""
        self.free_pes += ticket.pes_required
        self.running -= 1
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        if self.service_ewma <= 0.0:
            self.service_ewma = service
        else:
            self.service_ewma += EWMA_ALPHA * (service - self.service_ewma)

    def expire(self) -> list[Ticket]:
        """Unqueue and return the tickets whose deadline has passed."""
        now = self.clock()
        expired = [ticket for ticket in self.pending
                   if ticket.deadline is not None and ticket.deadline <= now]
        for dead in expired:
            self.pending.remove(dead)
        self.expired += len(expired)
        return expired

    def next_deadline(self) -> float:
        """The earliest queued deadline (``inf`` if none)."""
        return min((ticket.deadline for ticket in self.pending
                    if ticket.deadline is not None), default=float("inf"))

    def cancel(self, ticket: Ticket) -> bool:
        """Unqueue ``ticket``; ``False`` if it is not queued (any more)."""
        try:
            self.pending.remove(ticket)
        except ValueError:
            return False
        self.cancelled += 1
        return True

    def close(self) -> list[Ticket]:
        """Refuse every later offer; return the queued tickets, dropped."""
        self.closed = True
        dropped, self.pending = self.pending, []
        return dropped
