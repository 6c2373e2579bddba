"""Job-dispatch policies for the computational server.

The 1997 Ninf server "merely fork & execs a Ninf executable in a
First-Come-First-Served (FCFS) manner, causing longer response time and
possibly lower CPU utilization" (§5.2).  The paper proposes SJF using
IDL-derived cost predictions, and for multiprocessor servers the
Fit-Processors-First-Served / Fit-Processors-Most-Processors-First
policies of its reference [10] (§5.3).  All four are implemented here
and are pluggable into both the real TCP server and the simulator.

A policy inspects the pending queue and the number of free PEs and
picks the next job to dispatch (or None to keep waiting).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, Sequence

__all__ = [
    "FCFSPolicy",
    "FPFSPolicy",
    "FPMPFSPolicy",
    "SJFPolicy",
    "SchedulingPolicy",
    "make_policy",
]


class SchedulableJob(Protocol):
    """What a policy may look at: arrival order, size, PE demand."""

    seq: int                      # arrival sequence number
    pes_required: int             # PEs the executable needs
    predicted_cost: Optional[float]  # CalcOrder estimate, None if unknown


def _best_fitting(pending: Sequence[SchedulableJob], free_pes: int,
                  key: Callable[[SchedulableJob], Any]) -> Optional[int]:
    """Index of the job that fits ``free_pes`` and sorts first by ``key``
    (ties: the earlier index), or None if none fits."""
    fitting = [i for i, job in enumerate(pending)
               if job.pes_required <= free_pes]
    return min(fitting, key=lambda i: key(pending[i]), default=None)


class SchedulingPolicy:
    """Base policy.  ``select`` returns an index into ``pending``."""

    name = "base"

    def select(self, pending: Sequence[SchedulableJob],
               free_pes: int) -> Optional[int]:
        """Index of the next job to dispatch, or None to keep waiting."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class FCFSPolicy(SchedulingPolicy):
    """First come, first served -- the 1997 server's behaviour.

    Strictly in order: if the head job does not fit the free PEs,
    nothing runs (head-of-line blocking, which is exactly the idle-PE
    drawback §5.3 describes).
    """

    name = "fcfs"

    def select(self, pending: Sequence[SchedulableJob],
               free_pes: int) -> Optional[int]:
        """The oldest job -- but only if it fits (strict FCFS)."""
        if not pending:
            return None
        head = min(range(len(pending)), key=lambda i: pending[i].seq)
        if pending[head].pes_required <= free_pes:
            return head
        return None


class SJFPolicy(SchedulingPolicy):
    """Shortest job first, by IDL ``CalcOrder`` prediction (§5.2).

    Jobs without a prediction sort last (treated as infinitely long but
    FCFS among themselves).  Only jobs that fit the free PEs compete.
    """

    name = "sjf"

    def select(self, pending: Sequence[SchedulableJob],
               free_pes: int) -> Optional[int]:
        """The fitting job with the smallest predicted cost."""
        return _best_fitting(pending, free_pes, lambda job: (
            job.predicted_cost is None, job.predicted_cost or 0.0, job.seq))


class FPFSPolicy(SchedulingPolicy):
    """Fit Processors First Served (§5.3): the oldest job that *fits*.

    Avoids FCFS head-of-line blocking: a wide job at the head no longer
    idles PEs that a later narrow job could use.
    """

    name = "fpfs"

    def select(self, pending: Sequence[SchedulableJob],
               free_pes: int) -> Optional[int]:
        """The oldest job among those that fit the free PEs."""
        return _best_fitting(pending, free_pes, lambda job: job.seq)


class FPMPFSPolicy(SchedulingPolicy):
    """Fit Processors, Most Processors First Served (§5.3).

    Among fitting jobs, prefer the widest (ties FCFS): packs large SPMD
    jobs early, reducing fragmentation.
    """

    name = "fpmpfs"

    def select(self, pending: Sequence[SchedulableJob],
               free_pes: int) -> Optional[int]:
        """The widest fitting job (ties broken FCFS)."""
        return _best_fitting(pending, free_pes,
                             lambda job: (-job.pes_required, job.seq))


_POLICIES = {
    policy.name: policy
    for policy in (FCFSPolicy, SJFPolicy, FPFSPolicy, FPMPFSPolicy)
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by its short name (fcfs/sjf/fpfs/fpmpfs)."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; choose from "
            f"{sorted(_POLICIES)}"
        ) from None
