"""The Ninf computational server.

"The Ninf computational server is a process which services remote
computing requests of remote clients by managing the communication and
activation of the services requested via Ninf RPC.  Binaries of
computing libraries and applications are registered on the server
process as Ninf executables" (paper §2.1).

- :mod:`repro.server.registry` -- Ninf executables: an IDL signature
  bound to a Python callable, semi-automatically generated from IDL
  text (the stub generator's role).
- :mod:`repro.server.scheduling` -- job-dispatch policies: FCFS (what
  the 1997 server did: "merely fork & execs a Ninf executable in a
  First-Come-First-Served manner"), SJF (the §5.2 improvement, using
  IDL ``CalcOrder`` predictions), and the §5.3 multiprocessor policies
  FPFS and FPMPFS.
- :mod:`repro.server.executor` -- the PE pool: task-parallel (one PE
  per call) or data-parallel (all PEs per call, serialized) execution,
  with bounded-queue admission control and deadline expiry sweeps.
- :mod:`repro.server.peworkers` -- the PE worker processes a Python
  kernel with a ``CalcOrder`` runs in (one per running call, BLAS
  capped to the call's PEs), forked by one helper per server; a BLAS
  kernel runs capped on its PE thread instead.
- :mod:`repro.server.dedup` -- the exactly-once dedup/result cache
  that makes CALL retries safe (DESIGN.md §3.5).
- :mod:`repro.server.services` -- the RPC semantics (two-stage RPC,
  per-job timestamps, load reporting, detached calls) as a mixin
  over the endpoint.
- :mod:`repro.server.server` -- the server itself: those services on
  the reactor endpoint (one thread reads every TCP connection);
  :mod:`repro.server.asyncserver` keeps its old asyncio name.
"""

from repro.server.asyncserver import AsyncNinfServer
from repro.server.registry import NinfExecutable, Registry
from repro.server.scheduling import (
    FCFSPolicy,
    FPFSPolicy,
    FPMPFSPolicy,
    SJFPolicy,
    SchedulingPolicy,
)
from repro.server.dedup import DedupCache, DedupEntry
from repro.server.executor import Executor, Job
from repro.server.heartbeat import HeartbeatReporter
from repro.server.server import NinfServer
from repro.server.services import NinfRpcServices

__all__ = [
    "AsyncNinfServer",
    "DedupCache",
    "DedupEntry",
    "Executor",
    "FCFSPolicy",
    "FPFSPolicy",
    "FPMPFSPolicy",
    "HeartbeatReporter",
    "Job",
    "NinfExecutable",
    "NinfRpcServices",
    "NinfServer",
    "Registry",
    "SJFPolicy",
    "SchedulingPolicy",
]
