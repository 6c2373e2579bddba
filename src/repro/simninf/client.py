"""The paper's multi-client workload model.

§4.1: "We assume that each client performs a Ninf_call on the interval
of ``s`` seconds with probability ``p`` ... We set the other parameters
to be ``s = 3``, ``p = 1/2``."  A client therefore loops: wait ``s``
seconds; with probability ``p`` issue a blocking Ninf_call; repeat --
one outstanding call per client, like the benchmark driver.

:func:`drain` runs a cell's issuing window and then every call still in
flight.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.network import Route
from repro.simninf.calls import CallSpec, SimCallRecord
from repro.simninf.server import SimNinfServer

__all__ = ["WorkloadClient", "drain"]


class WorkloadClient:
    """One benchmark client issuing repeated Ninf_calls.

    ``pooled=True`` models a client that keeps its TCP connection to
    the server alive across calls (the :class:`repro.transport`
    ``ConnectionPool``): the first call pays the full per-call setup
    cost, every later call only ``pooled_setup`` seconds.  The default
    ``pooled=False`` is the paper's connection-per-call client.

    ``fault_rate`` is the simulated analogue of the transport layer's
    :class:`~repro.transport.FaultPlan`: each call attempt fails with
    this probability (connection dropped mid-exchange), costing
    ``fault_cost`` seconds before the client notices.  With
    ``retry_attempts > 1`` the client retries the call -- a retried
    pooled client must re-dial, so retries pay the full setup cost.
    Fault draws come from a *separate* seeded RNG so ``fault_rate=0``
    reproduces the historical schedules byte-for-byte.

    Resilience knobs (DESIGN.md §3.5):

    - ``backups`` lists ``(server, route)`` failover targets; a shed or
      dead primary moves the call to the next target (the live
      BrokeredClient re-pick).  Without backups a shed call waits out
      the server's ``retry_after`` hint and retries in place.
    - ``call_deadline`` marks completed calls that blew the per-call
      budget (counted in ``late_calls``).
    """

    def __init__(self, sim: Simulator, client_id: int, server: SimNinfServer,
                 route: Route, spec: CallSpec, s: float = 3.0, p: float = 0.5,
                 horizon: float = 300.0, seed: int = 0, site: str = "lan",
                 pooled: bool = False, pooled_setup: float = 0.0,
                 fault_rate: float = 0.0, retry_attempts: int = 1,
                 fault_cost: Optional[float] = None,
                 backups: Sequence[tuple[SimNinfServer, Route]] = (),
                 call_deadline: Optional[float] = None):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"issue probability must be in (0, 1], got {p}")
        if s < 0:
            raise ValueError(f"interval must be >= 0, got {s}")
        if pooled_setup < 0:
            raise ValueError(f"pooled_setup must be >= 0, got {pooled_setup}")
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError(f"fault_rate must be in [0, 1), got {fault_rate}")
        if retry_attempts < 1:
            raise ValueError(f"retry_attempts must be >= 1, "
                             f"got {retry_attempts}")
        self.sim = sim
        self.client_id = client_id
        self.server = server
        self.route = route
        self.spec = spec
        self.s = s
        self.p = p
        self.horizon = horizon
        self.site = site
        self.pooled = pooled
        self.pooled_setup = pooled_setup
        self.fault_rate = fault_rate
        self.retry_attempts = retry_attempts
        self.backups = list(backups)
        self.call_deadline = call_deadline
        # Default failed-attempt cost: a round trip to discover the
        # drop, never less than a tenth of a second of client-side
        # timeout machinery.
        self.fault_cost = (fault_cost if fault_cost is not None
                           else max(2.0 * route.latency, 0.1))
        self.rng = np.random.default_rng((seed, client_id))
        self.fault_rng = np.random.default_rng((seed, client_id, 0xFA))
        self.records: list[SimCallRecord] = []
        # Availability accounting: issued = len(records) + failed_calls.
        self.call_attempts = 0
        self.faults_seen = 0
        self.retries = 0
        self.failed_calls = 0
        self.shed_seen = 0
        self.failovers = 0
        self.late_calls = 0
        # A fault burns the keep-alive connection; the next delivered
        # call re-dials (full setup) and re-opens it.
        self._connection_open = False
        self.process = sim.process(self._run(), name=f"client-{client_id}")

    def _attempt_faults(self) -> Generator:
        """Pre-call fault/retry loop; yields the time faults burn.

        Returns (via StopIteration value) ``True`` when an attempt got
        through and the call proper should execute, ``False`` when all
        ``retry_attempts`` were eaten by faults.
        """
        for attempt in range(1, self.retry_attempts + 1):
            self.call_attempts += 1
            if (self.fault_rate == 0.0
                    or self.fault_rng.random() >= self.fault_rate):
                return True
            self.faults_seen += 1
            self._connection_open = False
            yield self.sim.timeout(self.fault_cost)
            if attempt < self.retry_attempts:
                self.retries += 1
        self.failed_calls += 1
        return False

    def _run(self) -> Generator:
        sim = self.sim
        # Desynchronize client start-up (real users do not begin in
        # lockstep; without this, max-min sharing phase-locks the flows).
        yield sim.timeout(float(self.rng.uniform(0.0, self.s)))
        while sim.now < self.horizon:
            yield sim.timeout(self.s)
            if self.rng.random() >= self.p:
                continue
            if sim.now >= self.horizon:
                break
            record = SimCallRecord(spec=self.spec, client_id=self.client_id,
                                   submit_time=sim.now, site=self.site)
            delivered = yield from self._attempt_faults()
            if not delivered:
                continue
            delivered = yield from self._issue(record)
            if not delivered:
                continue
            if (self.call_deadline is not None
                    and record.elapsed > self.call_deadline):
                self.late_calls += 1
            self.records.append(record)

    def _issue(self, record: SimCallRecord) -> Generator:
        """Issue one logical call, riding out sheds and deaths.

        Returns ``True`` when a reply reached the client (the record is
        complete), ``False`` when the attempt budget ran out.  The
        attempt budget is ``retry_attempts``, stretched to cover every
        failover target at least once when backups are configured.
        """
        sim = self.sim
        targets = [(self.server, self.route), *self.backups]
        budget = max(self.retry_attempts, len(targets))
        target = 0
        for attempt in range(1, budget + 1):
            server, route = targets[target % len(targets)]
            primary = server is self.server
            # A pooled client's connection is already open after the
            # first call; only the residual setup cost remains -- but a
            # faulted attempt burned the connection, so the call right
            # after a fault re-dials and pays full setup.
            t_setup = (self.pooled_setup
                       if self.pooled and primary and self._connection_open
                       else None)
            if attempt > 1:
                self.call_attempts += 1
                self.retries += 1
            yield from server.execute_call(record, route, t_setup=t_setup)
            if record.outcome == "ok":
                if primary:
                    self._connection_open = True
                return True
            if record.outcome == "shed":
                self.shed_seen += 1
            if attempt >= budget:
                break
            if len(targets) > 1:
                # Failover: replay on the next candidate (the live
                # BrokeredClient's metaserver re-pick).
                target += 1
                self.failovers += 1
            elif record.outcome == "dead":
                break  # nowhere else to go; retrying a corpse is futile
            else:
                # Shed with no backup: honour the server's retry-after
                # hint (the BUSY reply's backoff floor).
                yield sim.timeout(max(record.retry_after, 0.05))
        self.failed_calls += 1
        return False


def drain(sim: Simulator, clients: Sequence[WorkloadClient],
          horizon: float) -> None:
    """Run the issuing window, then every call still in flight.

    The clients stop issuing at ``horizon``; a load sampler may keep
    the event heap alive forever, so step until every client process
    has ended rather than until the heap is empty.
    """
    sim.run(until=horizon)
    while any(client.process.alive for client in clients):
        if not sim.step():  # pragma: no cover - clients hold events
            break
