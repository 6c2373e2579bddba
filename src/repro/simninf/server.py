"""The simulated Ninf computational server.

Executes the full call path of the real server
(:mod:`repro.server.server`) against simulated time: accept, fork,
argument upload over contended network flows, PE-pool computation
(task- or data-parallel), result download.  Given a scheduling policy,
it queues calls through the live executor's own
:class:`~repro.server.admission.AdmissionCore`, on simulated time.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.model.machines import MachineSpec
from repro.model.perf import DEFAULT_T_COMM0
from repro.obs import Tracer, current_tracer
from repro.obs.trace import (
    SPAN_COMPUTE,
    SPAN_CONNECT,
    SPAN_MARSHAL,
    SPAN_QUEUE,
    SPAN_RECV,
    SPAN_ROOT,
    SPAN_SEND,
    SPAN_UNMARSHAL,
)
from repro.server.admission import AdmissionCore, Ticket
from repro.server.scheduling import SchedulingPolicy
from repro.sim.engine import AllOf, Signal, Simulator
from repro.sim.machine import Machine
from repro.sim.network import Network, Route
from repro.simninf.calls import CallSpec, SimCallRecord

__all__ = ["SimNinfServer"]


class SimNinfServer:
    """A Ninf server bound to a simulated machine and network.

    Parameters
    ----------
    mode:
        ``"task"``: each call computes on one PE (the 1-PE tables);
        concurrent calls processor-share the PE pool.
        ``"data"``: each call uses the optimized all-PE library and the
        compute phases serialize FCFS (the 4-PE tables) -- while
        "communication with clients could be overlapped" (§4.2.1),
        which this model preserves because transfers are network flows.
    t_setup:
        Per-call connection + two-stage-RPC setup time (the model's
        ``T_comm0``), split evenly between upload and download phases.
    policy:
        A :class:`~repro.server.scheduling.SchedulingPolicy` (FCFS = the
        1997 server; SJF = the §5.2 proposal on CalcOrder predictions;
        FPFS/FPMPFS = §5.3).  Calls then queue for their PEs in the live
        executor's :class:`~repro.server.admission.AdmissionCore` over
        ``spec.num_pes``; ``None`` is the 1997 fork-on-arrival server.
    tracer:
        A :class:`~repro.obs.Tracer` (ideally built with the sim clock:
        ``Tracer(clock=lambda: sim.now, clock_name="sim")``).  Every
        simulated call then emits the same OBSERVABILITY.md span schema
        as the live :class:`~repro.client.NinfClient`; defaults to the
        process-wide :func:`~repro.obs.current_tracer`, resolved per
        call (the ``ninf-experiment --trace`` hook).
    """

    def __init__(self, sim: Simulator, network: Network, spec: MachineSpec,
                 mode: str = "task", t_setup: float = DEFAULT_T_COMM0,
                 load_tau: float = 60.0,
                 switch_overhead: float = 0.0,
                 policy: Optional[SchedulingPolicy] = None,
                 max_queued: Optional[int] = None,
                 tracer: Optional[Tracer] = None):
        if mode not in ("task", "data"):
            raise ValueError(f"mode must be 'task' or 'data', got {mode!r}")
        self.sim = sim
        self.network = network
        self.spec = spec
        self.mode = mode
        self.t_setup = t_setup
        self.machine = Machine(sim, spec.name, spec.num_pes,
                               switch_overhead=switch_overhead,
                               load_tau=load_tau)
        self.calls_completed = 0
        self._admission: Optional[AdmissionCore] = (
            None if policy is None else
            AdmissionCore(spec.num_pes, policy, clock=lambda: sim.now))
        self._grants: dict[Ticket, Signal] = {}
        # The door bound (DESIGN.md §3.5), the core's aside: an arrival
        # with ``capacity + max_queued`` calls in flight is shed (the
        # live BUSY) instead of joining the processor-share pile-up.
        self.max_queued = max_queued
        self.alive = True
        self.shed = 0
        self._inflight = 0
        self.tracer = tracer

    # -- resilience knobs ---------------------------------------------------

    def kill(self) -> None:
        """Take the server down: subsequent arrivals get outcome "dead"."""
        self.alive = False

    def _capacity(self) -> int:
        """Concurrent calls the PE pool absorbs without queueing."""
        return self.spec.num_pes if self.mode == "task" else 1

    def _shed_hint(self, spec: CallSpec) -> float:
        """The BUSY retry-after estimate: backlog x service time / PEs."""
        service = spec.comp_seconds(self.mode == "data")
        return service * self._inflight / max(1, self._capacity())

    # -- admission control --------------------------------------------------

    def _release(self, ticket: Optional[Ticket], service: float,
                 ok: bool = True) -> None:
        """Hand a call's PEs back to the core (no-op without a policy)."""
        if ticket is not None:
            self._admission.release(ticket, service, ok)
            self._dispatch()

    def _dispatch(self) -> None:
        """Grant every queued call the core starts now (§5.2/§5.3)."""
        while (ticket := self._admission.take()) is not None:
            self._grants.pop(ticket).fire()

    def execute_call(self, record: SimCallRecord, route: Route,
                     t_setup: Optional[float] = None) -> Generator:
        """Process body of one Ninf_call; fills in the record's times.

        ``t_setup`` overrides the server-wide per-call setup cost for
        this call only -- how pooled clients model an already-open
        connection (the TCP handshake + two-stage-RPC setup collapses
        to the residual the caller passes, typically 0).
        """
        sim = self.sim
        spec = record.spec
        setup = self.t_setup if t_setup is None else t_setup
        # Request packet reaches the server; acceptance stamps T_enqueue.
        yield sim.timeout(route.latency + setup / 2)
        record.enqueue_time = sim.now
        if not self.alive:
            record.outcome = "dead"
            record.complete_time = sim.now
            return record
        if (self.max_queued is not None
                and self._inflight >= self._capacity() + self.max_queued):
            # Admission refuses at the door (the live server's BUSY).
            self.shed += 1
            record.outcome = "shed"
            record.retry_after = self._shed_hint(spec)
            record.complete_time = sim.now
            return record
        self._inflight += 1
        if spec.pes is not None:
            pes_required = spec.pes
        else:
            pes_required = self.spec.num_pes if self.mode == "data" else 1
        ticket = None
        if self._admission is not None:
            # Queue for PEs in policy order (§5.2/§5.3).
            ticket = Ticket(min(pes_required, self.spec.num_pes),
                            spec.work_units)
            grant = self._grants[ticket] = Signal(sim)
            self._admission.offer(ticket)
            self._dispatch()
            yield grant
        # fork & exec of the Ninf executable stamps T_dequeue.
        yield sim.timeout(self.spec.fork_overhead)
        record.dequeue_time = sim.now
        # Argument upload: a network flow pipelined with server-side
        # unmarshalling, which burns PE time (scalar XDR/TCP processing;
        # this is what saturates the J90's CPU in Tables 3/4).
        comm_start = sim.now
        yield from self._transfer(route, spec.input_bytes)
        record.comm_seconds += sim.now - comm_start
        upload_end = sim.now
        # Computation on the PE pool.
        if pes_required >= self.spec.num_pes and self.spec.num_pes > 1:
            work = spec.comp_seconds(data_parallel=True) * self.spec.num_pes
            yield from self.machine.run_serialized(work)
        else:
            work = spec.comp_seconds(data_parallel=False)
            yield from self.machine.run(work, max_pes=float(pes_required))
        compute_end = sim.now
        if not self.alive:
            # Killed mid-call: the computed result never leaves the host.
            self._inflight -= 1
            self._release(ticket, compute_end - upload_end, ok=False)
            record.outcome = "dead"
            record.complete_time = sim.now
            return record
        # Result download (marshalling again pipelined).
        comm_start = sim.now
        yield from self._transfer(route, spec.output_bytes)
        yield sim.timeout(setup / 2)
        record.comm_seconds += sim.now - comm_start
        record.complete_time = sim.now
        record.outcome = "ok"
        self.calls_completed += 1
        self._inflight -= 1
        self._release(ticket, compute_end - upload_end)
        self._emit_trace(record, upload_end, compute_end)
        return record

    def _emit_trace(self, record: SimCallRecord, upload_end: float,
                    compute_end: float) -> None:
        """Emit the OBSERVABILITY.md span schema for one finished call.

        Everything is recorded retroactively from simulated timestamps,
        so the spans carry ``clock="sim"`` regardless of the tracer's
        own clock.  Marshalling is folded into the transfer flows by the
        model (:meth:`_transfer` pipelines it with the wire transfer),
        so ``call.marshal``/``call.unmarshal`` are emitted as
        zero-duration markers -- keeping the live and simulated schemas
        identical without inventing a phase the model does not resolve.
        """
        tracer = self.tracer if self.tracer is not None else current_tracer()
        trace = tracer.trace(SPAN_ROOT, start=record.submit_time,
                             function=record.spec.name,
                             client_id=record.client_id, source="sim")
        root = getattr(trace, "root", None)
        if root is not None:
            root.clock = "sim"
        submit, enqueue = record.submit_time, record.enqueue_time
        dequeue, complete = record.dequeue_time, record.complete_time
        trace.record(SPAN_MARSHAL, submit, submit, clock="sim")
        trace.record(SPAN_CONNECT, submit, enqueue, clock="sim")
        trace.record(SPAN_QUEUE, enqueue, dequeue, clock="sim")
        trace.record(SPAN_SEND, dequeue, upload_end, clock="sim")
        trace.record(SPAN_COMPUTE, upload_end, compute_end, clock="sim")
        trace.record(SPAN_RECV, compute_end, complete, clock="sim")
        trace.record(SPAN_UNMARSHAL, complete, complete, clock="sim")
        trace.end(at=complete, status="ok")

    def _transfer(self, route, nbytes: float) -> Generator:
        """One direction of data movement: flow + marshalling in parallel.

        The transfer completes when both the wire transfer and the
        server-side (un)marshalling are done; if the PEs are busy the
        marshalling stage stretches, throttling the effective transfer
        rate -- the coupling that makes heavily loaded servers slow
        communicators in the paper's tables.
        """
        if nbytes <= 0:
            return
        flow = self.network.transfer(route, nbytes)
        marshal_work = nbytes / self.spec.xdr_bandwidth
        marshal = self.sim.process(
            self.machine.run(marshal_work, max_pes=1.0, threads=1),
            name=f"{self.spec.name}-marshal",
        )
        yield AllOf([flow, marshal])
