"""The live-breakdown pipeline: spans -> per-call phase breakdowns.

This is the consumer end of the observability layer (OBSERVABILITY.md
§"The breakdown pipeline"): take the spans a
:class:`~repro.obs.Tracer` collected -- from the live RPC stack or from
the simulator, the schema is identical -- and render the paper-style
stacked transfer/compute/queue table (the decomposition behind Tables
3-7: communication = elapsed - wait - service).

Phase accounting is derivation, not summation of transfer spans:
``transfer = total - queue - compute``.  This is robust for both
sources -- in a live trace the ``call.recv`` window *overlaps* the
server's queue and compute phases (the client is simply waiting), so
summing transfer-phase spans would double-count; subtracting the two
exclusive phases from the root span never does.

Two convenience drivers feed the pipeline: :func:`live_loopback_breakdown`
runs real ``Ninf_call``\\ s against an in-process TCP server, and
:func:`sim_breakdown` runs a simulated multi-client cell.  Both are
what ``ninf-experiment breakdown`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.obs import Span, Tracer
from repro.obs.trace import SPAN_COMPUTE, SPAN_QUEUE, SPAN_ROOT

__all__ = [
    "CallPhases",
    "PhaseBreakdown",
    "breakdown_from_spans",
    "format_breakdown",
    "live_loopback_breakdown",
    "sim_breakdown",
    "summarize",
]


@dataclass(frozen=True)
class CallPhases:
    """The phase decomposition of one traced ``Ninf_call`` (seconds)."""

    trace_id: int
    function: str
    source: str   # "live" or "sim" (the root span's source attr)
    total: float
    queue: float
    compute: float

    @property
    def transfer(self) -> float:
        """Everything that is not queueing or computing: connection
        setup, marshalling, and wire time (the paper's communication
        term, derived as ``total - queue - compute``)."""
        return max(0.0, self.total - self.queue - self.compute)


@dataclass(frozen=True)
class PhaseBreakdown:
    """Aggregate phase breakdown over a set of calls (mean seconds)."""

    label: str
    calls: int
    total: float
    transfer: float
    queue: float
    compute: float

    def share(self, phase: str) -> float:
        """A phase's fraction of mean total time (0 when total is 0)."""
        if self.total <= 0:
            return 0.0
        return getattr(self, phase) / self.total


def _field(span: Union[Span, dict], key: str):
    """Read a span field from a Span object or an exported dict."""
    if isinstance(span, dict):
        return span.get(key)
    return getattr(span, key, None)


def breakdown_from_spans(
        spans: Sequence[Union[Span, dict]]) -> list[CallPhases]:
    """Per-call phase decompositions from a span collection.

    Accepts :class:`~repro.obs.Span` objects (``tracer.spans``) or
    exported dicts (``tracer.export()`` / a saved JSON-lines file).
    Calls without a finished root span are skipped; span order does not
    matter.  Results are sorted by trace id (= call start order).
    """
    by_trace: dict[int, dict[str, float]] = {}
    meta: dict[int, dict] = {}
    for span in spans:
        trace_id = _field(span, "trace_id")
        name = _field(span, "name")
        duration = _field(span, "duration")
        if duration is None:
            duration = _field(span, "end") - _field(span, "start")
        phases = by_trace.setdefault(trace_id, {})
        if name == SPAN_ROOT:
            phases["total"] = duration
            attrs = _field(span, "attrs") or {}
            meta[trace_id] = attrs
        elif name == SPAN_QUEUE:
            phases["queue"] = phases.get("queue", 0.0) + duration
        elif name == SPAN_COMPUTE:
            phases["compute"] = phases.get("compute", 0.0) + duration
    calls = []
    for trace_id in sorted(by_trace):
        phases = by_trace[trace_id]
        if "total" not in phases:
            continue  # root never ended (failed or in-flight call)
        attrs = meta.get(trace_id, {})
        calls.append(CallPhases(
            trace_id=trace_id,
            function=str(attrs.get("function", "?")),
            source=str(attrs.get("source", "?")),
            total=phases["total"],
            queue=phases.get("queue", 0.0),
            compute=phases.get("compute", 0.0),
        ))
    return calls


def summarize(calls: Sequence[CallPhases],
              label: Optional[str] = None) -> PhaseBreakdown:
    """Mean-per-call aggregate of a list of :class:`CallPhases`."""
    if label is None:
        label = calls[0].source if calls else "empty"
    count = len(calls)
    if count == 0:
        return PhaseBreakdown(label=label, calls=0, total=0.0,
                              transfer=0.0, queue=0.0, compute=0.0)
    return PhaseBreakdown(
        label=label,
        calls=count,
        total=sum(c.total for c in calls) / count,
        transfer=sum(c.transfer for c in calls) / count,
        queue=sum(c.queue for c in calls) / count,
        compute=sum(c.compute for c in calls) / count,
    )


def format_breakdown(rows: Sequence[PhaseBreakdown]) -> str:
    """Paper-style stacked table: one line per breakdown row.

    Columns are mean seconds per call plus the transfer/compute shares
    of total time -- the same decomposition the paper's multi-client
    tables report as throughput vs. server-time columns.
    """
    header = (f"{'source':<28} {'calls':>5} {'total':>9} {'transfer':>9} "
              f"{'queue':>9} {'compute':>9} {'xfer%':>6} {'comp%':>6}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.label:<28} {row.calls:>5} {row.total:>9.4f} "
            f"{row.transfer:>9.4f} {row.queue:>9.4f} {row.compute:>9.4f} "
            f"{row.share('transfer') * 100:>5.1f}% "
            f"{row.share('compute') * 100:>5.1f}%"
        )
    return "\n".join(lines)


def _breakdown_server_main(conn, num_pes: int) -> None:
    """Child-process entry point for the cross-process breakdown arms.

    Runs a standard-library :class:`~repro.server.NinfServer`, reports
    its bound address over the pipe, and serves until the parent closes
    its end (or sends anything).  Module-level so the ``spawn`` start
    method can pickle it.
    """
    from repro.cli import standard_registry
    from repro.server import NinfServer

    with NinfServer(standard_registry(), num_pes=num_pes) as server:
        conn.send(server.address)
        try:
            conn.recv()  # blocks until the parent signals shutdown
        except EOFError:
            pass


def live_loopback_breakdown(calls: int = 4, n: int = 64,
                            tracer: Optional[Tracer] = None,
                            shm: Optional[bool] = None,
                            cross_process: bool = False
                            ) -> tuple[PhaseBreakdown, list[CallPhases]]:
    """Run real ``Ninf_call``\\ s over loopback and break them down.

    Starts a :class:`~repro.server.NinfServer` with the standard
    library, makes ``calls`` ``dmmul(n)`` calls through a
    wall-clock-traced :class:`~repro.client.NinfClient`, and returns
    the aggregate plus per-call decompositions.  Pass ``tracer`` to
    also keep the raw spans (e.g. for ``--trace`` capture).

    ``shm`` selects the transport-ablation arm (PROTOCOL.md
    §"Shared-memory handshake"): ``None`` (default) and ``False`` both
    run the stock client over loopback TCP (they differ only in the row
    label); ``True`` offers the shared-memory upgrade, which is how
    ``ninf-experiment breakdown`` shows the transfer-phase drop the shm
    rings buy on the same host.

    ``cross_process`` runs the server in a spawned child process
    instead of background threads.  This is the configuration the shm
    transport exists for: with client and server in one process the
    two sides share the GIL, so ring copies serialize against the very
    peer being fed and the comparison measures interpreter scheduling,
    not transport.  (Queue/compute spans still work -- the server
    reports its timestamps in the reply and the client records the
    spans locally.)
    """
    import multiprocessing

    import numpy as np

    from repro.cli import standard_registry
    from repro.client import NinfClient
    from repro.server import NinfServer

    tracer = tracer if tracer is not None else Tracer()
    rng = np.random.default_rng(1997)
    a = rng.random((n, n))
    b = rng.random((n, n))
    c = np.zeros((n, n))

    def run_calls(host: str, port: int) -> None:
        with NinfClient(host, port, tracer=tracer,
                        shm=bool(shm)) as client:
            for _ in range(calls):
                client.call("dmmul", n, a, b, c)

    if cross_process:
        # spawn, never fork: the parent may be running asyncio servers
        # on background threads (and a forked child would inherit them).
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        proc = context.Process(target=_breakdown_server_main,
                               args=(child_conn, 2), daemon=True)
        proc.start()
        child_conn.close()
        try:
            host, port = parent_conn.recv()
            run_calls(host, port)
        finally:
            parent_conn.close()  # EOF tells the child to shut down
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck child
                proc.terminate()
                proc.join()
    else:
        with NinfServer(standard_registry(), num_pes=2) as server:
            host, port = server.address
            run_calls(host, port)
    per_call = [p for p in breakdown_from_spans(tracer.spans)
                if p.source == "live"]
    suffix = "" if shm is None else (" shm" if shm else " tcp")
    where = " xproc" if cross_process else ""
    label = f"live dmmul(n={n}){where}{suffix}"
    return summarize(per_call, label=label), per_call


def sim_breakdown(n: int = 600, c: int = 4, server_name: str = "j90",
                  mode: str = "task", horizon: float = 60.0,
                  tracer: Optional[Tracer] = None
                  ) -> tuple[PhaseBreakdown, list[CallPhases]]:
    """Break down a simulated LAN multi-client cell the same way.

    Runs the Table 3 scenario (``c`` clients calling Linpack ``n`` on a
    ``server_name`` server over the LAN catalog) with a sim-clock
    tracer attached and feeds the resulting spans through the same
    :func:`breakdown_from_spans` pipeline as the live path -- the
    schema-parity this module exists to demonstrate.  The tracer's
    ``clock`` callable is never consulted here: simulated spans carry
    explicit simulated timestamps.
    """
    from repro.experiments.common import run_multiclient_cell
    from repro.model.machines import machine
    from repro.model.network import lan_catalog
    from repro.simninf.calls import linpack_spec

    tracer = tracer if tracer is not None else Tracer(clock_name="sim")
    server = machine(server_name)
    client = machine("alpha")
    catalog = lan_catalog(server)

    def route_factory(net, i):
        return catalog.route_for(client, i)

    run_multiclient_cell(server, route_factory, linpack_spec(server, n),
                         c, mode=mode, n=n, horizon=horizon, tracer=tracer)
    per_call = [p for p in breakdown_from_spans(tracer.spans)
                if p.source == "sim"]
    label = f"sim linpack(n={n}) c={c}"
    return summarize(per_call, label=label), per_call
