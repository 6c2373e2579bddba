"""Span-based tracing with explicit clock injection.

One ``Ninf_call`` becomes one :class:`Trace`: a root ``ninf.call`` span
plus child spans for every phase of the call path (marshal, connect,
send, queue, compute, recv, unmarshal -- the taxonomy is specified in
OBSERVABILITY.md and pinned by :data:`SPAN_NAMES`).  The same schema is
emitted by the live RPC stack (:class:`~repro.client.NinfClient`,
wall clock) and by the simulator
(:class:`~repro.simninf.server.SimNinfServer`, simulated clock), so
live and simulated traces are directly comparable and one breakdown
pipeline (:mod:`repro.experiments.breakdown`) renders both.

Clock injection rules (see OBSERVABILITY.md §"Clocks"):

- A :class:`Tracer` owns a clock (``clock`` callable + ``clock_name``).
  Spans opened via :meth:`Trace.span` read it; spans recorded
  retroactively via :meth:`Trace.record` carry explicit timestamps.
- Timestamps are *clock-local*; only durations are comparable across
  clocks.  Each span names its clock in the ``clock`` field (``wall``,
  ``sim``, or ``server-wall`` for spans rebuilt from a server's
  :class:`~repro.protocol.messages.JobTimestamps`).

Use :func:`use_tracer` to install a process-wide active tracer that
instrumented components fall back to when none is passed explicitly --
this is how ``ninf-experiment --trace`` captures spans from existing
experiment drivers without threading a tracer through every layer.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from contextlib import AbstractContextManager, contextmanager, nullcontext

__all__ = [
    "NULL_TRACER",
    "PHASE_OF_SPAN",
    "SPAN_FIELDS",
    "SPAN_NAMES",
    "Span",
    "Trace",
    "Tracer",
    "current_tracer",
    "use_tracer",
]

# The span taxonomy: every span a Ninf trace may contain.  The docs
# checker (tests/test_docs_consistency.py) asserts each name is
# documented in OBSERVABILITY.md; the schema-equality test asserts live
# and simulated traces draw from this same set.
SPAN_ROOT = "ninf.call"
SPAN_MARSHAL = "call.marshal"
SPAN_CONNECT = "call.connect"
SPAN_SEND = "call.send"
SPAN_QUEUE = "call.queue"
SPAN_COMPUTE = "call.compute"
SPAN_RECV = "call.recv"
SPAN_UNMARSHAL = "call.unmarshal"

SPAN_NAMES = (SPAN_ROOT, SPAN_MARSHAL, SPAN_CONNECT, SPAN_SEND,
              SPAN_QUEUE, SPAN_COMPUTE, SPAN_RECV, SPAN_UNMARSHAL)

# Phase classification used by the breakdown pipeline: everything that
# is not queue or compute is transfer (the paper's "communication"
# includes marshalling and connection setup).
PHASE_OF_SPAN = {
    SPAN_ROOT: "total",
    SPAN_MARSHAL: "transfer",
    SPAN_CONNECT: "transfer",
    SPAN_SEND: "transfer",
    SPAN_QUEUE: "queue",
    SPAN_COMPUTE: "compute",
    SPAN_RECV: "transfer",
    SPAN_UNMARSHAL: "transfer",
}

# The fixed top-level keys of an exported span dict; attrs is the open
# extension point.  The live-vs-sim schema test compares these.
SPAN_FIELDS = ("trace_id", "span_id", "parent_id", "name", "start",
               "end", "duration", "clock", "attrs")

_ids = itertools.count(1)


@dataclass
class Span:
    """One timed phase of a trace.

    ``start``/``end`` are clock-local timestamps (see the module
    docstring); ``clock`` names the clock they were read from.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    clock: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in (clock-local) seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """The canonical exported form (keys = :data:`SPAN_FIELDS`)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "clock": self.clock,
            "attrs": dict(self.attrs),
        }


class Trace:
    """One call's span tree: a root span plus phase children.

    Created by :meth:`Tracer.trace`; finished with :meth:`end` (or by
    using the trace as a context manager).  Children are added either
    live (:meth:`span`, reads the tracer clock on entry and exit) or
    retroactively (:meth:`record`, explicit timestamps -- how server-
    clock and simulated-time spans enter a trace).
    """

    def __init__(self, tracer: "Tracer", name: str, start: float,
                 attrs: dict):
        self.tracer = tracer
        self.trace_id = next(_ids)
        self.root = Span(trace_id=self.trace_id, span_id=next(_ids),
                         parent_id=None, name=name, start=start,
                         end=start, clock=tracer.clock_name, attrs=attrs)
        self._ended = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Context manager timing one child span on the tracer clock.

        An exception escaping the block stamps ``status="error"`` on
        the span and re-raises; the span is recorded either way.
        """
        child = Span(trace_id=self.trace_id, span_id=next(_ids),
                     parent_id=self.root.span_id, name=name,
                     start=self.tracer.clock(), end=0.0,
                     clock=self.tracer.clock_name, attrs=attrs)
        try:
            yield child
        except BaseException:
            child.attrs["status"] = "error"
            raise
        finally:
            child.end = self.tracer.clock()
            self.tracer._emit(child)

    def record(self, name: str, start: float, end: float,
               clock: Optional[str] = None, **attrs) -> Span:
        """Add a child span with explicit timestamps.

        ``clock`` overrides the tracer's clock name -- e.g. a live
        trace records ``call.queue`` from server-side timestamps with
        ``clock="server-wall"``.
        """
        child = Span(trace_id=self.trace_id, span_id=next(_ids),
                     parent_id=self.root.span_id, name=name,
                     start=start, end=end,
                     clock=clock or self.tracer.clock_name, attrs=attrs)
        self.tracer._emit(child)
        return child

    def end(self, at: Optional[float] = None, **attrs) -> Span:
        """Close the root span (idempotent) and emit it."""
        if self._ended:
            return self.root
        self._ended = True
        self.root.end = self.tracer.clock() if at is None else at
        self.root.attrs.update(attrs)
        self.tracer._emit(self.root)
        return self.root

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.end(**({"status": "error"} if exc_type else {}))


# What _NullTrace hands back: a single throwaway span, so its method
# signatures match Trace exactly (mypy --strict checks the overrides).
_NULL_SPAN = Span(trace_id=0, span_id=0, parent_id=None, name="null",
                  start=0.0, end=0.0, clock="null")
# ... and a single reusable no-op scope yielding it: a null span costs
# no generator.
_NULL_SCOPE = nullcontext(_NULL_SPAN)


class _NullTrace(Trace):
    """Trace that records nothing; keeps instrumented code branch-free."""

    def __init__(self) -> None:  # noqa: D107 - no tracer to bind
        pass

    def span(  # type: ignore[override]
            self, name: str, **attrs) -> AbstractContextManager[Span]:
        """No-op child span."""
        return _NULL_SCOPE

    def record(self, name: str, start: float, end: float,
               clock: Optional[str] = None, **attrs) -> Span:
        """No-op retro span."""
        return _NULL_SPAN

    def end(self, at: Optional[float] = None, **attrs) -> Span:
        """No-op close."""
        return _NULL_SPAN

    def __exit__(self, exc_type, *exc_info) -> None:
        pass


_NULL_TRACE = _NullTrace()


class Tracer:
    """Collects finished spans; owns the clock they are stamped with.

    Parameters
    ----------
    clock:
        Callable returning the current time in seconds.  Wall-clock
        tracers use ``time.monotonic`` (the default); simulated tracers
        inject ``lambda: sim.now``.
    clock_name:
        The name stamped into each span's ``clock`` field (``"wall"``,
        ``"sim"``, ...).
    enabled:
        ``False`` builds the null tracer: :meth:`trace` returns a
        no-op trace, nothing is collected.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 clock_name: str = "wall", enabled: bool = True):
        self.clock = clock
        self.clock_name = clock_name
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def trace(self, name: str = SPAN_ROOT,
              start: Optional[float] = None, **attrs) -> Trace:
        """Open a new trace whose root span is ``name``."""
        if not self.enabled:
            return _NULL_TRACE
        at = self.clock() if start is None else start
        return Trace(self, name, at, attrs)

    def _emit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        """Snapshot of every finished span collected so far."""
        with self._lock:
            return list(self._spans)

    def export(self) -> list[dict]:
        """Every collected span as a JSON-able dict, in emit order."""
        with self._lock:
            return [span.to_dict() for span in self._spans]

    def save(self, path: str) -> int:
        """Write the export as JSON lines; returns the span count."""
        spans = self.export()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return len(spans)

    def clear(self) -> None:
        """Drop every collected span."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


NULL_TRACER = Tracer(enabled=False)

_active_lock = threading.Lock()
_active_tracer: Optional[Tracer] = None


def current_tracer() -> Tracer:
    """The process-wide active tracer (:data:`NULL_TRACER` if none).

    Instrumented components that were not handed a tracer explicitly
    fall back to this -- the hook behind ``ninf-experiment --trace``.
    """
    with _active_lock:
        return _active_tracer if _active_tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the process-wide active tracer.

    Process-wide, not thread-local, because a live RPC call path spans
    several threads; nest scopes only from one controlling thread.
    """
    global _active_tracer
    with _active_lock:
        previous, _active_tracer = _active_tracer, tracer
    try:
        yield tracer
    finally:
        with _active_lock:
            _active_tracer = previous
