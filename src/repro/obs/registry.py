"""Lock-safe in-process metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is the single place a process accumulates
operational numbers.  Three instrument kinds cover the reproduction's
needs (the naming and exposition conventions are specified in
OBSERVABILITY.md):

- :class:`Counter` -- monotonically increasing totals (bytes sent,
  faults injected, calls completed).
- :class:`Gauge` -- a value that goes both ways (queue depth, idle
  connections).
- :class:`Histogram` -- fixed-bucket distributions with count/sum and
  a quantile *estimate* by linear interpolation inside the bucket that
  crosses the requested rank (dispatch latency, per-function service
  time).

Every instrument supports label dimensions declared at registration
time; a labelled instrument is a family of children keyed by the label
values, and ``labels(...)`` binds one child for a hot path to hold.  All
mutation is lock-protected, so server handler threads may increment
concurrently.

Exposition is zero-dependency: :meth:`MetricsRegistry.render_prometheus`
emits the Prometheus text format (families sorted by name, children by
label values, so output is deterministic and golden-testable) and
:meth:`MetricsRegistry.snapshot` emits a JSON-able dict -- the payload
of the ``STATS`` protocol op (see OBSERVABILITY.md and DESIGN.md §3.3).

Registries are deliberately *instance-scoped*, not a process-global
singleton: each :class:`~repro.client.NinfClient`, server, and pool
owns (or is handed) one, which keeps per-client counter semantics
exact and tests isolated.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from typing import Any, Optional, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

# Default histogram upper bounds (seconds-flavoured, like Prometheus
# client defaults): sub-millisecond through minutes, +Inf implicit.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | set("0123456789")


def _check_name(name: str) -> str:
    if not name or name[0] not in _VALID_FIRST \
            or any(ch not in _VALID_REST for ch in name[1:]):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labelnames: Sequence[str], labels: dict) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple(str(labels[n]) for n in labelnames)


def _render_labels(labelnames: Sequence[str], key: tuple,
                   extra: Optional[tuple[str, str]] = None) -> str:
    pairs = [(n, v) for n, v in zip(labelnames, key)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{n}="{_escape(v)}"' for n, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Common machinery: a named, labelled family of child values."""

    kind = "untyped"
    _Child: type["_Child"]  # the kind's bound child (see labels())

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, Any] = {}
        # An unlabelled family's one child, bound up front: inc() and
        # observe() without labels skip label validation.
        self._unlabelled = None if self.labelnames else self._Child(self, ())

    def _key(self, labels: dict) -> tuple:
        return _label_key(self.labelnames, labels)

    def labels(self, **labels: object) -> Any:
        """The child addressed by ``labels``, checked once here, for a
        hot path to hold: it mutates this family's own storage under
        this family's lock, so it renders exactly as ``inc(**labels)``
        would, and only once it has been mutated."""
        return self._Child(self, self._key(labels))

    def _child(self, labels: dict) -> Any:
        if not labels and self._unlabelled is not None:
            return self._unlabelled
        return self.labels(**labels)

    def value(self, **labels) -> float:
        """Current value of the child addressed by ``labels``."""
        with self._lock:
            return self._children.get(self._key(labels), 0.0)

    def labelsets(self) -> list[tuple]:
        """Every label-value tuple this family has seen, sorted."""
        with self._lock:
            return sorted(self._children)


class _Child:
    """One child of a family, bound by :meth:`_Instrument.labels`: it
    holds the family's own lock and ``_children`` dict, not copies."""

    __slots__ = ("_lock", "_children", "_key")

    def __init__(self, family: _Instrument, key: tuple) -> None:
        self._lock = family._lock
        self._children = family._children
        self._key = key

    def _add(self, amount: float = 1.0) -> None:
        key = self._key
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0)."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = self._key
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount


class _GaugeChild(_Child):
    __slots__ = ()
    inc = _Child._add  # any sign

    def set(self, value: float) -> None:
        """Replace the value."""
        with self._lock:
            self._children[self._key] = float(value)


class _Scalar(_Instrument):
    """A family of plain numbers: exposition shared by counter and
    gauge."""

    def snapshot(self) -> dict:
        """JSON-able form: {"type", "help", "labels", "values"}."""
        with self._lock:
            items = sorted(self._children.items())
        return {"type": self.kind, "help": self.help,
                "labelnames": list(self.labelnames),
                "values": [{"labels": dict(zip(self.labelnames, key)),
                            "value": value} for key, value in items]}

    def render(self) -> list[str]:
        """Prometheus text lines for this family."""
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            items = sorted(self._children.items())
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Counter(_Scalar):
    """A monotonically increasing total; decrements are rejected."""

    kind = "counter"
    _Child = _CounterChild

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (>= 0) to the addressed child."""
        self._child(labels).inc(amount)


class Gauge(_Scalar):
    """A value that can rise and fall (queue depth, idle connections)."""

    kind = "gauge"
    _Child = _GaugeChild

    def set(self, value: float, **labels) -> None:
        """Replace the addressed child's value."""
        self._child(labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (may be negative) to the addressed child."""
        self._child(labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount`` from the addressed child."""
        self._child(labels).inc(-amount)


class _HistChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, nbuckets: int):
        self.counts = [0] * (nbuckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class _HistogramChild(_Child):
    __slots__ = ("_buckets",)

    def __init__(self, family: "Histogram", key: tuple) -> None:
        super().__init__(family, key)
        self._buckets = family.buckets

    def observe(self, value: float) -> None:
        """Record one observation into the bucketed distribution."""
        value = float(value)
        index = bisect.bisect_left(self._buckets, value)
        with self._lock:
            child = self._children.get(self._key)
            if child is None:
                child = self._children[self._key] = _HistChild(
                    len(self._buckets))
            child.counts[index] += 1
            child.sum += value
            child.count += 1


class Histogram(_Instrument):
    """Fixed-bucket histogram with quantile estimation.

    ``buckets`` are the inclusive upper bounds of each bucket
    (``observe(v)`` lands in the first bucket with ``v <= bound``); a
    final ``+Inf`` bucket is implicit, so no observation is ever
    dropped.  Quantiles are *estimates*: linear interpolation between
    the lower and upper bound of the bucket containing the requested
    rank, with the +Inf bucket clamped to the largest finite bound
    (the standard Prometheus ``histogram_quantile`` behaviour).
    """

    kind = "histogram"
    _Child = _HistogramChild

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b != b or b == math.inf for b in bounds):
            raise ValueError("bucket bounds must be finite numbers")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {bounds}")
        self.buckets = bounds  # before the unlabelled child binds them
        super().__init__(name, help, labelnames)

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the bucketed distribution."""
        self._child(labels).observe(value)

    def _read(self, labels: dict) -> tuple[list[int], float, int]:
        """The addressed child's bucket counts, sum and count."""
        with self._lock:
            child = self._children.get(self._key(labels))
            if child is None:
                return [], 0.0, 0
            return list(child.counts), child.sum, child.count

    def _items(self) -> list[tuple[tuple, list[int], float, int]]:
        with self._lock:
            return [(key, list(child.counts), child.sum, child.count)
                    for key, child in sorted(self._children.items())]

    def count(self, **labels) -> int:
        """Total observations recorded for the addressed child."""
        return self._read(labels)[2]

    def total(self, **labels) -> float:
        """Sum of all observed values for the addressed child."""
        return self._read(labels)[1]

    def value(self, **labels) -> float:
        """The mean observation (sum/count); 0.0 when empty."""
        _counts, total, count = self._read(labels)
        return total / count if count else 0.0

    def quantile(self, q: float, **labels) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) by bucket
        interpolation; ``nan`` when no observations exist."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, _sum, total = self._read(labels)
        if not total:
            return math.nan
        rank = q * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):  # +Inf bucket
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                within = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(within, 0.0), 1.0)
        return self.buckets[-1]  # pragma: no cover - rank <= total always

    def snapshot(self) -> dict:
        """JSON-able form including per-bucket cumulative counts."""
        values = []
        for key, counts, total, count in self._items():
            values.append({
                "labels": dict(zip(self.labelnames, key)),
                "buckets": list(itertools.accumulate(counts)),
                "bounds": list(self.buckets),
                "sum": total,
                "count": count,
            })
        return {"type": self.kind, "help": self.help,
                "labelnames": list(self.labelnames), "values": values}

    def render(self) -> list[str]:
        """Prometheus text lines (``_bucket``/``_sum``/``_count``)."""
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for key, counts, total, count in self._items():
            running = 0
            for bound, bucket_count in zip(
                    list(self.buckets) + [math.inf], counts):
                running += bucket_count
                labels = _render_labels(self.labelnames, key,
                                        extra=("le", _format_value(bound)))
                lines.append(f"{self.name}_bucket{labels} {running}")
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{labels} {_format_value(total)}")
            lines.append(f"{self.name}_count{labels} {count}")
        return lines


class MetricsRegistry:
    """A named collection of instruments with deterministic exposition.

    ``counter``/``gauge``/``histogram`` are idempotent get-or-create
    calls: asking for an existing name returns the existing instrument
    (so independent modules can share a family), while asking for an
    existing name with a *different* kind or label set raises -- silent
    type confusion is how metric bugs hide.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"{name!r} already registered as {existing.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"{name!r} already registered with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help=help, labelnames=labelnames,
                             **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument called ``name``, or None."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict:
        """JSON-able dict of every instrument (the STATS payload)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.snapshot()
                for name, instrument in instruments}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, newline-terminated.

        Families are sorted by name and children by label values, so
        equal registry states render byte-identically (golden-testable).
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: list[str] = []
        for _name, instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + ("\n" if lines else "")
