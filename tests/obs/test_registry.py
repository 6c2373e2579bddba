"""MetricsRegistry unit tests: instruments, concurrency, exposition.

Covers the ISSUE 3 test satellites: histogram bucket edge cases,
concurrent increments from many threads (the server-handler pattern),
and a golden test of the Prometheus text exposition.
"""

import json
import math
import sys
import threading

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.registry import Histogram


# -- counters and gauges ----------------------------------------------------

def test_counter_basics():
    registry = MetricsRegistry()
    c = registry.counter("ninf_test_total", "help text")
    assert c.value() == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5


def test_counter_rejects_decrement():
    c = MetricsRegistry().counter("ninf_test_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_labels():
    c = MetricsRegistry().counter("ninf_test_total", labelnames=("kind",))
    c.inc(kind="delay")
    c.inc(kind="delay")
    c.inc(kind="corrupt")
    assert c.value(kind="delay") == 2.0
    assert c.value(kind="corrupt") == 1.0
    assert c.value(kind="never") == 0.0
    assert c.labelsets() == [("corrupt",), ("delay",)]


def test_label_mismatch_rejected():
    c = MetricsRegistry().counter("ninf_test_total", labelnames=("kind",))
    with pytest.raises(ValueError):
        c.inc()  # missing label
    with pytest.raises(ValueError):
        c.inc(kind="x", extra="y")


def test_gauge_moves_both_ways():
    g = MetricsRegistry().gauge("ninf_test_depth")
    g.set(5)
    g.dec(2)
    g.inc(0.5)
    assert g.value() == 3.5


def test_invalid_metric_name_rejected():
    registry = MetricsRegistry()
    for bad in ("", "9starts_with_digit", "has-dash", "has space"):
        with pytest.raises(ValueError):
            registry.counter(bad)


def test_registry_get_or_create_idempotent():
    registry = MetricsRegistry()
    a = registry.counter("ninf_test_total", "first help")
    b = registry.counter("ninf_test_total", "ignored on re-request")
    assert a is b
    assert registry.names() == ["ninf_test_total"]


def test_registry_kind_and_label_conflicts_raise():
    registry = MetricsRegistry()
    registry.counter("ninf_test_total")
    with pytest.raises(ValueError):
        registry.gauge("ninf_test_total")
    registry.counter("ninf_labelled_total", labelnames=("a",))
    with pytest.raises(ValueError):
        registry.counter("ninf_labelled_total", labelnames=("b",))


# -- histogram edge cases ---------------------------------------------------

def test_histogram_empty_quantile_is_nan():
    h = MetricsRegistry().histogram("ninf_test_seconds")
    assert math.isnan(h.quantile(0.5))
    assert h.count() == 0
    assert h.total() == 0.0
    assert h.value() == 0.0


def test_histogram_boundary_values_land_in_lower_bucket():
    # observe(v) lands in the first bucket with v <= bound (inclusive
    # upper bounds, like Prometheus le= semantics).
    h = Histogram("ninf_test_seconds", buckets=(1.0, 2.0))
    h.observe(1.0)
    snap = h.snapshot()
    assert snap["values"][0]["buckets"] == [1, 1, 1]  # cumulative


def test_histogram_overflow_goes_to_inf_bucket():
    h = Histogram("ninf_test_seconds", buckets=(1.0, 2.0))
    h.observe(99.0)
    snap = h.snapshot()
    assert snap["values"][0]["buckets"] == [0, 0, 1]
    # quantile clamps the +Inf bucket to the largest finite bound
    assert h.quantile(0.99) == 2.0


def test_histogram_quantile_interpolates():
    h = Histogram("ninf_test_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    # rank 2.0 of 4 -> falls in the (1, 2] bucket, which holds
    # observations 2 and 3 cumulatively; interpolation stays in bounds.
    q50 = h.quantile(0.5)
    assert 1.0 <= q50 <= 2.0
    assert h.quantile(0.0) <= h.quantile(1.0)
    assert h.quantile(1.0) == 4.0
    assert h.count() == 4
    assert h.total() == pytest.approx(6.5)
    assert h.value() == pytest.approx(6.5 / 4)


def test_histogram_quantile_range_checked():
    h = Histogram("ninf_test_seconds", buckets=(1.0,))
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("ninf_test_seconds", buckets=())
    with pytest.raises(ValueError):
        Histogram("ninf_test_seconds", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("ninf_test_seconds", buckets=(1.0, math.inf))


def test_default_buckets_sorted_and_finite():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert all(math.isfinite(b) for b in DEFAULT_BUCKETS)


# -- concurrency ------------------------------------------------------------

def test_concurrent_increments_from_threads():
    """The server-handler pattern: many threads hitting one family."""
    registry = MetricsRegistry()
    counter = registry.counter("ninf_test_total", labelnames=("fn",))
    hist = registry.histogram("ninf_test_seconds")
    per_thread, threads = 500, 8

    def worker(index):
        for i in range(per_thread):
            counter.inc(fn=f"f{index % 2}")
            hist.observe(i * 0.001)

    pool = [threading.Thread(target=worker, args=(i,))
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    total = counter.value(fn="f0") + counter.value(fn="f1")
    assert total == per_thread * threads
    assert hist.count() == per_thread * threads


# -- exposition -------------------------------------------------------------

def test_prometheus_text_golden():
    """Byte-exact exposition: sorted families, sorted children,
    histogram bucket/sum/count triplet, newline termination."""
    registry = MetricsRegistry()
    registry.counter("ninf_b_total", "counts b", labelnames=("kind",)) \
        .inc(3, kind="x")
    registry.gauge("ninf_a_depth", "a gauge").set(2)
    h = registry.histogram("ninf_c_seconds", "a histogram",
                           buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    expected = (
        "# HELP ninf_a_depth a gauge\n"
        "# TYPE ninf_a_depth gauge\n"
        "ninf_a_depth 2\n"
        "# HELP ninf_b_total counts b\n"
        "# TYPE ninf_b_total counter\n"
        'ninf_b_total{kind="x"} 3\n'
        "# HELP ninf_c_seconds a histogram\n"
        "# TYPE ninf_c_seconds histogram\n"
        'ninf_c_seconds_bucket{le="0.1"} 1\n'
        'ninf_c_seconds_bucket{le="1"} 2\n'
        'ninf_c_seconds_bucket{le="+Inf"} 3\n'
        "ninf_c_seconds_sum 5.55\n"
        "ninf_c_seconds_count 3\n"
    )
    assert registry.render_prometheus() == expected


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("ninf_e_total", labelnames=("msg",)) \
        .inc(msg='say "hi"\nback\\slash')
    text = registry.render_prometheus()
    assert r'msg="say \"hi\"\nback\\slash"' in text


def test_snapshot_is_json_roundtrippable():
    registry = MetricsRegistry()
    registry.counter("ninf_x_total").inc()
    registry.histogram("ninf_y_seconds", buckets=(1.0,)).observe(0.5)
    snap = json.loads(json.dumps(registry.snapshot(), sort_keys=True))
    assert snap["ninf_x_total"]["values"][0]["value"] == 1.0
    hist = snap["ninf_y_seconds"]["values"][0]
    assert hist["bounds"] == [1.0]
    assert hist["buckets"] == [1, 1]
    assert hist["count"] == 1


def test_empty_registry_renders_empty():
    assert MetricsRegistry().render_prometheus() == ""
    assert MetricsRegistry().snapshot() == {}


# -- bound children -----------------------------------------------------------

def _fill(registry, bound):
    """The same mutations, through bound children or ``**labels``."""
    counter = registry.counter("ninf_b_total", "counts b",
                               labelnames=("fn", "status"))
    gauge = registry.gauge("ninf_a_depth", "a gauge", labelnames=("q",))
    hist = registry.histogram("ninf_c_seconds", "a histogram",
                              labelnames=("fn",), buckets=(0.1, 1.0))
    plain = registry.counter("ninf_d_total", "unlabelled")
    # Bound but never mutated: renders nothing, like a label set never
    # passed to inc().
    counter.labels(fn="f", status="error")
    if bound:
        ok = counter.labels(fn="f", status="ok")
        depth = gauge.labels(q="x")
        seconds = hist.labels(fn="f")
        ok.inc()
        ok.inc(2.5)
        depth.set(4)
        depth.inc(-1.5)
        depth.inc()
        for value in (0.05, 0.5, 5.0):
            seconds.observe(value)
        plain.labels().inc(7)
    else:
        counter.inc(fn="f", status="ok")
        counter.inc(2.5, fn="f", status="ok")
        gauge.set(4, q="x")
        gauge.dec(1.5, q="x")
        gauge.inc(q="x")
        for value in (0.05, 0.5, 5.0):
            hist.observe(value, fn="f")
        plain.inc(7)


def test_bound_child_renders_as_inc_with_labels():
    via_labels, via_children = MetricsRegistry(), MetricsRegistry()
    _fill(via_labels, bound=False)
    _fill(via_children, bound=True)
    assert via_children.snapshot() == via_labels.snapshot()
    assert via_children.render_prometheus() \
        == via_labels.render_prometheus()
    assert 'status="error"' not in via_children.render_prometheus()
    assert via_children.get("ninf_b_total").value(fn="f", status="ok") \
        == 3.5


def test_labels_checks_the_label_set_once_at_bind():
    registry = MetricsRegistry()
    counter = registry.counter("ninf_test_total", labelnames=("fn",))
    for wrong in ({}, {"fn": "f", "extra": "x"}, {"function": "f"}):
        with pytest.raises(ValueError):
            counter.labels(**wrong)
    with pytest.raises(ValueError):
        registry.counter("ninf_plain_total").labels(fn="f")
    with pytest.raises(ValueError):
        registry.histogram("ninf_test_seconds").labels(fn="f")
    with pytest.raises(ValueError):
        counter.labels(fn="f").inc(-1)


def test_bound_child_is_exact_under_threads():
    """8 threads x 10k increments on one bound child lose none."""
    registry = MetricsRegistry()
    counter = registry.counter("ninf_test_total", labelnames=("fn",))
    child = counter.labels(fn="f")
    per_thread, threads = 10_000, 8

    def worker():
        for _ in range(per_thread):
            child.inc()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert counter.value(fn="f") == per_thread * threads
