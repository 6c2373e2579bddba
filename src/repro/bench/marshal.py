"""``ninf-bench marshal`` -- the bulk-vs-scalar XDR codec microbench.

The paper's call-time breakdown attributes most of a Linpack-style
call to argument marshalling and transfer; PR 8 replaced the
per-element XDR pack loop with the vectorized bulk codecs of
:mod:`repro.xdr.bulk`.  This harness quantifies that change the same
way ``ninf-bench rpc`` quantifies dispatch: one committed
``BENCH_marshal.json`` per hot-path PR, listed and gated by
``ninf-bench trajectory``.

Each case encodes *and* decodes one homogeneous array -- doubles and
32-bit ints, across element counts -- twice: once through the
scalar-loop reference codecs (``scalar_pack_* `` / ``scalar_unpack_*``,
the pre-bulk implementation kept as the oracle) and once through the
bulk fast path the RPC stack actually uses.  Timings are best-of-N
wall-clock; the per-case ``speedup`` is scalar time over bulk time for
the full encode+decode round trip, and the report's headline
``summary.speedup`` is the largest-double-array case -- the shape the
breakdown experiment's matrix arguments take.  Wire equality between
the two codecs is asserted on every case (``wire_match``), so a
"fast but wrong" codec fails the bench before it flatters it.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.bench.schema import (
    MARSHAL_SCHEMA_VERSION,
    dump_report,
    git_sha,
    machine_identity,
)
from repro.xdr import bulk

__all__ = ["DEFAULT_SIZES", "run_marshal_benchmark"]

#: Element counts benchmarked per dtype.  The largest double case is
#: the headline: 1M doubles = 8 MB, roughly one 1000x1000 Linpack
#: matrix argument.
DEFAULT_SIZES = (1_000, 100_000, 1_000_000)


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Minimum wall-clock seconds over ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _make_values(dtype: str, count: int, seed: int) -> list:
    rng = random.Random(seed)
    if dtype == "double":
        return [rng.uniform(-1e6, 1e6) for _ in range(count)]
    return [rng.randint(-(2**31), 2**31 - 1) for _ in range(count)]


def _run_case(dtype: str, count: int, repeats: int, seed: int) -> dict:
    values = _make_values(dtype, count, seed)
    if dtype == "double":
        scalar_pack = bulk.scalar_pack_doubles
        scalar_unpack = bulk.scalar_unpack_doubles
        pack_into = bulk.pack_doubles_into
        unpack = bulk.unpack_doubles
        itemsize = 8
    else:
        scalar_pack = bulk.scalar_pack_ints
        scalar_unpack = bulk.scalar_unpack_ints
        pack_into = bulk.pack_ints_into
        unpack = bulk.unpack_ints
        itemsize = 4

    wire_scalar = scalar_pack(values)
    buf = bytearray(count * itemsize)
    pack_into(buf, 0, values)
    wire_match = bytes(buf) == wire_scalar

    def scalar_round_trip() -> None:
        wire = scalar_pack(values)
        scalar_unpack(wire, count)

    def bulk_round_trip() -> None:
        out = bytearray(count * itemsize)
        pack_into(out, 0, values)
        unpack(memoryview(out), count)

    scalar_s = _best_of(scalar_round_trip, repeats)
    bulk_s = _best_of(bulk_round_trip, repeats)
    nbytes = count * itemsize
    return {
        "dtype": dtype,
        "count": count,
        "bytes": nbytes,
        "scalar_s": round(scalar_s, 6),
        "bulk_s": round(bulk_s, 6),
        "speedup": round(scalar_s / bulk_s, 2) if bulk_s > 0 else None,
        # encode+decode moves the wire bytes twice; report one-way MB/s.
        "bulk_mb_per_s": round(nbytes / bulk_s / 1e6, 1)
        if bulk_s > 0 else None,
        "wire_match": wire_match,
    }


def run_marshal_benchmark(sizes: Sequence[int] = DEFAULT_SIZES,
                          repeats: int = 3, seed: int = 1997,
                          output: Optional[Path] = None,
                          log: Callable[..., None] = print) -> dict:
    """Run every (dtype, count) case; return (and write) the report.

    The report is schema version 2 (see :mod:`repro.bench.schema`); the
    headline ``summary.speedup`` -- the number the CI perf job gates
    with ``--min-speedup`` -- is the largest double-array case's
    encode+decode speedup.
    """
    log(f"marshal bench: sizes={','.join(str(s) for s in sizes)}, "
        f"best of {repeats}")
    cases = []
    for dtype in ("double", "int"):
        for count in sizes:
            row = _run_case(dtype, count, repeats, seed)
            cases.append(row)
            log(f"  {dtype:>6} x {count:>9,}: scalar {row['scalar_s']}s, "
                f"bulk {row['bulk_s']}s -> {row['speedup']}x "
                f"({row['bulk_mb_per_s']} MB/s)"
                + ("" if row["wire_match"] else "  WIRE MISMATCH"))
    headline = max(
        (row for row in cases if row["dtype"] == "double"),
        key=lambda row: row["count"])
    report: dict[str, Any] = {
        "schema_version": MARSHAL_SCHEMA_VERSION,
        "benchmark": "marshal",
        "machine": machine_identity(),
        "git_sha": git_sha(),
        "config": {"sizes": list(sizes), "repeats": repeats, "seed": seed},
        "cases": cases,
        "summary": {
            "speedup": headline["speedup"],
            "headline_case": (f"{headline['count']} doubles "
                              f"({headline['bytes'] // 1_000_000} MB)"),
            "wire_match": all(row["wire_match"] for row in cases),
        },
    }
    dump_report(report, output)
    return report
