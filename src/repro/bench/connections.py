"""The C10K benchmark behind ``ninf-bench connections``.

The server's reactor (DESIGN.md §3.6) reads every TCP connection on one
thread, so an idle client costs it a selector entry and a frame reader,
not a thread.  This benchmark measures that claim against one
:class:`~repro.server.NinfServer` (the **async phase**): open N idle
connections from asyncio clients, then ping every one of them (bounded
concurrency), reporting max sustained connections, saturation ping
throughput, p50/p95/p99 ping latency, per-connection RSS growth, and
the threads the server runs while holding them.

Both endpoints live in this process, so ``rss_per_connection_bytes``
charges each connection its client *and* server cost -- an honest
upper bound.
``server_threads`` counts the threads started since the server was
built (its reactor, PE threads and expiry sweep).

The report is written as ``BENCH_asyncio.json`` (see
:func:`write_report`); CI runs a 2,000-connection smoke and archives
the file, the acceptance run sustains >= 5,000 with p95 ping < 100 ms
on loopback.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.server import NinfServer, Registry
from repro.transport import aconnect

__all__ = [
    "PhaseReport",
    "bench_async_phase",
    "current_rss_bytes",
    "raise_fd_limit",
    "run_connections_benchmark",
    "write_report",
]

#: Dial batches keep the accept backlog (512) comfortably ahead of the
#: connect burst.
DIAL_CONCURRENCY = 256

#: Concurrent in-flight pings during the saturation sweep.  Enough to
#: keep the client loop and the reactor busy (throughput saturates around ~10 in flight);
#: small enough that a ping's RTT measures service time plus a short
#: queue, not the whole sweep queued behind it.
PING_CONCURRENCY = 128

_PING_IDL = 'Define noop(mode_in int n) "benchmark no-op";'


def _bench_registry() -> Registry:
    registry = Registry()
    registry.register(_PING_IDL, lambda n: None)
    return registry


def raise_fd_limit(want: int) -> int:
    """Best-effort ``RLIMIT_NOFILE`` raise; returns the soft limit now
    in force.  Every connection costs two descriptors here (client and
    server end share the process)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return want
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= want:
        return soft
    target = want if hard == resource.RLIM_INFINITY else min(want, hard)
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (ValueError, OSError):
        return soft
    return target


def current_rss_bytes() -> int:
    """Resident set size from ``/proc/self/status`` (0 if unreadable)."""
    try:
        text = Path("/proc/self/status").read_text(encoding="ascii")
    except OSError:  # pragma: no cover - non-Linux
        return 0
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) * 1024
    return 0  # pragma: no cover


def _percentiles_ms(samples: list[float]) -> dict[str, float]:
    """p50/p95/p99 of ``samples`` (seconds), reported in milliseconds."""
    if not samples:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    ordered = sorted(samples)

    def pick(q: float) -> float:
        index = min(len(ordered) - 1, int(q * (len(ordered) - 1)))
        return ordered[index] * 1000.0

    return {"p50_ms": round(pick(0.50), 3), "p95_ms": round(pick(0.95), 3),
            "p99_ms": round(pick(0.99), 3)}


@dataclass
class PhaseReport:
    """One server flavour's results, JSON-shaped by :meth:`to_dict`."""

    flavour: str
    target_connections: int
    sustained_connections: int = 0
    dial_failures: int = 0
    rss_before_bytes: int = 0
    rss_after_bytes: int = 0
    ping_count: int = 0
    ping_seconds: float = 0.0
    ping_percentiles: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def rss_per_connection_bytes(self) -> float:
        grown = max(0, self.rss_after_bytes - self.rss_before_bytes)
        return grown / self.sustained_connections \
            if self.sustained_connections else 0.0

    @property
    def ping_throughput_per_s(self) -> float:
        return self.ping_count / self.ping_seconds \
            if self.ping_seconds > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape under the report's per-flavour key."""
        out: dict[str, Any] = {
            "target_connections": self.target_connections,
            "sustained_connections": self.sustained_connections,
            "dial_failures": self.dial_failures,
            "rss_before_bytes": self.rss_before_bytes,
            "rss_after_bytes": self.rss_after_bytes,
            "rss_per_connection_bytes":
                round(self.rss_per_connection_bytes, 1),
            "ping": {
                "count": self.ping_count,
                "wall_seconds": round(self.ping_seconds, 3),
                "throughput_per_s": round(self.ping_throughput_per_s, 1),
                **self.ping_percentiles,
            },
        }
        out.update(self.extra)
        return out


# -- async phase: asyncio clients -------------------------------------------


async def _dial_many(host: str, port: int, count: int,
                     report: PhaseReport) -> list:
    """Open ``count`` idle channels (bounded bursts); dial refusals and
    descriptor exhaustion end the ramp instead of crashing it."""
    channels: list = []
    gate = asyncio.Semaphore(DIAL_CONCURRENCY)

    async def dial_one():
        async with gate:
            return await aconnect(host, port, timeout=30.0,
                                  connect_timeout=10.0)

    failed = False
    while len(channels) < count and not failed:
        batch = min(DIAL_CONCURRENCY, count - len(channels))
        results = await asyncio.gather(
            *(dial_one() for _ in range(batch)), return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                report.dial_failures += 1
                failed = True
            else:
                channels.append(result)
    return channels


async def _ping_sweep(channels: list, report: PhaseReport) -> None:
    """One PING per channel at bounded concurrency; wall time over the
    sweep is the saturation throughput, per-ping RTTs the latency
    distribution."""
    from repro.protocol.messages import MessageType

    gate = asyncio.Semaphore(PING_CONCURRENCY)
    latencies: list[float] = []

    async def ping_one(channel) -> None:
        async with gate:
            t0 = time.perf_counter()
            await channel.request(MessageType.PING, b"",
                                  expect=MessageType.PONG, timeout=30.0)
            latencies.append(time.perf_counter() - t0)

    t_start = time.perf_counter()
    results = await asyncio.gather(*(ping_one(c) for c in channels),
                                   return_exceptions=True)
    report.ping_seconds = time.perf_counter() - t_start
    report.ping_count = sum(1 for r in results
                            if not isinstance(r, BaseException))
    report.ping_percentiles = _percentiles_ms(latencies)


def bench_async_phase(connections: int, log=print) -> PhaseReport:
    """Idle-plus-ping ramp of asyncio clients against one server."""
    report = PhaseReport("async", connections)
    before = set(threading.enumerate())
    with NinfServer(_bench_registry(), num_pes=1) as server:
        host, port = server.address
        report.rss_before_bytes = current_rss_bytes()

        async def drive() -> None:
            channels = await _dial_many(host, port, connections, report)
            report.sustained_connections = len(channels)
            deadline = time.perf_counter() + 5.0
            while (server.connections_open < len(channels)
                   and time.perf_counter() < deadline):
                await asyncio.sleep(0.01)
            _record_held(report, before)
            log(f"[async] {len(channels)} connections open, "
                f"{report.dial_failures} refused, "
                f"{report.extra['server_threads']} server threads")
            try:
                await _ping_sweep(channels, report)
            finally:
                for channel in channels:
                    channel.close()

        asyncio.run(drive())
    return report


def _record_held(report: PhaseReport,
                 before: set[threading.Thread]) -> None:
    """With the server holding every dialled connection: RSS, and the
    threads started since ``before`` (the server's)."""
    report.rss_after_bytes = current_rss_bytes()
    report.extra["server_threads"] = len(set(threading.enumerate()) - before)


# -- the full run -------------------------------------------------------------


def run_connections_benchmark(connections: int = 5000,
                              output: Optional[Path] = None,
                              log=print) -> dict[str, Any]:
    """Run the benchmark and return (and optionally write) the report."""
    fd_limit = raise_fd_limit(max(4096, 4 * connections))
    log(f"fd soft limit: {fd_limit}")
    async_report = bench_async_phase(connections, log=log)
    report = {
        "benchmark": "connections",
        "python": sys.version.split()[0],
        "fd_soft_limit": fd_limit,
        "notes": [
            "client and server share one process: rss_per_connection"
            "_bytes charges both endpoints of each connection",
        ],
        "async": async_report.to_dict(),
    }
    if output is not None:
        write_report(report, output)
        log(f"wrote {output}")
    return report


def write_report(report: dict[str, Any], output: Path) -> None:
    """Serialise ``report`` as stable, diff-friendly JSON."""
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
