"""Flow-level network model with max-min fair bandwidth sharing.

The paper's WAN observations are bandwidth-sharing effects: a 0.17 MB/s
site uplink shared by ``c`` clients delivers ~``0.17/c`` MB/s per client
(Tables 6/7), while clients at four different sites keep most of their
point-to-point bandwidth because they traverse different backbones
(Fig 10).  Both fall out of a *flow-level* model: each bulk transfer is a
fluid flow along a route of links, and link capacity is divided among
concurrent flows by weighted max-min fairness (progressive filling).

This is the standard abstraction used by grid simulators (the authors'
own later Bricks simulator, and SimGrid) and is far cheaper than packet
simulation while preserving exactly the contention behaviour the paper
measures.

Latency is modelled as a fixed one-way delay before a flow starts
consuming bandwidth; the paper notes latency "was not a significant
issue due to larger grain size" and the model reflects that.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.sim.engine import EventHandle, Signal, Simulator

__all__ = ["Flow", "Link", "Network", "Route"]


class Link:
    """A network link with capacity in bytes/second and one-way latency."""

    def __init__(self, name: str, capacity: float, latency: float = 0.0):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        if latency < 0:
            raise ValueError(f"link latency must be >= 0, got {latency}")
        self.name = name
        self.capacity = capacity
        self.latency = latency
        self.bytes_carried = 0.0
        self._busy_integral = 0.0
        self._current_rate = 0.0
        self._last_update = 0.0

    def _advance(self, now: float) -> None:
        dt = now - self._last_update
        if dt > 0:
            self.bytes_carried += self._current_rate * dt
            self._busy_integral += (self._current_rate / self.capacity) * dt
            self._last_update = now

    def utilization(self, now: float) -> float:
        """Time-averaged fraction of capacity used since t=0."""
        self._advance(now)
        if now <= 0:
            return 0.0
        return self._busy_integral / now

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity/1e6:.3g} MB/s>"


class Route:
    """An ordered sequence of links; total latency is the sum of hops."""

    def __init__(self, links: Sequence[Link], name: str = ""):
        if not links:
            raise ValueError("a route needs at least one link")
        self.links = tuple(links)
        self.name = name or "->".join(l.name for l in links)

    @property
    def latency(self) -> float:
        return sum(l.latency for l in self.links)

    @property
    def bottleneck_capacity(self) -> float:
        return min(l.capacity for l in self.links)

    def __repr__(self) -> str:
        return f"<Route {self.name}>"


class Flow:
    """A bulk transfer in progress.  ``done`` fires when the last byte lands.

    The flow's achieved mean throughput is available afterwards via
    :attr:`mean_throughput`.
    """

    __slots__ = ("route", "size", "remaining", "weight", "rate", "done",
                 "start_time", "active_time", "finish_time")

    def __init__(self, route: Route, size: float, weight: float, done: Signal,
                 start_time: float):
        self.route = route
        self.size = size
        self.remaining = size
        self.weight = weight
        self.rate = 0.0
        self.done = done
        self.start_time = start_time          # when transfer was requested
        self.active_time: Optional[float] = None   # after latency
        self.finish_time: Optional[float] = None

    @property
    def mean_throughput(self) -> float:
        """Bytes/second achieved end to end (including latency)."""
        if self.finish_time is None:
            raise RuntimeError("flow has not finished")
        elapsed = self.finish_time - self.start_time
        if elapsed <= 0:
            return math.inf
        return self.size / elapsed


class Network:
    """Tracks active flows and keeps their rates max-min fair.

    All state changes (flow arrival after its latency, flow completion)
    trigger a global rate recomputation via progressive filling; each
    flow's completion event is rescheduled accordingly.  Complexity per
    event is O(flows x links), ample for the paper's scales (tens of
    concurrent flows).
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: list[Flow] = []
        self._links_seen: set[Link] = set()
        self._next_event: Optional[EventHandle] = None
        self._last_update = sim.now
        self.completed_flows = 0

    # -- public API ----------------------------------------------------------

    def transfer(self, route: Route, nbytes: float, weight: float = 1.0) -> Signal:
        """Start a transfer of ``nbytes`` along ``route``.

        Returns a :class:`Signal` that fires (with the :class:`Flow`) when
        the transfer completes.  Zero-byte transfers complete after the
        route latency alone.
        """
        if nbytes < 0 or math.isnan(nbytes):
            raise ValueError(f"invalid transfer size {nbytes}")
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        done = Signal(self.sim)
        flow = Flow(route, nbytes, weight, done, self.sim.now)
        self.sim.schedule(route.latency, self._flow_arrives, flow)
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> dict[Flow, float]:
        """Snapshot of current per-flow rates (bytes/second)."""
        return {f: f.rate for f in self._flows}

    # -- internals --------------------------------------------------------------

    def _flow_arrives(self, flow: Flow) -> None:
        self._advance()
        flow.active_time = self.sim.now
        if flow.remaining <= 0.0:
            self._finish(flow)
            return
        self._flows.append(flow)
        self._recompute()

    def _advance(self) -> None:
        dt = self.sim.now - self._last_update
        if dt > 0:
            link_rates: dict[Link, float] = {}
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
                for link in flow.route.links:
                    link_rates[link] = link_rates.get(link, 0.0) + flow.rate
            # Update link accounting with the rates that were in effect.
            for link, rate in link_rates.items():
                link._current_rate = rate
                link._advance(self.sim.now)
        self._last_update = self.sim.now

    def _recompute(self) -> None:
        """Progressive-filling weighted max-min fair allocation."""
        unfrozen = list(self._flows)
        for flow in unfrozen:
            flow.rate = 0.0
        spare: dict[Link, float] = {}
        counts: dict[Link, float] = {}
        for flow in self._flows:
            for link in flow.route.links:
                spare.setdefault(link, link.capacity)
                counts[link] = counts.get(link, 0.0) + flow.weight
        while unfrozen:
            # Find the tightest link among those carrying unfrozen flows.
            bottleneck: Optional[Link] = None
            best_fair = math.inf
            for link, weight_sum in counts.items():
                if weight_sum <= 0:
                    continue
                fair = spare[link] / weight_sum
                if fair < best_fair:
                    best_fair = fair
                    bottleneck = link
            if bottleneck is None:
                break
            # Freeze every unfrozen flow crossing the bottleneck.
            frozen_now = [f for f in unfrozen if bottleneck in f.route.links]
            for flow in frozen_now:
                flow.rate = best_fair * flow.weight
                unfrozen.remove(flow)
                for link in flow.route.links:
                    spare[link] -= flow.rate
                    counts[link] -= flow.weight
            counts[bottleneck] = 0.0
        # Record instantaneous link rates for utilization accounting.
        link_rates: dict[Link, float] = {}
        for flow in self._flows:
            for link in flow.route.links:
                self._links_seen.add(link)
                link_rates[link] = link_rates.get(link, 0.0) + flow.rate
        for link in self._links_seen:
            link._advance(self.sim.now)
            link._current_rate = link_rates.get(link, 0.0)
        self._reschedule()

    def _reschedule(self) -> None:
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        soonest: Optional[Flow] = None
        soonest_dt = math.inf
        for flow in self._flows:
            if flow.rate <= 0:
                continue
            dt = flow.remaining / flow.rate
            if dt < soonest_dt:
                soonest_dt = dt
                soonest = flow
        if soonest is not None:
            self._next_event = self.sim.schedule(soonest_dt, self._on_completion, soonest)

    def _on_completion(self, flow: Flow) -> None:
        self._next_event = None
        self._advance()
        flow.remaining = 0.0
        finished = [f for f in self._flows if f.remaining <= 1e-9]
        for f in finished:
            self._flows.remove(f)
        self._recompute()
        for f in finished:
            self._finish(f)

    def _finish(self, flow: Flow) -> None:
        flow.finish_time = self.sim.now
        flow.rate = 0.0
        flow.remaining = 0.0  # clear sub-epsilon float dust
        self.completed_flows += 1
        flow.done.fire(flow)

