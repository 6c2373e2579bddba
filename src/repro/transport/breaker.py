"""A per-key circuit breaker for skipping known-dead hosts.

When a bound server dies, every failover decision should not cost the
client a full connect-timeout against the corpse: the
:class:`~repro.metaserver.BrokeredClient` records call outcomes per
``(host, port)`` here, and once a host accumulates ``threshold``
*consecutive* failures the breaker "trips" — the host is reported via
:meth:`blocked` so it can be excluded from MS_PICK without a metaserver
round-trip, and :meth:`allow` refuses it outright.  After ``cooldown``
seconds the breaker goes *half-open*: exactly one caller is allowed
through as a probe; its success closes the circuit, its failure re-trips
for another cooldown.

States per key (DESIGN.md §3.5):

``closed`` --(threshold consecutive failures)--> ``open``
``open`` --(cooldown elapsed, one probe admitted)--> ``half-open``
``half-open`` --success--> ``closed``;  --failure--> ``open``

Thread-safe; keys are arbitrary hashables.  Trips are counted in
``ninf_breaker_trips_total`` when a metrics registry is attached.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Hashable, Optional

from repro.obs import MetricsRegistry, names

__all__ = ["CircuitBreaker"]


class _Key:
    """Mutable per-key state.  Guarded by the breaker's lock."""

    __slots__ = ("failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: Optional[float] = None  # None = closed
        self.probing = False


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open probe.

    Parameters
    ----------
    threshold:
        Consecutive failures that trip a key open.
    cooldown:
        Seconds a tripped key stays blocked before one probe is let
        through.
    clock:
        Injected monotonic clock (tests drive it manually).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` (a private one when
        ``None``); every trip
        (closed/half-open -> open transition) increments
        ``ninf_breaker_trips_total``.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.clock = clock
        self._lock = threading.Lock()
        self._keys: dict[Hashable, _Key] = {}
        self.trips = 0
        self._trips_metric = (metrics or MetricsRegistry()).counter(
            names.BREAKER_TRIPS,
            "Circuit-breaker open transitions (closed/half-open -> open)"
        ).labels()

    def _key_locked(self, key: Hashable) -> _Key:
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _Key()
        return state

    def allow(self, key: Hashable) -> bool:
        """Whether a call to ``key`` may proceed right now.

        Open keys past their cooldown admit exactly one caller (the
        half-open probe); until that probe reports an outcome, further
        callers are refused.
        """
        with self._lock:
            state = self._keys.get(key)
            if state is None or state.opened_at is None:
                return True
            if state.probing:
                return False  # someone else already holds the probe slot
            if self.clock() - state.opened_at >= self.cooldown:
                state.probing = True
                return True
            return False

    def blocked(self) -> set:
        """Keys currently refusing calls (open, cooldown not elapsed).

        A snapshot with no side effects — half-open keys (cooldown
        elapsed, probe available) are *not* listed, so a scheduler that
        excludes ``blocked()`` still routes the occasional probe at a
        recovering host.
        """
        now = self.clock()
        with self._lock:
            return {
                key for key, state in self._keys.items()
                if state.opened_at is not None
                and (state.probing or now - state.opened_at < self.cooldown)
            }

    def state(self, key: Hashable) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` for ``key``."""
        with self._lock:
            state = self._keys.get(key)
            if state is None or state.opened_at is None:
                return "closed"
            if (state.probing
                    or self.clock() - state.opened_at >= self.cooldown):
                return "half-open"
            return "open"

    def record_success(self, key: Hashable) -> None:
        """A call to ``key`` succeeded: reset to closed."""
        with self._lock:
            self._keys.pop(key, None)

    def record_failure(self, key: Hashable) -> None:
        """A call to ``key`` failed: count it, trip if at threshold.

        A failure while open (the half-open probe, or a caller that was
        already in flight when the breaker tripped) re-opens the
        circuit and restarts the cooldown.
        """
        tripped = False
        with self._lock:
            state = self._key_locked(key)
            was_open = state.opened_at is not None
            probe_failed = state.probing
            state.failures += 1
            if was_open or state.failures >= self.threshold:
                # Trips count state *transitions* (closed -> open, or a
                # failed half-open probe re-opening), not every failure
                # that lands while the circuit is already open.
                if not was_open or probe_failed:
                    tripped = True
                    self.trips += 1
                state.opened_at = self.clock()
                state.probing = False
        if tripped:
            self._trips_metric.inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            tracked = len(self._keys)
        return (f"<CircuitBreaker threshold={self.threshold} "
                f"cooldown={self.cooldown}s keys={tracked}>")
