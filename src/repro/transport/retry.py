"""Retry with exponential backoff, seeded jitter, and error classification.

The WAN experiments only make sense if a client can distinguish "the
network ate my frame" from "the remote routine failed": the former is
worth retrying on a fresh connection, the latter is deterministic and
never is.  :func:`is_transient` is that classification, shared by
:class:`RetryPolicy`, the :class:`~repro.client.NinfClient` counters,
and the metaserver's liveness prober.

Which client operations ride a policy -- the idempotent ones always,
``CALL`` only with ``retry_calls`` and the server's dedup cache behind
it -- is documented on :class:`~repro.client.NinfClient` and in
DESIGN.md §3.5.

Emitted metrics (conventions and exact semantics in OBSERVABILITY.md):
a policy given a :class:`~repro.obs.MetricsRegistry` counts every
wrapped invocation in ``ninf_retry_attempts_total`` and every backoff-
then-retry in ``ninf_retry_retries_total``; the per-client view of the
same activity is ``ninf_client_attempts_total`` /
``ninf_client_retries_total`` on :class:`~repro.client.NinfClient`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional, TypeVar

from repro.obs import MetricsRegistry, names
from repro.protocol.errors import (
    ProtocolError,
    RemoteError,
    ServerBusy,
    ServerShutdown,
)

__all__ = ["RetryPolicy", "is_transient"]

T = TypeVar("T")


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is a transport-level failure worth retrying.

    Transport timeouts, connection resets/refusals (``OSError``), and
    framing-level :class:`ProtocolError` (bad magic, checksum mismatch,
    connection closed mid-frame) are transient: a fresh connection may
    well succeed.  So are :class:`ServerBusy` (the call was shed, never
    queued) and :class:`ServerShutdown` (queued, never dispatched) --
    the server *declining* work it provably did not run.  Any other
    :class:`RemoteError` is the server answering -- retrying a
    deterministic failure is pure waste -- and everything else (XDR
    bugs, ``ValueError``...) is a programming error.
    """
    if isinstance(exc, (ServerBusy, ServerShutdown)):
        return True
    if isinstance(exc, RemoteError):
        return False
    return isinstance(exc, (ProtocolError, OSError, TimeoutError))


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (1 = no retry).
    base_delay, multiplier, max_delay:
        Backoff before retry *k* (1-based) is
        ``min(max_delay, base_delay * multiplier**(k-1))``.
    jitter:
        Fraction of the backoff randomized: the slept delay is drawn
        uniformly from ``[delay*(1-jitter), delay*(1+jitter)]`` using
        ``rng``, so a seeded ``random.Random`` makes the whole retry
        schedule reproducible (and keeps a fleet of clients from
        retrying in lockstep).
    rng:
        Injected randomness; defaults to a fresh unseeded
        ``random.Random``.
    sleep:
        Injected clock for tests (defaults to ``time.sleep``).
    classify:
        Predicate deciding retryability; defaults to
        :func:`is_transient`.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` (a private one when
        ``None``) receiving
        ``ninf_retry_attempts_total`` / ``ninf_retry_retries_total``
        alongside the instance's own ``attempts``/``retries``
        attributes (which always work, registry or not).
    """

    def __init__(self, max_attempts: int = 3, base_delay: float = 0.05,
                 multiplier: float = 2.0, max_delay: float = 2.0,
                 jitter: float = 0.5,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 classify: Callable[[BaseException], bool] = is_transient,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep
        self.classify = classify
        self._lock = threading.Lock()
        # Aggregate observability (experiments report these).  The
        # attributes are authoritative; the optional registry mirrors
        # them for remote exposition (OBSERVABILITY.md).
        self.attempts = 0
        self.retries = 0
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._attempts_metric = metrics.counter(
            names.RETRY_ATTEMPTS,
            "Invocations wrapped by a RetryPolicy").labels()
        self._retries_metric = metrics.counter(
            names.RETRY_RETRIES,
            "Backoff-then-retry cycles taken by a RetryPolicy").labels()

    def backoff(self, retry_index: int) -> float:
        """Jittered delay before 1-based retry ``retry_index``."""
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (retry_index - 1))
        if self.jitter:
            with self._lock:
                spread = self.jitter * (2.0 * self.rng.random() - 1.0)
            delay *= 1.0 + spread
        return max(0.0, delay)

    def count_attempt(self) -> None:
        """Count one wrapped invocation (``attempts`` + mirror metric)."""
        with self._lock:
            self.attempts += 1
        self._attempts_metric.inc()

    def retry_delay(self, attempt: int, exc: BaseException,
                    deadline: Optional[float] = None,
                    clock: Callable[[], float] = time.monotonic) -> float:
        """The retry decision after 1-based ``attempt`` failed with
        ``exc``: re-raise it, or count a retry and return the backoff.

        Non-transient errors and the final transient error propagate
        unchanged.  A ``deadline`` (on ``clock``) stops retrying once
        the budget is spent: an error raised at or past the deadline
        propagates even if transient, and the delay never overshoots
        the remaining budget.  A :class:`ServerBusy` failure stretches
        the delay to its ``retry_after`` hint (capped at ``max_delay``)
        -- retrying sooner than the server asked is guaranteed to be
        shed again.  This is the whole policy; :meth:`run` and the
        client core (:mod:`repro.client.core`) only differ in how they
        sleep the returned delay.
        """
        if (not self.classify(exc) or attempt >= self.max_attempts
                or (deadline is not None and clock() >= deadline)):
            raise exc
        with self._lock:
            self.retries += 1
        self._retries_metric.inc()
        delay = self.backoff(attempt)
        hint = getattr(exc, "retry_after", 0.0)
        if hint:
            delay = max(delay, min(float(hint), self.max_delay))
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - clock()))
        return delay

    def run(self, fn: Callable[[], T],
            on_retry: Optional[Callable[[int, BaseException], None]] = None,
            deadline: Optional[float] = None,
            clock: Callable[[], float] = time.monotonic) -> T:
        """Call ``fn`` until it succeeds or :meth:`retry_delay` re-raises.

        ``on_retry(retry_index, exc)`` fires before each backoff sleep.
        """
        attempt = 1
        while True:
            self.count_attempt()
            try:
                return fn()
            except BaseException as exc:
                delay = self.retry_delay(attempt, exc, deadline, clock)
                if on_retry is not None:
                    on_retry(attempt, exc)
            self.sleep(delay)
            attempt += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RetryPolicy attempts<={self.max_attempts} "
                f"base={self.base_delay}s x{self.multiplier}>")
