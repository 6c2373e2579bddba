"""The exactly-once dedup/result cache (DESIGN.md §3.5).

A CALL whose reply is lost in flight leaves the client unable to tell
"never ran" from "ran, reply lost" — so CALL historically could not be
retried.  This cache closes that gap server-side: every logical call
its client may retry (identified by the client's random
``logical_id``; an at-most-once call sends ``""`` and bypasses the
cache) passes through :meth:`DedupCache.begin` before execution, and
its reply is parked in :meth:`DedupCache.complete`.  A retried attempt
then either

- finds the entry ``"done"`` and replays the parked reply (no second
  execution),
- finds it ``"pending"`` (first attempt still executing) and parks a
  continuation on the entry rather than double-executing -- it runs
  with the owner's reply, or with ``None`` to take over when the owner
  was shed -- or
- finds nothing (``"new"``) — the first attempt was shed before
  entering the queue via :meth:`abort` — and executes normally.

A parked reply is the payload as the server built it: bytes, or a
:class:`~repro.xdr.bulk.Payload` still holding the call's own output
arrays by reference, which each medium converts when it sends a replay
(a ring straight into ring memory, a socket into flat bytes it keeps).
A server keeps its finished detached results in a second cache, keyed
by ticket, with no TTL: a FETCH is one :meth:`replay`, which tells a
finished result from a pending one, and a retried FETCH is answered
again.

Entries are TTL'd (a retry arriving after ``ttl`` seconds re-executes —
acceptable, since the client has long since timed out) and the cache is
bounded both in entries and in retained reply *bytes* (a RESULT can be
megabytes), evicting the oldest *completed* entries first;
pending entries are never evicted, because a waiter may be parked on
them.  Completed entries live in completion order, so every bound is
enforced by popping from the front: O(1) per operation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Union

from repro.obs import MetricsRegistry, names
from repro.xdr import bulk

__all__ = ["DedupCache", "DedupEntry", "Reply"]

#: ``(MessageType, payload)``: a reply as it is sent and replayed.
Reply = tuple[int, Union[bytes, bulk.Payload]]
Waiter = Callable[[Optional[Reply]], None]


class DedupEntry:
    """One logical call's slot: pending until ``reply`` is parked."""

    __slots__ = ("reply", "stamp", "waiters")

    def __init__(self, stamp: float) -> None:
        self.reply: Optional[Reply] = None
        self.stamp = stamp  # creation time; completion time once done
        # Continuations of duplicate attempts; appended under the
        # cache's lock while the entry is pending, run once it settles.
        self.waiters: list[Waiter] = []


class DedupCache:
    """Bounded, TTL'd map ``logical_id -> reply``.

    Parameters
    ----------
    max_entries:
        Completed-entry bound; exceeded -> oldest completed entries are
        evicted (pending entries don't count against the bound and are
        never evicted).
    max_bytes:
        Bound on reply payload bytes retained by completed entries;
        exceeded -> oldest completed entries are evicted (their late
        duplicates re-execute, as under ``max_entries``), but the newest
        is always kept, so an immediate retry still replays.
    ttl:
        Seconds a completed entry stays replayable.
    clock:
        Injected monotonic clock (tests drive it manually).
    metrics:
        The :class:`~repro.obs.MetricsRegistry` (a private one when
        ``None``) receiving
        ``ninf_server_dedup_hits_total`` (replays of a cached or
        in-flight attempt) and ``ninf_server_dedup_entries`` (current
        size, gauge).
    """

    def __init__(self, max_entries: int = 1024, ttl: float = 300.0,
                 clock: Callable[[], float] = time.monotonic,
                 metrics=None, max_bytes: int = 64 << 20):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl = ttl
        self.clock = clock
        self._lock = threading.Lock()
        self._pending: dict[Hashable, DedupEntry] = {}
        # Completion order = stamp order: the front is the oldest.
        self._done: OrderedDict[Hashable, DedupEntry] = OrderedDict()
        self._done_bytes = 0
        self.hits = 0
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits_metric = metrics.counter(
            names.SERVER_DEDUP_HITS,
            "Retried CALL attempts answered from the dedup cache").labels()
        self._entries_metric = metrics.gauge(
            names.SERVER_DEDUP_ENTRIES,
            "Logical calls currently tracked by the dedup cache").labels()

    # -- internal -----------------------------------------------------------

    def _purge_locked(self, now: float) -> int:
        """Drop expired + over-bound completed entries (oldest first);
        returns how many went."""
        done = self._done
        dropped = 0
        while done:
            key, oldest = next(iter(done.items()))
            if not (now - oldest.stamp > self.ttl
                    or len(done) > self.max_entries
                    or (self._done_bytes > self.max_bytes and len(done) > 1)):
                break
            self._forget_done_locked(key)
            dropped += 1
        return dropped

    def _forget_done_locked(self, key: Hashable) -> Optional[DedupEntry]:
        entry = self._done.pop(key, None)
        if entry is not None:
            self._done_bytes -= len(entry.reply[1])
        return entry

    def _note_size_locked(self) -> None:
        self._entries_metric.set(len(self._pending) + len(self._done))

    def _hit(self) -> None:
        with self._lock:
            self.hits += 1
        self._hits_metric.inc()

    # -- protocol -----------------------------------------------------------

    def begin(self, key: Hashable,
              waiter: Optional[Waiter] = None) -> tuple[str, DedupEntry]:
        """Register attempt arrival; returns ``(state, entry)``.

        ``state`` is ``"new"`` (this attempt should execute — the entry
        is now pending and the caller *must* eventually
        :meth:`complete` or :meth:`abort` it), ``"pending"`` (another
        attempt is executing: ``waiter``, if given, is parked on the
        entry and will be called exactly once, from the settling
        thread, with the owner's reply or -- owner aborted, the key is
        free again -- ``None``), or ``"done"`` (``entry.reply`` is
        ready to replay).
        """
        now = self.clock()
        with self._lock:
            self._purge_locked(now)
            entry = self._done.get(key)
            state = "done"
            if entry is None:
                entry = self._pending.get(key)
                state = "pending"
                if entry is not None and waiter is not None:
                    entry.waiters.append(waiter)
            if entry is None:
                entry = self._pending[key] = DedupEntry(now)
                self._note_size_locked()
                return "new", entry
        self._hit()
        return state, entry

    def complete(self, key: Hashable, reply: Reply) -> int:
        """Park the encoded reply and release any parked attempts;
        returns how many older completed entries the park evicted."""
        now = self.clock()
        with self._lock:
            entry = (self._pending.pop(key, None)
                     or self._forget_done_locked(key))
            if entry is None:  # aborted or evicted concurrently
                entry = DedupEntry(now)
            entry.reply = reply
            entry.stamp = now
            self._done[key] = entry  # at the back: the freshest
            self._done_bytes += len(reply[1])
            evicted = self._purge_locked(now)
            self._note_size_locked()
        self._settle(entry)
        return evicted

    def abort(self, key: Hashable) -> None:
        """Forget a pending entry (the call was shed before executing).

        Parked attempts are released with ``entry.reply`` still
        ``None`` — they re-:meth:`begin` and one becomes the new
        executor.
        """
        with self._lock:
            entry = (self._pending.pop(key, None)
                     or self._forget_done_locked(key))
            self._note_size_locked()
        if entry is not None:
            self._settle(entry)

    @staticmethod
    def _settle(entry: DedupEntry) -> None:
        """Release everything parked on ``entry``, which has just left
        the pending table: nothing can be appended to it any more."""
        waiters, entry.waiters = entry.waiters, []
        for waiter in waiters:
            waiter(entry.reply)

    def replay(self, key: Hashable) -> tuple[str, Optional[Reply]]:
        """Look ``key`` up without registering anything: ``("done",
        reply)`` (a hit), ``("pending", None)`` or ``("missing", None)``."""
        now = self.clock()
        with self._lock:
            self._purge_locked(now)
            entry = self._done.get(key)
            if entry is None:
                return ("pending" if key in self._pending else "missing",
                        None)
        self._hit()
        return "done", entry.reply

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending) + len(self._done)
