"""Fixture: lock-discipline true positive -- a ``_locked`` helper used
where no lock is held (the class is in _GUARDED_BY)."""

import threading


class Executor:
    def __init__(self):
        self._lock = threading.Lock()
        self._idle = []

    def cancel(self):
        with self._lock:
            self._idle.clear()
        self._hand_off_locked()  # BAD: the helper assumes the lock

    def _hand_off_locked(self):
        # _locked suffix: the caller holds the lock by convention.
        while self._idle:
            self._idle.pop()
