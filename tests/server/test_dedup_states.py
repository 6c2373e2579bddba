"""DedupCache over interleavings: a Hypothesis state machine.

``begin`` / ``complete`` / ``abort`` / ``replay`` on a few keys, with an
injected clock and replies of random sizes, against a model of what the
cache promised.  After every step:

- at most one ``"new"`` per key until that key is completed or aborted;
- every parked waiter is called exactly once, with the owner's reply or
  with ``None`` after an abort, and a waiter that was not parked never;
- pending entries are never evicted;
- retained bytes stay within ``max_bytes`` unless only one entry is left;
- the eviction count ``complete`` returns equals the entries that left.

White-box where the promise is about what the cache holds: the
invariants read its ``_pending`` / ``_done`` tables.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.server import DedupCache

KEYS = st.sampled_from(["a", "b", "c", "d"])
MAX_BYTES = 100


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class DedupStates(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = Clock()
        self.cache = DedupCache(max_entries=3, ttl=10.0, clock=self.clock,
                                max_bytes=MAX_BYTES)
        self.owned = set()        # keys handed out "new", not yet settled
        self.parked = {}          # key -> waiter ids parked on it
        self.calls = {}           # waiter id -> the values it was called with
        self.expected = {}        # waiter id -> what it must have received
        self.replies = {}         # key -> the last reply completed for it
        self.sequence = 0

    def _waiter(self):
        self.sequence += 1
        wid = self.sequence
        self.calls[wid] = []
        return wid, self.calls[wid].append

    @rule(key=KEYS)
    def begin(self, key):
        wid, waiter = self._waiter()
        state, entry = self.cache.begin(key, waiter=waiter)
        if state == "new":
            assert key not in self.owned, f"a second 'new' for {key}"
            self.owned.add(key)
            self.expected[wid] = []
        elif state == "pending":
            assert key in self.owned
            self.parked.setdefault(key, []).append(wid)
        else:
            assert state == "done"
            assert key not in self.owned
            assert entry.reply == self.replies[key]
            self.expected[wid] = []

    @precondition(lambda self: self.owned)
    @rule(data=st.data(), size=st.integers(min_value=0, max_value=120))
    def complete(self, data, size):
        key = data.draw(st.sampled_from(sorted(self.owned)))
        reply = (self.sequence, bytes(size))
        before = set(self.cache._done)
        evicted = self.cache.complete(key, reply)
        after = set(self.cache._done)
        assert key in after
        assert evicted == len(before - after)
        self.owned.discard(key)
        self.replies[key] = reply
        for wid in self.parked.pop(key, []):
            self.expected[wid] = [reply]

    @precondition(lambda self: self.owned)
    @rule(data=st.data())
    def abort(self, data):
        key = data.draw(st.sampled_from(sorted(self.owned)))
        self.cache.abort(key)
        self.owned.discard(key)
        for wid in self.parked.pop(key, []):
            self.expected[wid] = [None]

    @rule(key=KEYS)
    def replay(self, key):
        state, reply = self.cache.replay(key)
        if key in self.owned:
            assert (state, reply) == ("pending", None)
        elif state == "done":
            assert reply == self.replies[key]
        else:
            assert (state, reply) == ("missing", None)

    @rule(seconds=st.floats(min_value=0.0, max_value=6.0))
    def advance(self, seconds):
        self.clock.now += seconds

    @invariant()
    def waiters_are_called_exactly_as_promised(self):
        for wid, calls in self.calls.items():
            assert calls == self.expected.get(wid, []), wid

    @invariant()
    def pending_entries_are_never_evicted(self):
        assert set(self.cache._pending) == self.owned

    @invariant()
    def retained_bytes_stay_in_bound(self):
        done = self.cache._done
        retained = sum(len(entry.reply[1]) for entry in done.values())
        assert retained == self.cache._done_bytes
        assert retained <= MAX_BYTES or len(done) <= 1
        assert len(done) <= self.cache.max_entries


TestDedupStates = DedupStates.TestCase
TestDedupStates.settings = settings(max_examples=100,
                                    stateful_step_count=40, deadline=None)
