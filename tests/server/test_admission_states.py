"""The admission core over interleavings: a Hypothesis state machine.

One to three PEs, each of the four policies, an optional ``max_queued``
and tickets from one PE wide to all of them, driven by ``submit`` /
``take`` / ``complete`` / ``cancel`` / ``expire`` (after advancing the
injected clock) / ``shutdown``, against a model of what the core holds.
After every step:

- the PEs the running tickets claim are at most ``num_pes``, and are
  exactly what the core has handed out;
- no ticket has reached more than one end (shed, refused, completed,
  failed, cancelled, expired, dropped at shutdown); at teardown, after
  the queue is drained through the PEs and the core shut down, each
  reached one;
- no offer is shed while its ticket fits the free PEs and nothing is
  queued, and with nothing queued any ticket that fits is estimated to
  wait 0;
- under FCFS, every ticket taken is the oldest queued (``seq`` order).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.protocol import ServerBusy, ServerShutdown
from repro.server.admission import AdmissionCore, Ticket
from repro.server.scheduling import make_policy


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class AdmissionStates(RuleBasedStateMachine):
    @initialize(num_pes=st.integers(min_value=1, max_value=3),
                policy=st.sampled_from(["fcfs", "sjf", "fpfs", "fpmpfs"]),
                max_queued=st.none() | st.integers(min_value=0, max_value=3),
                warm=st.none() | st.floats(min_value=0.1, max_value=3.0),
                backlog=st.lists(st.integers(min_value=1, max_value=3),
                                 max_size=4))
    def setup(self, num_pes, policy, max_queued, warm, backlog):
        self.clock = Clock()
        self.fcfs = policy == "fcfs"
        self.core = AdmissionCore(num_pes, make_policy(policy), self.clock,
                                  max_queued)
        if warm is not None:  # one call served already: the EWMA is warm
            self.core.offer(Ticket(1))
            self.core.release(self.core.take(), warm)
        self.ends = {}        # ticket -> the ends it reached, in order
        self.queued = set()   # tickets the core should hold as pending
        self.running = {}     # ticket -> the time it was taken
        for width in backlog:
            self.submit(width, None, None)

    def _end(self, ticket, how):
        self.ends[ticket].append(how)

    @rule(width=st.integers(min_value=1, max_value=3),
          cost=st.none() | st.floats(min_value=0.0, max_value=100.0),
          budget=st.none() | st.floats(min_value=0.01, max_value=1.0))
    def submit(self, width, cost, budget):
        core = self.core
        ticket = Ticket(min(width, core.num_pes), cost,
                        None if budget is None else self.clock.now + budget)
        self.ends[ticket] = []
        fits = not core.pending and ticket.pes_required <= core.free_pes
        try:
            core.offer(ticket)
        except ServerShutdown:
            assert core.closed
            self._end(ticket, "refused")
        except ServerBusy as busy:
            assert not fits, f"shed {busy.message} with the PEs free"
            self._end(ticket, "shed")
        else:
            self.queued.add(ticket)

    @rule()
    def take(self):
        """Every idle PE takes what the core hands out, one by one."""
        while self.queued:
            free = self.core.free_pes
            oldest = min(self.queued, key=lambda t: t.seq)
            ticket = self.core.take()
            if ticket is None:
                return
            assert ticket in self.queued and ticket.pes_required <= free
            assert ticket is oldest or not self.fcfs, "FCFS out of order"
            self.queued.discard(ticket)
            self.running[ticket] = self.clock.now

    @precondition(lambda self: self.running)
    @rule(data=st.data(), seconds=st.floats(min_value=0.1, max_value=3.0),
          ok=st.booleans())
    def complete(self, data, seconds, ok):
        ticket = data.draw(st.sampled_from(
            sorted(self.running, key=lambda t: t.seq)))
        self.clock.now += seconds  # it ran for that long
        taken = self.running.pop(ticket)
        self.core.release(ticket, self.clock.now - taken, ok)
        self._end(ticket, "completed" if ok else "failed")

    @precondition(lambda self: self.ends)
    @rule(data=st.data())
    def cancel(self, data):
        ticket = data.draw(st.sampled_from(list(self.ends)))
        dropped = self.core.cancel(ticket)
        assert dropped == (ticket in self.queued)
        if dropped:
            self.queued.discard(ticket)
            self._end(ticket, "cancelled")

    @rule(seconds=st.floats(min_value=0.0, max_value=3.0))
    def expire(self, seconds):
        """Time passes, and the queue is swept for deadlines."""
        self.clock.now += seconds
        for ticket in self.core.expire():
            assert ticket.deadline <= self.clock.now
            self.queued.discard(ticket)
            self._end(ticket, "expired")

    @precondition(lambda self: len(self.ends) >= 6)  # let the queue fill
    @rule()
    def shutdown(self):
        for ticket in self.core.close():
            self.queued.discard(ticket)
            self._end(ticket, "dropped")
        assert not self.core.pending and not self.queued

    @invariant()
    def claims_stay_within_the_pes(self):
        core = self.core
        claimed = sum(ticket.pes_required for ticket in self.running)
        assert claimed == core.num_pes - core.free_pes <= core.num_pes
        assert core.running == len(self.running)

    @invariant()
    def a_call_that_fits_with_nothing_queued_waits_nothing(self):
        core = self.core
        if not core.pending:
            for width in range(1, core.free_pes + 1):
                assert core.estimated_wait(Ticket(width)) == 0.0

    @invariant()
    def the_core_holds_what_the_model_queued(self):
        assert set(self.core.pending) == self.queued
        assert all(len(ends) <= 1 for ends in self.ends.values())

    def teardown(self):
        """Drain as the PEs would -- take, finish the oldest, take again
        -- then shut down: every ticket has then ended exactly once."""
        self.take()
        while self.running:
            ticket = min(self.running, key=lambda t: t.seq)
            del self.running[ticket]
            self.core.release(ticket, 0.0)
            self._end(ticket, "completed")
            self.take()
            self.claims_stay_within_the_pes()
        self.shutdown()
        assert all(len(ends) == 1 for ends in self.ends.values()), self.ends


TestAdmissionStates = AdmissionStates.TestCase
TestAdmissionStates.settings = settings(max_examples=150,
                                        stateful_step_count=20,
                                        deadline=None)
