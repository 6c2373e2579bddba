"""Generator-coroutine discrete-event simulation engine.

The engine is a small, deterministic SimPy-style kernel.  Model code is
written as plain Python generator functions that ``yield`` *awaitables*:

``Timeout(sim, delay)``
    resume after ``delay`` simulated seconds.
``Signal(sim)``
    resume when some other process calls :meth:`Signal.fire`.
``Process``
    resume when the child process terminates (its return value is the
    value of the ``yield`` expression).
``AllOf([...])``
    resume when all of the listed awaitables have fired.

A wait is never abandoned: every awaitable resumes its one subscriber
exactly once.

Determinism: events scheduled for the same simulated time fire in
scheduling order (a monotonically increasing sequence number breaks
ties), so a fixed seed yields bit-identical runs.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(name, delay):
...     yield Timeout(sim, delay)
...     log.append((sim.now, name))
>>> _ = sim.process(proc("a", 2.0))
>>> _ = sim.process(proc("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "Awaitable",
    "EventHandle",
    "Process",
    "Signal",
    "SimTimeError",
    "Simulator",
    "Timeout",
]


class SimTimeError(ValueError):
    """Raised when an event is scheduled in the past or with NaN delay."""


class EventHandle:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is O(1): the heap entry is marked dead and skipped when
    popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6g} seq={self.seq} {state}>"


class Simulator:
    """The event loop: a binary heap of :class:`EventHandle` objects."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[EventHandle] = []
        self._seq: int = 0
        self._running = False
        self._event_count: int = 0

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if math.isnan(time):
            raise SimTimeError("event time is NaN")
        if time < self.now:
            raise SimTimeError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        handle = EventHandle(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        return handle

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event.  Returns False if none remain."""
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            if handle.time < self.now:  # pragma: no cover - defensive
                raise SimTimeError("event heap corrupted: time went backwards")
            self.now = handle.time
            self._event_count += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains, or until simulated time ``until``.

        When ``until`` is given, ``now`` is advanced to exactly ``until``
        even if the last event fires earlier (so time-averaged statistics
        close their windows consistently).
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not reentrant")
        self._running = True
        try:
            if until is None:
                while self.step():
                    pass
                return
            if until < self.now:
                raise SimTimeError(f"until={until} is before now={self.now}")
            while self._heap:
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if head.time > until:
                    break
                self.step()
            self.now = max(self.now, until)
        finally:
            self._running = False

    @property
    def event_count(self) -> int:
        """Number of events executed so far (for tests and budgeting)."""
        return self._event_count

    # -- processes --------------------------------------------------------

    def process(self, generator: Generator, name: str = "") -> "Process":
        """Spawn a process from a generator; it starts at the current time."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> "Timeout":
        """Convenience constructor for :class:`Timeout`."""
        return Timeout(self, delay, value)


class Awaitable:
    """Base for things a process may ``yield``.

    Subclasses implement ``_subscribe(callback)`` where ``callback`` takes
    ``(value, exception)`` and is invoked exactly once.
    """

    def _subscribe(self, callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        raise NotImplementedError


class Timeout(Awaitable):
    """Fires ``delay`` seconds after construction, resuming with ``value``."""

    __slots__ = ("sim", "delay", "value")

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        if delay < 0:
            raise SimTimeError(f"negative timeout delay {delay}")
        self.sim = sim
        self.delay = delay
        self.value = value

    def _subscribe(self, callback: Callable) -> None:
        self.sim.schedule(self.delay, callback, self.value, None)


class Signal(Awaitable):
    """A one-shot event fired explicitly with :meth:`fire` or :meth:`fail`.

    Multiple processes may wait on the same signal; all are resumed (in
    subscription order) with the same value or exception.  Firing twice
    raises ``RuntimeError``.  Late subscribers to an already-fired signal
    are resumed immediately at the current simulated time.
    """

    __slots__ = ("sim", "_waiters", "_fired", "_value", "_exc")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: list[Callable] = []
        self._fired = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    def fire(self, value: Any = None) -> None:
        """Resume all waiters with ``value`` (via zero-delay events)."""
        self._finish(value, None)

    def fail(self, exc: BaseException) -> None:
        """Resume all waiters by raising ``exc`` inside them."""
        self._finish(None, exc)

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._fired:
            raise RuntimeError("signal fired twice")
        self._fired = True
        self._value = value
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            self.sim.schedule(0.0, cb, value, exc)

    def _subscribe(self, callback: Callable) -> None:
        if self._fired:
            self.sim.schedule(0.0, callback, self._value, self._exc)
        else:
            self._waiters.append(callback)


class Process(Awaitable):
    """A running generator coroutine.

    The generator's ``return`` value becomes the value other processes see
    when they ``yield`` this process.  Uncaught exceptions propagate into
    waiters; if nobody is waiting, they are re-raised out of the event
    loop (failing fast rather than losing errors).
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._done = Signal(sim)
        self._alive = True
        # Start on a zero-delay event so spawning inside a callback is safe.
        sim.schedule(0.0, self._resume, None, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self._done.fire(stop.value)
            return
        except BaseException as error:
            self._alive = False
            if self._done._waiters:
                self._done.fail(error)
            else:
                raise
            return
        if not isinstance(target, Awaitable):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Awaitable instances"
            )
        target._subscribe(self._resume)

    def _subscribe(self, callback: Callable) -> None:
        self._done._subscribe(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"


class AllOf(Awaitable):
    """Fires when every member has fired; resumes with the list of values."""

    def __init__(self, awaitables: Iterable[Awaitable]):
        self.members = list(awaitables)
        self._callback: Optional[Callable] = None
        self._remaining = len(self.members)
        self._values: list[Any] = [None] * len(self.members)
        self._failed = False

    def _subscribe(self, callback: Callable) -> None:
        self._callback = callback
        if not self.members:
            # Empty AllOf completes immediately; needs a sim to schedule on,
            # so fire synchronously (subscriber is a process resume, which is
            # safe to call directly exactly once).
            callback([], None)
            return
        for i, member in enumerate(self.members):
            member._subscribe(self._make_member_callback(i))

    def _make_member_callback(self, index: int) -> Callable:
        def member_fired(value: Any, exc: Optional[BaseException]) -> None:
            if self._failed or self._callback is None:
                return
            if exc is not None:
                self._failed = True
                cb = self._callback
                self._callback = None
                cb(None, exc)
                return
            self._values[index] = value
            self._remaining -= 1
            if self._remaining == 0:
                cb = self._callback
                self._callback = None
                cb(list(self._values), None)

        return member_fired
