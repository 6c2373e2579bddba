"""Machine model: processing elements, load average, CPU utilization.

A :class:`Machine` is a pool of ``num_pes`` processing elements modelled
as one :class:`~repro.sim.resources.ProcessorSharingServer` of capacity
``num_pes`` (units: PE-seconds of service per second).  Tasks declare how
many PEs they can exploit:

- *task-parallel* Ninf execution (the paper's 1-PE mode): each call is a
  task with ``max_pes=1``; up to ``num_pes`` run unimpeded, beyond that
  the OS time-slices (fluid processor sharing).
- *data-parallel* execution (the 4-PE mode): each call is a task with
  ``max_pes=num_pes`` and the caller serializes calls FCFS, matching the
  paper's "optimally parallelized version with simultaneous execution on
  4 PEs for each Ninf_call, invoked in sequence".

Observable statistics reproduce the columns of the paper's tables:

- **CPU utilization** -- delivered PE-time over a measurement window,
  as a percentage of ``num_pes`` x window.
- **load average** -- a Unix-style exponentially damped average of the
  number of runnable threads, with a 60 s time constant; a task
  contributes ``threads`` runnable threads while it is computing and
  (like a forked Ninf executable blocked at a spin barrier) one thread
  while queued.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from repro.sim.engine import Simulator
from repro.sim.resources import ProcessorSharingServer, PSJob, Resource

__all__ = ["LoadAverage", "Machine", "MachineStats", "Task"]


class LoadAverage:
    """Exponentially damped average of an integer-valued signal.

    Mirrors the classic Unix 1-minute load average: between changes the
    average decays toward the current value with time constant ``tau``.
    """

    def __init__(self, sim: Simulator, tau: float = 60.0, initial: float = 0.0):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.sim = sim
        self.tau = tau
        self._value = initial
        self._level = 0.0
        self._last_update = sim.now
        self.peak = initial

    def _advance(self) -> None:
        dt = self.sim.now - self._last_update
        if dt > 0:
            decay = math.exp(-dt / self.tau)
            self._value = self._value * decay + self._level * (1.0 - decay)
            self._last_update = self.sim.now
            if self._value > self.peak:
                self.peak = self._value

    def set_level(self, level: float) -> None:
        """Change the instantaneous signal (number of runnable threads)."""
        self._advance()
        self._level = level

    def adjust(self, delta: float) -> None:
        """Shift the instantaneous level by ``delta`` threads."""
        self.set_level(self._level + delta)

    @property
    def value(self) -> float:
        self._advance()
        return self._value

    @property
    def level(self) -> float:
        return self._level


class MachineStats:
    """Windowed statistics snapshot support for a :class:`Machine`."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.window_start = machine.sim.now
        self._busy_at_start = machine._busy_integral()
        self._load_samples: list[float] = []

    def sample_load(self) -> None:
        """Record the current 1-minute load average into the window."""
        self._load_samples.append(self.machine.load_average.value)

    @property
    def cpu_utilization(self) -> float:
        """Percent of total PE capacity delivered during the window."""
        now = self.machine.sim.now
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        busy = self.machine._busy_integral() - self._busy_at_start
        return 100.0 * busy / (elapsed * self.machine.num_pes)

    @property
    def mean_load_average(self) -> float:
        if not self._load_samples:
            return self.machine.load_average.value
        return sum(self._load_samples) / len(self._load_samples)

    @property
    def peak_load_average(self) -> float:
        if not self._load_samples:
            return self.machine.load_average.value
        return max(self._load_samples)


class Task:
    """A unit of computation on a machine.

    ``work`` is in PE-seconds: a task that takes ``T`` seconds on a
    single dedicated PE has work ``T``; a data-parallel task that takes
    ``T`` seconds on all ``p`` PEs has work ``T*p`` with ``max_pes=p``.
    """

    __slots__ = ("work", "max_pes", "threads", "job", "submit_time",
                 "start_time", "finish_time")

    def __init__(self, work: float, max_pes: float, threads: int):
        self.work = work
        self.max_pes = max_pes
        self.threads = threads
        self.job: Optional[PSJob] = None
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None


class Machine:
    """A compute server with ``num_pes`` processing elements.

    ``switch_overhead`` adds a fixed PE-seconds cost per task whenever
    more than ``num_pes`` tasks are resident, modelling context/thread
    switching (the paper's SMP multithreading discussion); zero by
    default because the paper found J90 task switching cheap.
    """

    def __init__(self, sim: Simulator, name: str, num_pes: int,
                 switch_overhead: float = 0.0, load_tau: float = 60.0):
        if num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {num_pes}")
        self.sim = sim
        self.name = name
        self.num_pes = num_pes
        self.switch_overhead = switch_overhead
        self.cpu = ProcessorSharingServer(sim, capacity=float(num_pes),
                                          name=f"{name}.cpu")
        self.load_average = LoadAverage(sim, tau=load_tau)
        self.serial_gate = Resource(sim, capacity=1, name=f"{name}.serial")
        self.tasks_completed = 0

    # -- execution -----------------------------------------------------------

    def run(self, work: float, max_pes: float = 1.0,
            threads: Optional[int] = None) -> Generator:
        """Process helper: execute ``work`` PE-seconds, sharing the CPU.

        Yield from this inside a process::

            yield from machine.run(work=12.5, max_pes=1)

        While computing, the task contributes ``threads`` runnable
        threads to the load average (default: ``ceil(max_pes)``).
        """
        if threads is None:
            threads = max(1, int(math.ceil(max_pes)))
        effective_work = work
        if self.switch_overhead > 0 and self.cpu.active_jobs >= self.num_pes:
            effective_work += self.switch_overhead
        task = Task(effective_work, max_pes, threads)
        task.submit_time = self.sim.now
        task.start_time = self.sim.now
        self.load_average.adjust(threads)
        task.job = self.cpu.submit(effective_work, max_rate=max_pes)
        yield task.job
        self.load_average.adjust(-threads)
        task.finish_time = self.sim.now
        self.tasks_completed += 1
        return task

    def run_serialized(self, work: float, threads: Optional[int] = None) -> Generator:
        """Data-parallel mode: queue FCFS, then run on all PEs.

        Returns ``(queue_wait_seconds, task)``.  A queued task contributes
        one runnable thread (the forked executable at its spin barrier).
        """
        enqueue_time = self.sim.now
        self.load_average.adjust(1)
        req = self.serial_gate.request()
        yield req
        self.load_average.adjust(-1)
        queue_wait = self.sim.now - enqueue_time
        task = yield from self.run(work, max_pes=float(self.num_pes),
                                   threads=threads)
        self.serial_gate.release(req)
        return queue_wait, task

    # -- statistics ------------------------------------------------------------

    def _busy_integral(self) -> float:
        self.cpu._advance()
        return self.cpu._busy_integral * self.cpu.capacity

    def stats_window(self) -> MachineStats:
        """Open a measurement window (call at the start of a benchmark)."""
        return MachineStats(self)

    def __repr__(self) -> str:
        return f"<Machine {self.name} pes={self.num_pes}>"
