"""Discrete-event simulation substrate for the Ninf global-computing simulator.

The SC'97 paper concludes that the authors planned to "build a global
computing simulator for Ninf, on which we could readily test different
client network topologies under various communication and other
parameters".  This package is that simulator's substrate:

- :mod:`repro.sim.engine` -- event heap, generator-based processes,
  timeouts, signals, and deterministic execution.
- :mod:`repro.sim.resources` -- a FCFS resource and processor-sharing
  servers.
- :mod:`repro.sim.network` -- a flow-level network model with max-min fair
  bandwidth sharing across multi-link routes (the mechanism behind the
  paper's WAN saturation results).
- :mod:`repro.sim.machine` -- machine models: processing elements,
  Unix-style load average, and CPU-utilization accounting.

Everything is deterministic given a seed; simulated time is a float in
seconds.
"""

from repro.sim.engine import (
    AllOf,
    Process,
    Signal,
    SimTimeError,
    Simulator,
    Timeout,
)
from repro.sim.resources import ProcessorSharingServer, Resource
from repro.sim.network import Flow, Link, Network, Route
from repro.sim.machine import Machine, MachineStats, Task

__all__ = [
    "AllOf",
    "Flow",
    "Link",
    "Machine",
    "MachineStats",
    "Network",
    "Process",
    "ProcessorSharingServer",
    "Resource",
    "Route",
    "Signal",
    "SimTimeError",
    "Simulator",
    "Task",
    "Timeout",
]
