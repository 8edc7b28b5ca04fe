"""Deterministic discrete-event simulation kernel.

This package provides the virtual-time substrate every other subsystem runs
on.  It is a small, dependency-free engine in the style of SimPy:

* :class:`~repro.sim.core.Simulator` owns the event heap and the clock.
* Processes are plain Python generators that ``yield`` events
  (:class:`~repro.sim.events.Timeout`, resource requests, other processes,
  :class:`~repro.sim.events.AllOf` / :class:`~repro.sim.events.AnyOf`
  combinators).
* :class:`~repro.sim.resources.Resource` models a FIFO server with finite
  capacity (client iodepth slots, per-OSD method locks).
* :class:`~repro.sim.resources.KeyedLock` is a per-key FIFO mutex family
  (per-stripe update serialization on the OSDs).
* :mod:`~repro.sim.collector` owns CPython's cyclic garbage collector while
  the kernel or a runner is active: automatic collection is paused and the
  kernel loops collect on an event-count cadence instead.

Determinism: ties in the event heap break on a monotone sequence number, and
all randomness flows through :class:`~repro.sim.rng.RngStreams`, so a run is
a pure function of its seed.
"""

from repro.sim.core import Process, Simulator
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.resources import KeyedLock, Resource
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "KeyedLock",
    "Process",
    "Resource",
    "RngStreams",
    "Simulator",
    "Timeout",
]
