"""The one owner of CPython's cyclic garbage collector.

A simulation keeps thousands of requests in flight, so almost every young
container survives until its request completes: the generational collector
re-traverses the live heap hundreds of times per run and, on fault-free
runs, reclaims nothing — reference counting has already freed everything
(``docs/dataplane.md``, "Host memory management").  While the kernel or a
runner is active, automatic collection is therefore suspended
(:func:`paused`) and the kernel loops run one full collection every
:data:`COLLECT_EVERY_EVENTS` fired events instead (:func:`collect`), which
bounds the cycles that crash paths do create.

Every collector call in ``src/`` lives in this module; a test greps for
strays.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

# Kernel events between two explicit full collections.  Counted in events,
# not seconds or allocations, so the collections of a run fall at the same
# points of its event order on every host.  Crash handling is the one path
# that makes cycles (~26k unreachable objects per 300k events on the
# benchmark's crash workload), so this bounds uncollected garbage near 1e5
# objects.  A constant, never an option.
COLLECT_EVERY_EVENTS = 1 << 20


@contextmanager
def paused() -> Iterator[None]:
    """Suspend automatic collection; restore the caller's setting on exit.

    Re-entrant without shared state: a nested entry finds the collector
    already disabled and so leaves it disabled on its way out, and only the
    outermost exit re-enables it (if the caller had it enabled at all).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def collect() -> int:
    """One full collection, on the kernel's cadence; returns objects found."""
    return gc.collect()
