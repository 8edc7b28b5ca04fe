"""FIFO resources for the simulation kernel.

:class:`Resource` models a server with finite capacity — a client's iodepth
slots, a per-OSD method lock.  (Device channels and NIC directions are not
Resources; they advance by projected completion, see ``docs/dataplane.md``.)
:class:`KeyedLock` is a manager of per-key FIFO mutual-exclusion locks
(per-stripe update serialization).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, Hashable, List, Optional, Tuple

from repro.sim.events import Event

if TYPE_CHECKING:  # sim.core imports Request from this module
    from repro.sim.core import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource"):
        super().__init__(sim, name="request")
        self.resource = resource

    def withdraw(self) -> None:
        """Leave the resource's queue without being granted.

        ``Process.interrupt`` calls this for a waiter still queued here;
        otherwise a later ``release`` would hand the slot to a process
        that never releases it.
        """
        self.resource._queue.remove(self)


class Resource:
    """A FIFO multi-server resource.

    ``request()`` returns an event that fires once a slot is free; the holder
    must call ``release()`` exactly once.  Grants happen strictly in request
    order.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self.sim, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def try_acquire(self) -> bool:
        """Synchronous uncontended acquire: True iff a slot was taken now.

        The event-free counterpart of :meth:`request` for callers that can
        continue immediately on a free slot (``if not r.try_acquire():
        yield r.request()``); the holder still owes one :meth:`release`.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed()
        else:
            self._in_use -= 1


class KeyedLock:
    """A family of FIFO mutual-exclusion locks, one per key, under one roof.

    A single :class:`KeyedLock` serves any number of keys (e.g. every
    ``(inode, stripe)`` pair an OSD hosts).  Per-key state exists only while
    the key is held or waited on, so an idle lock costs nothing no matter
    how many stripes the node stores.

    ``acquire(key, holder)`` returns an event that fires once ``holder``
    owns the key's lock; grants are strictly FIFO per key, so waiters cannot
    starve and same-key critical sections run in request order.  ``holder``
    is any token identifying the acquiring activity (compared by identity).
    The locks are *not* re-entrant: a holder acquiring a key it already
    holds or already waits on would sleep on itself forever, so that call
    raises immediately instead of deadlocking the simulation.

    Accounting (feeds the scenario lock-wait metrics): ``acquisitions``
    counts every grant, ``contended`` the acquires that had to queue, and
    ``wait_times`` records per-grant queueing delay in virtual seconds
    (0.0 for uncontended grants).
    """

    def __init__(self, sim: Simulator, name: str = "keyedlock"):
        self.sim = sim
        self.name = name
        self._holders: Dict[Hashable, Any] = {}
        self._queues: Dict[Hashable, Deque[Tuple[Event, Any, float]]] = {}
        self.acquisitions = 0
        self.contended = 0
        self.wait_times: List[float] = []

    def held(self, key: Hashable) -> bool:
        return key in self._holders

    def holder(self, key: Hashable) -> Optional[Any]:
        return self._holders.get(key)

    def queue_len(self, key: Hashable) -> int:
        return len(self._queues.get(key, ()))

    @property
    def keys_held(self) -> int:
        return len(self._holders)

    def try_acquire(self, key: Hashable, holder: Any) -> bool:
        """Synchronous uncontended acquire: True iff ``holder`` now owns
        ``key`` (no event, no queue hop).  Accounting is identical to an
        uncontended :meth:`acquire`; on False the caller falls back to
        ``yield acquire(key, holder)``.
        """
        if key not in self._holders:
            self._holders[key] = holder
            self.acquisitions += 1
            self.wait_times.append(0.0)
            return True
        if self._holders[key] is holder:
            raise RuntimeError(
                f"{self.name}: holder already owns key {key!r} (not re-entrant)"
            )
        return False

    def acquire(self, key: Hashable, holder: Any) -> Event:
        """An event firing once ``holder`` owns ``key``'s lock (FIFO)."""
        if self._holders.get(key) is holder:
            raise RuntimeError(
                f"{self.name}: holder already owns key {key!r} (not re-entrant)"
            )
        if any(h is holder for _, h, _ in self._queues.get(key, ())):
            raise RuntimeError(
                f"{self.name}: holder already waiting on key {key!r}"
            )
        ev = Event(self.sim, name="lock")
        if key not in self._holders:
            self._holders[key] = holder
            self.acquisitions += 1
            self.wait_times.append(0.0)
            ev.succeed()
        else:
            self.contended += 1
            self._queues.setdefault(key, deque()).append((ev, holder, self.sim.now))
        return ev

    def release(self, key: Hashable, holder: Any) -> None:
        """Release ``key``; the next queued waiter (if any) is granted."""
        if self._holders.get(key) is not holder:
            raise RuntimeError(
                f"{self.name}: release of key {key!r} by a non-holder"
            )
        queue = self._queues.get(key)
        if queue:
            ev, nxt, t_requested = queue.popleft()
            if not queue:
                del self._queues[key]
            self._holders[key] = nxt
            self.acquisitions += 1
            self.wait_times.append(self.sim.now - t_requested)
            ev.succeed()
        else:
            del self._holders[key]

    def force_reset(self, error: Optional[BaseException] = None) -> None:
        """Abandon every held key and queued waiter (host crash recovery).

        A crashed OSD's aborted handler processes normally release their
        keys through ``finally`` blocks as the interrupt unwinds them, but a
        grant can race the interrupt: a dying holder's release hands the key
        to a waiter that is itself about to die, and the key would then be
        held by a corpse forever — wedging every later same-key acquirer.
        ``force_reset`` clears all holder/queue state; still-pending waiter
        events are failed with ``error`` so any live waiter gets a clean
        exception instead of sleeping forever.
        """
        error = error or RuntimeError(f"{self.name}: lock manager reset")
        for queue in self._queues.values():
            for ev, _holder, _t in queue:
                if not ev.triggered:
                    ev.fail(error)
        self._queues.clear()
        self._holders.clear()
