"""The FIFO log pool (§3.2).

One active unit accepts appends at the queue tail; filled units are sealed
RECYCLABLE and handed to the recycler; RECYCLED units linger as read cache
and are reactivated (oldest first) when the appender needs a fresh unit.
The pool grows on demand up to ``max_units`` and can shrink back to
``min_units`` when idle — the elasticity of §3.2.2.

Units come on the first append.  Until then the ``min_units`` reservation
is arithmetic: ``unit_count``, ``memory_bytes`` and ``peak_memory_bytes``
report it, ``units`` is empty and ``active`` is ``None``, and every path
that only reads the pool (lookups, ``flush_active``, ``shrink``,
``has_pending_recycle``) answers what an empty reservation would.  The
first append builds exactly that reservation — ids ``0..min_units-1``, the
last one active, the others RECYCLED — so no simulated quantity depends
on when it was built.  A cluster builds thousands of pools, and some never
take an append.

The pool is simulator-agnostic: the engine wires ``seal_listener`` (called
with the pool and the sealed unit) to wake its recycler and handles the
"no unit available" (memory quota) case by waiting until a recycle
completes.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Tuple

import numpy as np

from repro.dataplane import as_payload
from repro.logstruct.intervals import IntervalSet
from repro.logstruct.states import UnitState
from repro.logstruct.unit import ENTRY_HEADER_BYTES, LogUnit


class LogPool:
    """A FIFO queue of :class:`LogUnit` with one active appender."""

    __slots__ = (
        "unit_capacity", "min_units", "max_units", "policy", "name", "keep_raw",
        "units", "seal_listener", "peak_units", "total_seals", "_active", "_next_id",
    )

    def __init__(
        self,
        unit_capacity: int = 16 * 1024 * 1024,
        min_units: int = 2,
        max_units: int = 4,
        policy: str = "overwrite",
        name: str = "pool",
        keep_raw: bool = False,
    ):
        if not 1 <= min_units <= max_units:
            raise ValueError(
                f"need 1 <= min_units <= max_units, got {min_units}, {max_units}"
            )
        self.unit_capacity = unit_capacity
        self.min_units = min_units
        self.max_units = max_units
        self.policy = policy
        self.name = name
        self.keep_raw = keep_raw
        self._next_id = 0
        # Queue order: oldest (head) .. newest; the active unit is the tail.
        # Empty until the first append builds the reservation (``_build``).
        self.units: List[LogUnit] = []
        self.seal_listener: Optional[Callable[["LogPool", LogUnit], None]] = None
        self.peak_units = min_units
        self.total_seals = 0
        self._active: Optional[LogUnit] = None

    # ------------------------------------------------------------------
    def _build(self) -> None:
        """The ``min_units`` reservation, as units: all but the designated
        active one start RECYCLED, reusable read-cache slots rather than
        phantom appenders."""
        for _ in range(self.min_units):
            self._new_unit()
        self._active = self.units[-1]
        for unit in self.units[:-1]:
            unit.state = UnitState.RECYCLED

    def _new_unit(self) -> LogUnit:
        unit = LogUnit(
            self.unit_capacity,
            policy=self.policy,
            unit_id=self._next_id,
            keep_raw=self.keep_raw,
        )
        self._next_id += 1
        self.units.append(unit)
        self.peak_units = max(self.peak_units, len(self.units))
        return unit

    @property
    def active(self) -> Optional[LogUnit]:
        return self._active

    @property
    def unit_count(self) -> int:
        """Live units; the reservation before the first append builds it."""
        return len(self.units) or self.min_units

    @property
    def memory_bytes(self) -> int:
        """Current memory footprint: all live units' capacity."""
        return self.unit_count * self.unit_capacity

    @property
    def peak_memory_bytes(self) -> int:
        return self.peak_units * self.unit_capacity

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(
        self, key: Hashable, offset: int, data: np.ndarray, now: float
    ) -> bool:
        """Append one record, rotating the active unit when it fills.

        Records larger than one unit are split across consecutive units
        (adjacent chunks re-coalesce in the per-unit indexes).  Returns
        False when the pool is at quota with no reusable unit — the caller
        must wait for a recycle to complete and retry (this is the
        back-pressure that bounds memory, §3.2.1).
        """
        data = as_payload(data)
        max_chunk = self.unit_capacity - ENTRY_HEADER_BYTES
        if data.size > max_chunk:
            pos = 0
            while pos < data.size:
                chunk = data[pos : pos + max_chunk]
                if not self._append_one(key, offset + pos, chunk, now):
                    if pos:
                        raise RuntimeError(
                            "pool quota exhausted mid-split; caller must size "
                            "units above the back-pressure retry granularity"
                        )
                    return False
                pos += chunk.size
            return True
        return self._append_one(key, offset, data, now)

    def _append_one(
        self, key: Hashable, offset: int, data: np.ndarray, now: float
    ) -> bool:
        if self._active is None:
            if not self.units:
                self._build()
            elif not self._activate_next(now):
                return False
        if self._active.append(key, offset, data, now):
            return True
        # Unit full: seal and rotate.
        self._seal_active(now)
        if not self._activate_next(now):
            return False
        ok = self._active.append(key, offset, data, now)
        if not ok:
            raise ValueError(
                f"record of {data.size}B cannot fit an empty unit of "
                f"{self.unit_capacity}B"
            )
        return True

    def flush_active(self, now: float) -> Optional[LogUnit]:
        """Seal a non-empty active unit early (real-time recycle deadline)."""
        if self._active is not None and self._active.used > 0:
            unit = self._active
            self._seal_active(now)
            self._activate_next(now)
            return unit
        return None

    def _seal_active(self, now: float) -> None:
        assert self._active is not None
        unit = self._active
        unit.seal(now)
        self.total_seals += 1
        self._active = None
        if self.seal_listener is not None:
            self.seal_listener(self, unit)

    def _activate_next(self, now: float) -> bool:
        # Prefer the oldest RECYCLED unit (FIFO reuse frees its cache last).
        for unit in self.units:
            if unit.state is UnitState.RECYCLED:
                unit.reactivate()
                # Move to tail: the active unit is always newest.
                self.units.remove(unit)
                self.units.append(unit)
                self._active = unit
                return True
        if len(self.units) < self.max_units:
            self._active = self._new_unit()
            return True
        return False

    # ------------------------------------------------------------------
    # recycling support
    # ------------------------------------------------------------------
    def recyclable_units(self) -> List[LogUnit]:
        return [u for u in self.units if u.state is UnitState.RECYCLABLE]

    def has_pending_recycle(self) -> bool:
        return any(
            u.state in (UnitState.RECYCLABLE, UnitState.RECYCLING) for u in self.units
        )

    def shrink(self) -> int:
        """Drop RECYCLED units beyond ``min_units``; returns units freed."""
        freed = 0
        while len(self.units) > self.min_units:
            victim = None
            for unit in self.units:
                if unit.state is UnitState.RECYCLED and unit is not self._active:
                    victim = unit
                    break
            if victim is None:
                break
            self.units.remove(victim)
            freed += 1
        return freed

    # ------------------------------------------------------------------
    # read cache (§3.3.3)
    # ------------------------------------------------------------------
    def cache_lookup_partial(
        self, key: Hashable, offset: int, length: int
    ) -> List[Tuple[int, np.ndarray]]:
        """Newest-wins overlay fragments intersecting the range.

        Fragments from newer units shadow older ones; the returned list is
        already de-overlapped and offset-sorted.
        """
        covered: List[Tuple[int, np.ndarray]] = []
        have = IntervalSet()
        for unit in reversed(self.units):
            for a, frag in unit.lookup_partial(key, offset, length):
                b = a + frag.size
                # Only the runs no newer unit already served survive.
                for lo, hi in have.uncovered(a, b):
                    covered.append((lo, frag[lo - a : hi - a].copy()))
                have.add(a, b)
        covered.sort(key=lambda t: t[0])
        return covered
