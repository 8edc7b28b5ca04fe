"""The FIFO log pool (§3.2).

One active unit accepts appends at the queue tail; filled units are sealed
RECYCLABLE and handed to the recycler; RECYCLED units linger as read cache
and are reactivated (oldest first) when the appender needs a fresh unit.
The pool grows on demand up to ``max_units`` and can shrink back to
``min_units`` when idle — the elasticity of §3.2.2.

The pool is simulator-agnostic: the engine wires ``seal_listener`` to wake
its recycler and handles the "no unit available" (memory quota) case by
waiting until a recycle completes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Hashable, List, Optional, Tuple

import numpy as np

from repro.dataplane import as_payload
from repro.logstruct.intervals import IntervalSet
from repro.logstruct.states import UnitState
from repro.logstruct.unit import ENTRY_HEADER_BYTES, LogUnit


class LogPool:
    """A FIFO queue of :class:`LogUnit` with one active appender."""

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
        self.units: Deque[LogUnit] = deque()
        self.seal_listener: Optional[Callable[[LogUnit], None]] = None
        self.peak_units = 0
        self.total_seals = 0
        for _ in range(min_units):
            self._new_unit()
        self._active: Optional[LogUnit] = self.units[-1] if self.units else None
        # All but the designated active start RECYCLED so they are reusable
        # read-cache slots rather than phantom appenders.
        for u in list(self.units)[:-1]:
            u.state = UnitState.RECYCLED

    # ------------------------------------------------------------------
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
        return len(self.units)

    @property
    def memory_bytes(self) -> int:
        """Current memory footprint: all live units' capacity."""
        return len(self.units) * self.unit_capacity

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
            if not self._activate_next(now):
                return False
        assert self._active is not None
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
            self.seal_listener(unit)

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
