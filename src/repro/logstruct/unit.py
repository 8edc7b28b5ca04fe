"""One log unit: a fixed-size append region with its own index.

Log space accounting is append-only: every accepted append consumes
``header + payload`` bytes of the unit's capacity regardless of how much the
index later merges — that is what fills units up and drives pool rotation.
The *index* tracks the merged view that the recycler will actually process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.dataplane import as_payload
from repro.logstruct.index import TwoLevelIndex
from repro.logstruct.states import UnitState

ENTRY_HEADER_BYTES = 32


@dataclass
class LogEntry:
    """Bookkeeping for one raw append (kept for residency accounting, after
    which TSUE's engine releases it).

    ``data`` is populated only in ``keep_raw`` mode, where the recycler
    processes raw entries one by one (the no-locality ablation of Fig. 7).
    """

    key: Hashable
    offset: int
    length: int
    append_time: float
    data: Optional[np.ndarray] = None


class LogUnit:
    """A fixed-capacity append log with a two-level index."""

    __slots__ = (
        "capacity", "unit_id", "keep_raw", "state", "index", "used", "entries",
        "first_append_time", "sealed_time", "recycle_start_time",
        "recycle_done_time",
    )

    def __init__(
        self,
        capacity: int,
        policy: str = "overwrite",
        unit_id: int = 0,
        keep_raw: bool = False,
    ):
        if capacity <= ENTRY_HEADER_BYTES:
            raise ValueError(f"capacity {capacity} too small")
        self.capacity = capacity
        self.unit_id = unit_id
        self.keep_raw = keep_raw
        self.state = UnitState.EMPTY
        self.index = TwoLevelIndex(policy=policy)
        self.used = 0
        self.entries: List[LogEntry] = []
        self.first_append_time: Optional[float] = None
        self.sealed_time: Optional[float] = None
        self.recycle_start_time: Optional[float] = None
        self.recycle_done_time: Optional[float] = None

    # ------------------------------------------------------------------
    def fits(self, nbytes: int) -> bool:
        return self.used + nbytes + ENTRY_HEADER_BYTES <= self.capacity

    def append(
        self, key: Hashable, offset: int, data: np.ndarray, now: float
    ) -> bool:
        """Append one record; False (and no change) if it would overflow."""
        if self.state is not UnitState.EMPTY:
            raise RuntimeError(f"append to unit in state {self.state}")
        data = as_payload(data)
        if not self.fits(data.size):
            return False
        self.index.insert(key, offset, data)
        self.used += data.size + ENTRY_HEADER_BYTES
        raw = data.copy() if self.keep_raw else None
        self.entries.append(LogEntry(key, offset, int(data.size), now, raw))
        if self.first_append_time is None:
            self.first_append_time = now
        return True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def seal(self, now: float) -> None:
        """EMPTY -> RECYCLABLE (the unit filled up or was force-flushed)."""
        if self.state is not UnitState.EMPTY:
            raise RuntimeError(f"seal from state {self.state}")
        self.state = UnitState.RECYCLABLE
        self.sealed_time = now

    def start_recycle(self, now: float) -> None:
        if self.state is not UnitState.RECYCLABLE:
            raise RuntimeError(f"start_recycle from state {self.state}")
        self.state = UnitState.RECYCLING
        self.recycle_start_time = now

    def finish_recycle(self, now: float) -> None:
        if self.state is not UnitState.RECYCLING:
            raise RuntimeError(f"finish_recycle from state {self.state}")
        self.state = UnitState.RECYCLED
        self.recycle_done_time = now

    def reactivate(self) -> None:
        """RECYCLED -> EMPTY: drop index/payload, become the new appender."""
        if self.state is not UnitState.RECYCLED:
            raise RuntimeError(f"reactivate from state {self.state}")
        self.index.clear()
        self.entries.clear()
        self.used = 0
        self.first_append_time = None
        self.sealed_time = None
        self.recycle_start_time = None
        self.recycle_done_time = None
        self.state = UnitState.EMPTY

    # ------------------------------------------------------------------
    # residency accounting (Table 2)
    # ------------------------------------------------------------------
    def mean_buffer_time(self) -> float:
        """Mean wait between an entry's append and recycle start."""
        if not self.entries or self.recycle_start_time is None:
            return 0.0
        waits = [max(0.0, self.recycle_start_time - e.append_time) for e in self.entries]
        return sum(waits) / len(waits)

    # ------------------------------------------------------------------
    # read-cache service
    # ------------------------------------------------------------------
    def lookup_partial(
        self, key: Hashable, offset: int, length: int
    ) -> List[Tuple[int, np.ndarray]]:
        return self.index.lookup_partial(key, offset, length)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LogUnit #{self.unit_id} {self.state.value} "
            f"{self.used}/{self.capacity}B {self.index.block_count} blocks>"
        )
