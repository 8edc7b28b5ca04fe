"""An integer interval set (sorted, merged, half-open).

Used by PARIX's speculation tracking: "has every byte of this update range
already shipped its original value?" needs byte-granular coverage, not page
granularity — a page can be partially covered by earlier updates.  The MDS
written map (``fs.mds.FileMeta``) uses the same set over page numbers: a
file written front to back is one interval however large it is.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple


class IntervalSet:
    """A set of disjoint, sorted, half-open ``[start, end)`` intervals."""

    __slots__ = ("_ivs",)

    def __init__(self) -> None:
        self._ivs: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def intervals(self) -> List[Tuple[int, int]]:
        return list(self._ivs)

    @property
    def covered_bytes(self) -> int:
        return sum(e - s for s, e in self._ivs)

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging with any touching intervals."""
        if start >= end:
            return
        ivs = self._ivs
        # Find insertion window: all intervals overlapping-or-adjacent.
        lo = bisect_right(ivs, (start,)) - 1
        if lo >= 0 and ivs[lo][1] >= start:
            start = min(start, ivs[lo][0])
        else:
            lo += 1
        hi = lo
        while hi < len(ivs) and ivs[hi][0] <= end:
            end = max(end, ivs[hi][1])
            hi += 1
        ivs[lo:hi] = [(start, end)]

    def covers(self, start: int, end: int) -> bool:
        """True iff every byte of ``[start, end)`` is in the set."""
        if start >= end:
            return True
        i = bisect_right(self._ivs, (start,)) - 1
        if i < 0:
            i = 0
        for s, e in self._ivs[i:]:
            if s > start:
                return False
            if e >= end:
                return True
            if e > start:
                start = e
        return False

    def uncovered(self, start: int, end: int) -> List[Tuple[int, int]]:
        """The sub-ranges of ``[start, end)`` not in the set."""
        out: List[Tuple[int, int]] = []
        pos = start
        i = bisect_right(self._ivs, (start,)) - 1
        if i < 0:
            i = 0
        for s, e in self._ivs[i:]:
            if s >= end:
                break
            if e <= pos:
                continue
            if s > pos:
                out.append((pos, min(s, end)))
            pos = max(pos, e)
            if pos >= end:
                break
        if pos < end:
            out.append((pos, end))
        return out
