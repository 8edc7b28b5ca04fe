"""Log-unit lifecycle states (Fig. 3 of the paper)."""

from __future__ import annotations

import enum


class UnitState(enum.Enum):
    """EMPTY -> (active appends) -> RECYCLABLE -> RECYCLING -> RECYCLED.

    A RECYCLED unit keeps its index and payload, serving as a read cache,
    until the pool re-activates it as EMPTY for new appends — in TSUE only
    the DataLog reads it; its engine releases the other layers' indexes
    and every unit's raw entries at recycle end.
    """

    EMPTY = "empty"
    RECYCLABLE = "recyclable"
    RECYCLING = "recycling"
    RECYCLED = "recycled"
