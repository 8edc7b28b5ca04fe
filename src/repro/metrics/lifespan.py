"""SSD lifespan estimation from wear counters.

NAND endurance is a budget of erase cycles per block; with wear leveling the
device dies when cumulative erases exhaust ``blocks * cycles``.  Relative
lifespan between update methods under the same workload is therefore the
inverse ratio of their erase counts — exactly the quantity behind the
paper's "2.5x-13x longer" claim (§5.3.4).
"""

from __future__ import annotations

from repro.metrics.counters import WearModel


def endurance_years(
    wear: WearModel,
    device_bytes: int,
    cycles: int = 3000,
    workload_duration_s: float = 60.0,
) -> float:
    """Absolute lifespan estimate if the measured workload ran continuously.

    ``cycles`` is the per-block P/E rating (3k is typical for TLC NAND).
    """
    blocks = device_bytes / wear.erase_block
    budget = blocks * cycles
    if wear.erase_ops <= 0:
        return float("inf")
    seconds = budget / wear.erase_ops * workload_duration_s
    return seconds / (365.25 * 24 * 3600)
