"""Table 2 — time updated data resides in memory.

Runs TSUE under RS(12,4) on both cloud traces and reports the mean
append / buffer / recycle residency per log layer plus the end-to-end
total, in microseconds — the paper's Table 2 layout.  APPEND is entry to
ack-ready (``ResidencyTracker``): for the DataLog that is the later of the
local persist and the replica round trip, which run concurrently.

The paper measures ~10 s totals with 16 MB units on hour-scale replays;
residency scales with unit size and fill rate (§5.3.5 notes halving the
unit halves the interval), so at bench scale the totals are shorter but the
structure — buffer time dominating, append/recycle in the µs-to-ms range —
is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.latency import ResidencyTracker
from repro.metrics.report import format_table


@dataclass
class Table2Result:
    residency: Dict[str, ResidencyTracker]  # trace -> tracker
    totals_us: Dict[str, float]

    def rows(self) -> List[List[object]]:
        out = []
        for trace, tracker in self.residency.items():
            for layer in ResidencyTracker.LAYERS:
                a, b, r = tracker.mean_us(layer)
                out.append([trace, layer, round(a, 1), round(b, 1), round(r, 1)])
            out.append([trace, "TOTAL", "", "", round(self.totals_us[trace], 1)])
        return out

    def render(self) -> str:
        return format_table(
            ["TRACE", "LAYER", "APPEND us", "BUFFER us", "RECYCLE us"],
            self.rows(),
            title="Table 2: residency of updated data in memory (TSUE, RS(12,4))",
        )


def run_table2(
    n_clients: int = 32,
    updates_per_client: int = 150,
    unit_bytes: int = 512 * 1024,
    seed: int = 19,
) -> Table2Result:
    residency: Dict[str, ResidencyTracker] = {}
    totals: Dict[str, float] = {}
    for trace in ("ali", "ten"):
        cfg = ExperimentConfig(
            method="tsue",
            trace=trace,
            k=12,
            m=4,
            n_clients=n_clients,
            updates_per_client=updates_per_client,
            seed=seed,
            verify=False,
            strategy_params=dict(
                unit_bytes=unit_bytes, flush_age=0.1, flush_interval=0.05
            ),
        )
        res = run_experiment(cfg)
        assert res.residency is not None
        residency[trace] = res.residency
        totals[trace] = res.residency.total_time_us()
    return Table2Result(residency=residency, totals_us=totals)
