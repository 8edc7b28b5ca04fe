"""SSD lifespan comparison (§5.3.4 / §1 claim).

Derived from the same runs as Table 1: flash wear (erase operations) per
method, normalised to the worst method.  The paper claims SSDs under TSUE
endure 2.5x-13x longer than under the other update methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.harness.table1 import METHODS, run_table1
from repro.metrics.report import format_table


@dataclass
class LifespanResult:
    erases: Dict[str, float]
    page_writes: Dict[str, int]

    def relative_lifespan(self) -> Dict[str, float]:
        worst = max(self.erases.values())
        return {m: worst / e for m, e in self.erases.items()}

    def tsue_advantage(self) -> Dict[str, float]:
        """TSUE's lifespan multiple over each other method."""
        t = self.erases["tsue"]
        return {m: e / t for m, e in self.erases.items() if m != "tsue"}

    def render(self) -> str:
        rel = self.relative_lifespan()
        rows = [
            [m.upper(), round(self.erases[m], 1), self.page_writes[m], round(rel[m], 2)]
            for m in self.erases
        ]
        return format_table(
            ["METHOD", "erase ops", "page writes", "rel. lifespan"],
            rows,
            title="SSD lifespan (erase-op accounting, Ten-Cloud RS(6,4))",
        )


def run_lifespan(
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 17,
    methods: Sequence[str] = METHODS,
) -> LifespanResult:
    results = run_table1(n_clients, updates_per_client, seed, methods).results
    return LifespanResult(
        erases={m: r.erase_ops for m, r in results.items()},
        page_writes={m: r.page_writes for m, r in results.items()},
    )
