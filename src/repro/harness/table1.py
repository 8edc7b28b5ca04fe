"""Table 1 — storage workload and network traffic.

Replays the Ten-Cloud trace under RS(6,4) for every method and reports
exactly the paper's columns: READ/WRITE Num. and Volume, OVERWRITE
(write-penalty) Num. and Volume, NETWORK TRAFFIC.

Expected shape: TSUE lowest op counts (read/write ops a small fraction of
PL's; overwrites a small fraction of FO's) while its *volumes* may exceed
PARIX/CoRD (the DataLog and DeltaLog persist on two nodes each, the
ParityLog on the parity nodes that hold no DeltaLog copy), and network
traffic only slightly above CoRD's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.harness.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.metrics.report import format_table

METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")


@dataclass
class Table1Result:
    results: Dict[str, ExperimentResult]

    def rows(self) -> List[List[object]]:
        out = []
        for name, r in self.results.items():
            out.append(
                [
                    name.upper(),
                    r.rw_ops,
                    round(r.rw_gb, 3),
                    r.overwrite_ops,
                    round(r.overwrite_gb, 3),
                    round(r.net_gb, 3),
                ]
            )
        return out

    def render(self) -> str:
        return format_table(
            ["METHOD", "R/W Num.", "R/W GB", "OW Num.", "OW GB", "NET GB"],
            self.rows(),
            title="Table 1: storage workload and network traffic (Ten-Cloud, RS(6,4))",
        )


def run_table1(
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 17,
    methods: Sequence[str] = METHODS,
) -> Table1Result:
    results: Dict[str, ExperimentResult] = {}
    for method in methods:
        cfg = ExperimentConfig(
            method=method,
            trace="ten",
            k=6,
            m=4,
            n_clients=n_clients,
            updates_per_client=updates_per_client,
            seed=seed,
            verify=False,
        )
        results[method] = run_experiment(cfg)
    return Table1Result(results=results)
