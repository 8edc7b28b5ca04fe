"""Fig. 7 — contribution breakdown of TSUE's optimisations.

Cumulative variants, exactly the paper's O1..O5 ladder:

* Baseline — DataLog + ParityLog only, single exclusive unit per log, one
  pool per device, no locality merging;
* O1 — + spatio-temporal locality in the DataLog;
* O2 — + locality in the ParityLog;
* O3 — + the multi-unit FIFO log-pool structure;
* O4 — + 4 log pools per device;
* O5 — + the DeltaLog layer (Eq. 5 combining, network reduction).

Expected shape (§5.3.3): O3 the largest jump, O4 minimal, O5 ~ +30 %,
O1 > O2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.report import format_series

VARIANTS: List[Tuple[str, Dict[str, object]]] = [
    (
        "baseline",
        dict(
            use_locality_data=False,
            use_locality_parity=False,
            use_log_pool=False,
            n_pools=1,
            use_delta_log=False,
        ),
    ),
    (
        "O1",
        dict(
            use_locality_data=True,
            use_locality_parity=False,
            use_log_pool=False,
            n_pools=1,
            use_delta_log=False,
        ),
    ),
    (
        "O2",
        dict(
            use_locality_data=True,
            use_locality_parity=True,
            use_log_pool=False,
            n_pools=1,
            use_delta_log=False,
        ),
    ),
    (
        "O3",
        # max_units is raised so O3's single pool has the same total log
        # capacity as O4's four pools: the O3->O4 step then measures pool
        # *concurrency*, not extra memory.
        dict(
            use_locality_data=True,
            use_locality_parity=True,
            use_log_pool=True,
            n_pools=1,
            max_units=16,
            use_delta_log=False,
        ),
    ),
    (
        "O4",
        dict(
            use_locality_data=True,
            use_locality_parity=True,
            use_log_pool=True,
            n_pools=4,
            use_delta_log=False,
        ),
    ),
    (
        "O5",
        dict(
            use_locality_data=True,
            use_locality_parity=True,
            use_log_pool=True,
            n_pools=4,
            use_delta_log=True,
        ),
    ),
]


@dataclass
class Fig7Result:
    trace: str
    m: int
    labels: List[str]
    iops: List[float]

    def render(self) -> str:
        return format_series(
            {"IOPS": self.iops}, self.labels, "variant",
            title=f"Fig.7 breakdown, {self.trace}-cloud RS(6,{self.m})",
        )

    def gain(self, label: str) -> float:
        """Throughput of a variant relative to its predecessor."""
        i = self.labels.index(label)
        if i == 0:
            return 1.0
        prev = self.iops[i - 1]
        return self.iops[i] / prev if prev > 0 else float("inf")


def run_fig7(
    trace: str = "ten",
    m: int = 4,
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 13,
    variants: Sequence[Tuple[str, Dict[str, object]]] = tuple(VARIANTS),
) -> Fig7Result:
    labels: List[str] = []
    iops: List[float] = []
    for label, flags in variants:
        cfg = ExperimentConfig(
            method="tsue",
            trace=trace,
            k=6,
            m=m,
            n_clients=n_clients,
            updates_per_client=updates_per_client,
            seed=seed,
            verify=False,
            strategy_params=dict(flags),
        )
        res = run_experiment(cfg)
        labels.append(label)
        iops.append(res.agg_iops)
    return Fig7Result(trace=trace, m=m, labels=labels, iops=iops)
