"""Fig. 6 — TSUE overhead analysis.

* **Fig. 6a** (recycle overhead): aggregate IOPS sampled over the run —
  the paper's point is that with >= 4 log units the back-end recycle has a
  negligible, stable effect on front-end throughput.
* **Fig. 6b** (memory usage): aggregate IOPS and peak log-memory footprint
  versus the per-pool max-unit quota {2, 4, 6, 8, 12, 16, 20}; throughput
  collapses at quota 2 (back-pressure) and saturates from 4 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.metrics.report import format_series

UNIT_QUOTAS = (2, 4, 6, 8, 12, 16, 20)


@dataclass
class Fig6aResult:
    times: List[float]
    iops: List[float]
    mean_iops: float
    steady_cv: float  # coefficient of variation over the steady half

    def render(self) -> str:
        return format_series(
            {"IOPS": self.iops}, [f"{t * 1000:.0f}ms" for t in self.times], "t",
            title="Fig.6a aggregate IOPS over time (TSUE, recycle running)",
        )


def run_fig6a(
    n_clients: int = 32,
    updates_per_client: int = 200,
    buckets: int = 10,
    seed: int = 11,
) -> Fig6aResult:
    cfg = ExperimentConfig(
        method="tsue",
        trace="ten",
        k=6,
        m=4,
        n_clients=n_clients,
        updates_per_client=updates_per_client,
        seed=seed,
        verify=False,
    )
    res = run_experiment(cfg)
    series = res.update_recorder.iops_series(
        bucket=res.horizon / buckets, horizon=res.horizon
    )
    half = series.values[buckets // 2 :]
    mean = sum(half) / len(half)
    var = sum((v - mean) ** 2 for v in half) / len(half)
    cv = (var**0.5) / mean if mean > 0 else 0.0
    return Fig6aResult(
        times=series.times, iops=series.values, mean_iops=series.mean(), steady_cv=cv
    )


@dataclass
class Fig6bResult:
    quotas: List[int]
    iops: List[float]
    peak_memory_mb: List[float]

    def render(self) -> str:
        return format_series(
            {"IOPS": self.iops, "peak log mem (MB)": self.peak_memory_mb},
            self.quotas,
            "max units/pool",
            title="Fig.6b throughput and memory vs log-unit quota (TSUE)",
        )


def run_fig6b(
    quotas: Sequence[int] = UNIT_QUOTAS,
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 11,
) -> Fig6bResult:
    iops: List[float] = []
    mem: List[float] = []
    for q in quotas:
        cfg = ExperimentConfig(
            method="tsue",
            trace="ali",
            k=6,
            m=4,
            n_clients=n_clients,
            updates_per_client=updates_per_client,
            seed=seed,
            verify=False,
            strategy_params=dict(
                unit_bytes=128 * 1024,
                min_units=2,
                max_units=q,
            ),
        )
        res = run_experiment(cfg)
        iops.append(res.agg_iops)
        mem.append(res.peak_log_memory / (1 << 20))
    return Fig6bResult(quotas=list(quotas), iops=iops, peak_memory_mb=mem)
