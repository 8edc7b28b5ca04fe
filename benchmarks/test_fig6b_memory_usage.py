"""Fig. 6b — throughput and memory vs the per-pool log-unit quota.

Shape: quota 2 backpressures the front end badly; from quota >= 4 the
throughput is high and stable while memory grows linearly with the quota —
the basis for the paper's "max 4 units" default (§5.3.2).
"""

from __future__ import annotations

from benchmarks.conftest import FULL, scale
from repro.harness.artifacts import UNIT_QUOTAS, run_fig6b

QUOTAS = UNIT_QUOTAS if FULL else (2, 4, 8, 16)


def test_fig6b_memory_usage(benchmark, archive):
    res = benchmark.pedantic(
        run_fig6b,
        kwargs=dict(
            quotas=QUOTAS,
            n_clients=scale(24, 48),
            updates_per_client=scale(100, 300),
        ),
        rounds=1,
        iterations=1,
    )
    archive("fig6b_memory_usage", res.render())
    quotas, iops = res.x, res.series["IOPS"]
    by_quota = dict(zip(quotas, iops))
    peak = max(iops)
    # Quota 2 is the back-pressured worst case, well below the plateau.
    assert by_quota[2] == min(iops)
    assert by_quota[2] < 0.67 * peak
    # A small quota already reaches the plateau (paper: 4; we allow the
    # knee anywhere at or below 8), and the plateau is stable after it.
    knee = next(q for q in quotas if by_quota[q] >= 0.8 * peak)
    assert knee <= 8, f"throughput knee at quota {knee}"
    for q in quotas[quotas.index(knee) :]:
        assert by_quota[q] >= 0.7 * peak
    # Memory footprint grows with the quota.
    memory = res.series["peak log mem (MB)"]
    assert memory[-1] > memory[0]
