"""Fig. 6a — the back-end recycle's impact on update throughput over time.

Shape: with the default (>= 4) unit quota, throughput over the run is high
and stable — the recycle runs concurrently without starving the front end.
"""

from __future__ import annotations

from benchmarks.conftest import scale
from repro.harness.artifacts import run_fig6a


def test_fig6a_recycle_overhead(benchmark, archive):
    res = benchmark.pedantic(
        run_fig6a,
        kwargs=dict(
            n_clients=scale(24, 48),
            updates_per_client=scale(150, 400),
        ),
        rounds=1,
        iterations=1,
    )
    archive("fig6a_recycle_overhead", res.render())
    iops = res.series["IOPS"]
    assert sum(iops) / len(iops) > 0
    # Steady-state variability stays bounded (no recycle-induced collapse):
    # the coefficient of variation over the steady half.
    half = iops[len(iops) // 2 :]
    steady_mean = sum(half) / len(half)
    var = sum((v - steady_mean) ** 2 for v in half) / len(half)
    steady_cv = (var**0.5) / steady_mean if steady_mean > 0 else 0.0
    assert steady_cv < 0.5, f"throughput unstable: cv={steady_cv:.2f}"
    # No bucket in the steady half drops below half the steady mean.
    assert min(half) > 0.5 * steady_mean
