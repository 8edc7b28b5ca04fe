"""Ablations beyond Fig. 7 (DESIGN.md §5)."""

from __future__ import annotations

from benchmarks.conftest import scale
from repro.harness.artifacts import (
    run_index_ablation,
    run_replica_ablation,
    run_unit_size_ablation,
)


def test_ablation_unit_size(benchmark, archive):
    """§5.3.5: buffer residency scales with the log-unit size."""
    res = benchmark.pedantic(
        run_unit_size_ablation,
        kwargs=dict(n_clients=scale(24, 48), updates=scale(100, 300)),
        rounds=1,
        iterations=1,
    )
    archive("ablation_unit_size", res.render())
    # Larger units hold entries longer before sealing.
    buffer_us = res.series["data-log buffer (us)"]
    assert buffer_us[-1] > buffer_us[0]


def test_ablation_replicas(benchmark, archive):
    """Each extra DataLog copy costs ack latency but little throughput."""
    res = benchmark.pedantic(
        run_replica_ablation,
        kwargs=dict(n_clients=scale(24, 48), updates=scale(100, 300)),
        rounds=1,
        iterations=1,
    )
    archive("ablation_replicas", res.render())
    latency_us = res.series["latency (us)"]
    assert latency_us[0] < latency_us[1] < latency_us[2]
    # Even 3 copies keep TSUE within 2x of its replica-free latency.
    assert latency_us[2] < 2.0 * latency_us[0]


def test_ablation_index(benchmark, archive):
    """Index merging cuts device R/W operations at fixed pool structure."""
    res = benchmark.pedantic(
        run_index_ablation,
        kwargs=dict(n_clients=scale(24, 48), updates=scale(100, 300)),
        rounds=1,
        iterations=1,
    )
    archive("ablation_index", res.render())
    off, on = res.series["device R/W ops"]
    assert on < off, "merging must reduce device operations"
    assert res.series["IOPS"][1] >= 0.9 * res.series["IOPS"][0]
