"""Table 2 — residency of updated data in memory (TSUE, RS(12,4)).

Shape: append and recycle phases are microsecond-to-millisecond scale while
the buffer phase dominates the end-to-end residency; every layer records a
healthy sample count.  (Absolute totals scale with the log-unit size —
§5.3.5 — and our bench units are smaller than the paper's 16 MB.)
"""

from __future__ import annotations

from benchmarks.conftest import scale
from repro.harness.artifacts import run_table2
from repro.metrics.latency import ResidencyTracker


def test_table2_residency(benchmark, archive):
    res = benchmark.pedantic(
        run_table2,
        kwargs=dict(n_clients=scale(24, 48), updates_per_client=scale(100, 300)),
        rounds=1,
        iterations=1,
    )
    archive("table2_residency", res.render())
    for trace in ("ali", "ten"):
        tracker = res.cells[trace, "residency"].residency
        total_buffer = 0.0
        total_processing = 0.0
        for layer in ResidencyTracker.LAYERS:
            append_us, buffer_us, recycle_us = tracker.mean_us(layer)
            assert tracker.samples(layer) > 0, f"{trace}/{layer} never exercised"
            # Buffer wait exceeds the synchronous append cost everywhere.
            assert buffer_us > append_us
            total_buffer += buffer_us
            total_processing += append_us + recycle_us
        # End-to-end, residency is dominated by buffering, not processing —
        # the Table 2 shape that makes compression feasible (§7).
        assert total_buffer > total_processing
        assert tracker.total_time_us() > 0
