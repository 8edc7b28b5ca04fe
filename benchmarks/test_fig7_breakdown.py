"""Fig. 7 — the O1..O5 contribution ladder.

Shape (§5.3.3): every step is monotone non-degrading within noise; the log
pool (O3) delivers the largest single jump; the pool-count step (O4)
contributes the least; the DeltaLog (O5) adds a visible (paper: ~30 %)
improvement; and the full ladder lands several times above the baseline.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL, scale
from repro.harness.artifacts import run_fig7

TRACES_M = [("ten", 4), ("ali", 4)] + ([("ten", 2), ("ali", 2), ("ten", 3), ("ali", 3)] if FULL else [])


@pytest.mark.parametrize("trace,m", TRACES_M)
def test_fig7_breakdown(benchmark, archive, trace, m):
    res = benchmark.pedantic(
        run_fig7,
        kwargs=dict(
            trace=trace,
            m=m,
            n_clients=scale(24, 48),
            updates_per_client=scale(100, 300),
        ),
        rounds=1,
        iterations=1,
    )
    archive(f"fig7_breakdown_{trace}_m{m}", res.render())
    by = dict(zip(res.x, res.series["IOPS"]))
    # Full TSUE beats the baseline by a wide margin.
    assert by["O5"] > 2.0 * by["baseline"]
    # O3 (log pool) is the single largest step of the ladder: each step's
    # throughput relative to its predecessor's.
    gains = {
        lab: by[lab] / by[prev] if by[prev] > 0 else float("inf")
        for prev, lab in zip(res.x, res.x[1:])
    }
    assert max(gains, key=gains.get) == "O3"
    # O4 (multi-pool) contributes minimally (the paper's observation that
    # one pool per SSD suffices when memory is tight).
    assert gains["O4"] < 1.15
    # O1 (data-log locality) contributes more than O2 (parity-log locality).
    assert gains["O1"] > gains["O2"]
    # The DeltaLog helps (within 5 % tolerance it must not hurt).
    assert by["O5"] > 0.95 * by["O4"]
