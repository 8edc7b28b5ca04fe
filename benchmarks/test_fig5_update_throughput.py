"""Fig. 5 — SSD update throughput across RS codes, traces and client counts.

Regenerates all twelve panels.  Validation is on *shape*: TSUE wins every
panel, and its margin over the in-place/deferred baselines grows with m.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FULL, scale
from repro.harness.artifacts import CODES, METHODS, run_fig5

# Quick mode: one client count for every panel plus a sweep on two panels.
PANEL_CLIENTS = (8, 24, 64) if FULL else (24,)
SWEEP_CLIENTS = (8, 24, 64) if FULL else (8, 24)
UPDATES = scale(60, 150)


@pytest.mark.parametrize("trace", ["ali", "ten"])
@pytest.mark.parametrize("k,m", list(CODES))
def test_fig5_panel(benchmark, archive, k, m, trace):
    panel = benchmark.pedantic(
        run_fig5,
        kwargs=dict(k=k, m=m, trace=trace, clients=PANEL_CLIENTS, updates_per_client=UPDATES),
        rounds=1,
        iterations=1,
    )
    archive(f"fig5_rs{k}_{m}_{trace}", panel.render())
    # Shape: TSUE wins at the largest client count of every panel.
    last = {meth: panel.series[meth][-1] for meth in METHODS}
    assert max(last, key=last.get) == "tsue"
    # Shape: PL is the best non-TSUE method (the paper's consistent #2).
    non_tsue = {m_: v for m_, v in last.items() if m_ != "tsue"}
    assert max(non_tsue, key=non_tsue.get) == "pl"


def test_fig5_margin_grows_with_m(benchmark, archive):
    """TSUE/PLR and TSUE/FO ratios must widen from m=2 to m=4 (§5.2)."""

    def run_two():
        p2 = run_fig5(6, 2, "ten", clients=SWEEP_CLIENTS, updates_per_client=UPDATES)
        p4 = run_fig5(6, 4, "ten", clients=SWEEP_CLIENTS, updates_per_client=UPDATES)
        return p2, p4

    p2, p4 = benchmark.pedantic(run_two, rounds=1, iterations=1)
    archive("fig5_sweep_rs6_2_ten", p2.render())
    archive("fig5_sweep_rs6_4_ten", p4.render())
    i = len(SWEEP_CLIENTS) - 1
    for rival in ("fo", "plr"):
        r2 = p2.series["tsue"][i] / p2.series[rival][i]
        r4 = p4.series["tsue"][i] / p4.series[rival][i]
        assert r4 > r2, f"TSUE/{rival} margin should grow with m: {r2:.2f} -> {r4:.2f}"
    # Throughput grows with client count for TSUE.
    assert p4.series["tsue"][-1] > p4.series["tsue"][0]
