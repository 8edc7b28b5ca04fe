"""Fig. 8a — HDD update throughput over the MSR volumes, RS(6,4).

Shape: TSUE highest on every volume by a wide margin (its critical path is
sequential, the others seek); FO the worst (all-random, all-synchronous);
PARIX the best of the baselines (it skips the read-before-write seek).
"""

from __future__ import annotations

from benchmarks.conftest import FULL, scale
from repro.harness.artifacts import MSR_VOLS, run_fig8a

VOLS = MSR_VOLS if FULL else ("src10", "proj2", "hm0", "mds0")


def test_fig8a_hdd_throughput(benchmark, archive):
    res = benchmark.pedantic(
        run_fig8a,
        kwargs=dict(
            volumes=VOLS,
            n_clients=scale(16, 32),
            updates_per_client=scale(160, 320),
        ),
        rounds=1,
        iterations=1,
    )
    archive("fig8a_hdd_throughput", res.render())
    for i, vol in enumerate(res.x):
        per_vol = {m: res.series[m][i] for m in res.series}
        assert max(per_vol, key=per_vol.get) == "tsue", f"TSUE must win on {vol}"
        assert min(per_vol, key=per_vol.get) == "fo", f"FO must be slowest on {vol}"
        assert per_vol["tsue"] > 2 * per_vol["parix"]
        # PARIX is at (or within 15 % of) the top of the baselines.
        baselines = {m: v for m, v in per_vol.items() if m != "tsue"}
        assert per_vol["parix"] > 0.85 * max(baselines.values())
