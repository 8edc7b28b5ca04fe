"""Fig. 8b — HDD recovery bandwidth after an update warm-up.

Shape: deferred-log methods (PL/PLR/PARIX) pay a log-drain stall before
reconstruction can start, cutting their effective recovery bandwidth; TSUE
recycles in real time and lands close to FO (no logs at all).  Every
recovery is verified byte-exact inside the harness.
"""

from __future__ import annotations

from benchmarks.conftest import FULL, scale
from repro.harness.fig8 import run_fig8b

VOLS = ("src10", "hm0", "usr0") if FULL else ("src10", "hm0")


def test_fig8b_recovery(benchmark, archive):
    res = benchmark.pedantic(
        run_fig8b,
        kwargs=dict(
            volumes=VOLS,
            n_clients=8,
            updates_per_client=scale(240, 480),
        ),
        rounds=1,
        iterations=1,
    )
    archive("fig8b_recovery", res.render())
    for i, vol in enumerate(res.volumes):
        bw = {m: res.bandwidth_mbps[m][i] for m in res.bandwidth_mbps}
        # FO (no logs at all) sets the ceiling.
        assert max(bw, key=bw.get) == "fo"
        # TSUE is the best of the logging methods — its real-time recycle
        # leaves a small bounded residue, while deferred logs accumulate.
        # (At bench scale the rebuild is 49 ms of work on every method,
        # so even TSUE's 105-153 ms residue drain — HDD, two channels
        # under the drain's waiter — dents the ratio to FO: 37-49 of 153
        # MB/s.  The residue is bounded by the log units, not by the
        # rebuilt volume, so at the paper's node-scale rebuild it vanishes
        # and TSUE ~ FO.  benchmarks/results/rebaseline_pr23_*.md has the
        # per-volume split.)
        for lagger in ("pl", "plr", "parix"):
            assert bw["tsue"] > bw[lagger], f"{lagger} should trail TSUE on {vol}: {bw}"
        # The loss mechanism is the pre-recovery drain, and TSUE's residue
        # is several times smaller than the deferred logs'.
        tsue_drain = res.details["tsue"][i].drain_seconds
        for m in ("pl", "parix"):
            assert res.details[m][i].drain_seconds > 1.4 * tsue_drain
