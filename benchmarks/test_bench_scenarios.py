"""Scenario smoke bench — the open-loop workload baseline.

Shape: every registered scenario completes, stays parity-consistent, and
genuinely pipelines (iodepth > 1 observed on the clients).  Bursty arrivals
reach a deeper pipeline than steady ones under the same budget, and the
diurnal ramp — which starts at the trough and spends half of each period
well below peak — takes visibly longer than a flat-out peak-rate stream.

The same numbers back the committed ``BENCH_scenarios.json`` baseline
(regenerate with ``python -m repro bench --json``), giving later scaling
PRs a perf trajectory to diff against.
"""

from __future__ import annotations

from benchmarks.conftest import scale
from repro.workload import SCENARIOS, run_bench_cells


def test_bench_scenarios(benchmark, archive):
    cells = benchmark.pedantic(
        run_bench_cells,
        args=([(name, "tsue") for name in sorted(SCENARIOS)],),
        kwargs=dict(
            n_clients=scale(4, 16),
            requests_per_client=scale(200, 1000),
        ),
        rounds=1,
        iterations=1,
    )
    results = list(cells.values())
    archive("scenarios", "\n".join(r.render() for r in results))
    by_name = {r.name: r for r in results}
    for r in results:
        assert r.consistent, f"{r.name} drained inconsistent"
        assert r.updates > 0 and r.iops > 0
        assert r.peak_inflight > 1, f"{r.name} never overlapped updates"
        assert r.p50_latency <= r.p95_latency <= r.p99_latency
    assert by_name["mixed_rw"].reads > 0
    assert by_name["burst"].peak_inflight >= by_name["steady"].peak_inflight
    # Diurnal arrivals average well below their 8k req/s peak, so the run
    # must take clearly longer than a hypothetical flat peak-rate stream.
    diurnal = by_name["diurnal"]
    requests_per_client = diurnal.updates // diurnal.n_clients
    assert diurnal.horizon > 1.5 * (requests_per_client / 8000.0)
