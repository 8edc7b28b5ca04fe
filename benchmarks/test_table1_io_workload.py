"""Table 1 — storage workload and network traffic, Ten-Cloud RS(6,4).

Shape: TSUE has by far the fewest overwrite (write-penalty) operations and
fewer read/write operations than the in-place family; CoRD has the lowest
network traffic with TSUE close behind; PARIX tops network traffic (it
ships full data to every parity log, twice for cold locations).
"""

from __future__ import annotations

from benchmarks.conftest import scale
from repro.harness.artifacts import run_table1


def test_table1_io_workload(benchmark, archive):
    res = benchmark.pedantic(
        run_table1,
        kwargs=dict(n_clients=scale(24, 48), updates_per_client=scale(100, 300)),
        rounds=1,
        iterations=1,
    )
    archive("table1_io_workload", res.render())
    # Every column of a row reduces the same run.
    r = {x.lower(): res.cells[x, "NET GB"] for x in res.x}
    # TSUE: fewest overwrites, by a lot (paper: 8 % of FO's).
    assert r["tsue"].overwrite_ops == min(x.overwrite_ops for x in r.values())
    assert r["tsue"].overwrite_ops < 0.4 * r["fo"].overwrite_ops
    # TSUE performs fewer device ops than PL (paper: ~20 %).
    assert r["tsue"].rw_ops < 0.7 * r["pl"].rw_ops
    # CoRD minimises network traffic; TSUE is within ~2x of it.
    assert r["cord"].net_bytes == min(x.net_bytes for x in r.values())
    assert r["tsue"].net_bytes < 2.0 * r["cord"].net_bytes
    # PARIX ships the most bytes over the network.
    assert r["parix"].net_bytes == max(x.net_bytes for x in r.values())
