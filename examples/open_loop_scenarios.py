#!/usr/bin/env python
"""Open-loop workloads: from one pipelined client to the scenario registry.

The seed repo's replayer was strictly closed-loop (one outstanding update
per client).  This example shows the workload subsystem that replaces it:

1. a single client driven open-loop at iodepth 8 with Poisson arrivals,
   showing in-flight updates genuinely overlapping;
2. the same cluster under an ON/OFF bursty arrival process;
3. the scenario registry — the one-liner equivalent of all of the above —
   reporting throughput and p50/p95/p99 update latency per scenario.

Run:  PYTHONPATH=src python examples/open_loop_scenarios.py
"""

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.traces import tencloud_trace
from repro.update import make_strategy_factory
from repro.workload import (
    SCENARIOS,
    OnOffArrivals,
    OpenLoopGenerator,
    PoissonArrivals,
    WorkloadSpec,
    run_bench_cells,
)


def drive(title, spec):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=4, m=2, block_size=32 * 1024, seed=1),
        make_strategy_factory(
            "tsue", unit_bytes=256 * 1024, flush_age=0.02, flush_interval=0.01
        ),
    )
    inode, file_size = 1000, 8 * 4 * 32 * 1024
    cluster.register_sparse_file(inode, file_size)
    client = cluster.add_client("client0")
    trace = tencloud_trace(file_size, spec.n_requests, cluster.rng.get("trace"))
    gen = OpenLoopGenerator(client, [(inode, trace)], cluster.rng.get("w"), spec)
    cluster.start()

    def main():
        yield sim.process(gen.run())
        yield from drain_all(cluster)

    sim.drive(sim.process(main()), title)
    cluster.stop()

    s = client.update_latency.summary()
    print(f"{title}")
    print(f"  completed {gen.completed} updates in {sim.now * 1e3:,.1f} ms "
          f"(peak {client.peak_inflight_updates} in flight)")
    print(f"  latency p50/p95/p99: {s['p50'] * 1e6:,.0f} / "
          f"{s['p95'] * 1e6:,.0f} / {s['p99'] * 1e6:,.0f} us")
    print(f"  parity consistent: "
          f"{all(cluster.stripe_consistent(inode, st) for st in range(8))}\n")


if __name__ == "__main__":
    drive(
        "open loop, Poisson 5k req/s, iodepth 8",
        WorkloadSpec(arrivals=PoissonArrivals(5000.0), n_requests=300, iodepth=8),
    )
    drive(
        "open loop, ON/OFF bursts (15k req/s bursts), iodepth 16",
        WorkloadSpec(
            arrivals=OnOffArrivals(burst_rate=15000.0, on_s=0.02, off_s=0.04),
            n_requests=300,
            iodepth=16,
        ),
    )
    print("scenario registry (repro bench):")
    rows = [(name, "tsue") for name in sorted(SCENARIOS)]
    for res in run_bench_cells(rows, requests_per_client=100).values():
        print(res.render())
