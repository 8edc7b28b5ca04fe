#!/usr/bin/env python
"""Node failure and recovery under active update load.

Run:  python examples/failure_recovery.py [--method tsue|pl|fo]

Warms a cluster up with updates, kills the most-loaded OSD, and recovers
every block it hosted — showing the paper's §2.3.2 point: deferred parity
logs (try ``--method pl``) must be recycled before reconstruction can
begin, while TSUE's real-time recycling leaves almost nothing to drain.
Recovered bytes are verified against the pre-failure content.
"""

import argparse

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.recovery import recover_node
from repro.sim import AllOf, Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 6, 2, 64 * 1024


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--method", default="tsue",
                    choices=["fo", "pl", "plr", "parix", "cord", "tsue"])
    ap.add_argument("--files", type=int, default=4)
    ap.add_argument("--updates", type=int, default=80)
    args = ap.parse_args()

    sim = Simulator()
    params = {}
    if args.method == "tsue":
        params = dict(unit_bytes=256 * 1024, flush_age=0.05, flush_interval=0.02)
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=16, k=K, m=M, block_size=BLOCK, seed=1),
        make_strategy_factory(args.method, **params),
    )

    rng = np.random.default_rng(3)
    file_size = 4 * K * BLOCK  # 4 stripes per file
    clients = []
    for i in range(args.files):
        cluster.instant_load_file(
            100 + i, rng.integers(0, 256, file_size, dtype=np.uint8)
        )
        clients.append(cluster.add_client(f"app{i}"))
    cluster.start()

    def updater(client, inode):
        local = np.random.default_rng(inode)
        for _ in range(args.updates):
            off = int(local.integers(0, file_size - 4096))
            yield from client.update(
                inode, off, local.integers(0, 256, 4096, dtype=np.uint8)
            )

    procs = [
        sim.process(updater(c, 100 + i)) for i, c in enumerate(clients)
    ]
    sim.drive(AllOf(sim, procs), "warm-up")
    print(f"warm-up: {args.files * args.updates} updates completed "
          f"at t={sim.now * 1000:.1f} ms (virtual)")

    victim = max(cluster.osds, key=lambda o: len(o.store)).name
    n_blocks = len(cluster.osd_by_name(victim).store)
    print(f"failing {victim} ({n_blocks} blocks) ...")

    result = recover_node(cluster, victim)
    cluster.stop()

    print(f"log drain before reconstruction: {result.drain_seconds * 1000:8.1f} ms")
    print(f"reconstruction:                  {result.rebuild_seconds * 1000:8.1f} ms")
    print(f"recovered {result.blocks_recovered} blocks "
          f"({result.bytes_recovered / 1e6:.1f} MB) "
          f"at {result.bandwidth_mbps:.1f} MB/s effective")
    print(f"byte-exact: {result.correct}")
    assert result.correct


if __name__ == "__main__":
    main()
