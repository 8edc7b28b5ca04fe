#!/usr/bin/env python
"""Quickstart: build an ECFS cluster with TSUE, update a file, read it back.

Run:  python examples/quickstart.py

Walks the core API end to end:
1. build a 16-OSD SSD cluster running the TSUE update strategy;
2. create a file and write a full stripe through the client;
3. issue small random updates (the paper's measured path);
4. read the data back — served from TSUE's log read-cache;
5. drain the logs and verify parity consistency byte-for-byte.
"""

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M = 6, 2
BLOCK = 64 * 1024
INODE = 1


def main() -> None:
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=16, k=K, m=M, block_size=BLOCK, seed=0),
        make_strategy_factory(
            "tsue", unit_bytes=256 * 1024, flush_age=0.05, flush_interval=0.02
        ),
    )
    client = cluster.add_client("app")
    cluster.start()

    rng = np.random.default_rng(7)
    stripe_bytes = K * BLOCK
    initial = rng.integers(0, 256, stripe_bytes, dtype=np.uint8)

    def workload():
        # 1. create + full-stripe write (encode at the client, distribute).
        yield from client.create(INODE, stripe_bytes)
        yield from client.write(INODE, 0, initial)
        print(f"wrote one RS({K},{M}) stripe of {stripe_bytes // 1024} KiB")

        # 2. small random updates: appended to the DataLog, acked fast.
        for i in range(50):
            offset = int(rng.integers(0, stripe_bytes - 4096))
            payload = rng.integers(0, 256, 4096, dtype=np.uint8)
            yield from client.update(INODE, offset, payload)
        mean_us = client.update_latency.mean() * 1e6
        print(f"50 updates acked, mean latency {mean_us:.0f} us (virtual)")

        # 3. read-your-writes straight from the log cache.
        probe_off = int(rng.integers(0, stripe_bytes - 64))
        got = yield from client.read(INODE, probe_off, 64)
        print(f"read 64 B @ {probe_off}: first bytes {list(got[:4])}")

    sim.drive(sim.process(workload()), "workload")

    # 4. drain the three-layer log pipeline, then verify.
    sim.drive(sim.process(drain_all(cluster)), "drain")
    cluster.stop()

    ok = cluster.stripe_consistent(INODE, 0)
    print(f"stripe parity consistent after drain: {ok}")
    ops = cluster.total_ops()
    print(
        f"device ops: {ops.rw_ops} total, {ops.overwrite_ops} overwrites; "
        f"network: {cluster.total_net().bytes_sent / 1e6:.2f} MB"
    )
    assert ok


if __name__ == "__main__":
    main()
