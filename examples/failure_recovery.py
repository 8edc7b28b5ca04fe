#!/usr/bin/env python
"""Node failure and recovery under active update load.

Run:  python examples/failure_recovery.py [--method tsue|pl|fo]

Warms a cluster up with updates, kills the most-loaded OSD, and recovers
every block it hosted — showing the paper's §2.3.2 point: deferred parity
logs (try ``--method pl``) must be recycled before reconstruction can
begin, while TSUE's real-time recycling leaves almost nothing to drain.
This is Fig. 8b's cell (``repro.harness.artifacts.run_recovery``) on SSDs.
The run ends with the acked-update oracle: every data byte is held against
the preloaded files and the acked updates, and a lost or wrong byte raises
``LostUpdateError`` naming its block and offset.
"""

import argparse

from repro.harness.artifacts import run_recovery
from repro.harness.experiment import ExperimentConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--method", default="tsue",
                    choices=["fo", "pl", "plr", "parix", "cord", "tsue"])
    ap.add_argument("--files", type=int, default=4)
    ap.add_argument("--updates", type=int, default=80)
    args = ap.parse_args()

    params = {}
    if args.method == "tsue":
        params = dict(unit_bytes=256 * 1024, flush_age=0.05, flush_interval=0.02)
    result = run_recovery(ExperimentConfig(
        method=args.method, trace="ali", k=6, m=2, n_osds=16,
        n_clients=args.files, updates_per_client=args.updates,
        stripes_per_file=4, seed=1, strategy_params=params,
    ))

    print(f"warm-up: {args.files * args.updates} updates, then "
          f"{result.failed_osd} failed")
    print(f"log drain before reconstruction: {result.drain_seconds * 1000:8.1f} ms")
    print(f"reconstruction:                  {result.rebuild_seconds * 1000:8.1f} ms")
    print(f"recovered {result.blocks_recovered} blocks "
          f"({result.bytes_recovered / 1e6:.1f} MB) "
          f"at {result.bandwidth_mbps:.1f} MB/s effective")
    print("byte-exact: every data byte holds its last acked update")


if __name__ == "__main__":
    main()
