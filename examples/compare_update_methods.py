#!/usr/bin/env python
"""Compare all six update methods on a cloud-trace workload.

Run:  python examples/compare_update_methods.py [--trace ten|ali] [--m 2|3|4]

Replays the same synthetic Ten-Cloud (or Ali-Cloud) update stream through
FO, PL, PLR, PARIX, CoRD and TSUE on identical 16-node SSD clusters and
prints the Fig. 5-style comparison: aggregate IOPS, mean latency, device
operations and network traffic.
"""

import argparse

from repro.harness import ExperimentConfig, run_cells, run_experiment
from repro.metrics.report import format_table

METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", choices=["ten", "ali"], default="ten")
    ap.add_argument("--m", type=int, choices=[2, 3, 4], default=2)
    ap.add_argument("--clients", type=int, default=24)
    ap.add_argument("--updates", type=int, default=100)
    args = ap.parse_args()

    cfgs = [
        ExperimentConfig(
            method=method,
            trace=args.trace,
            k=6,
            m=args.m,
            n_clients=args.clients,
            updates_per_client=args.updates,
            seed=7,
            verify=True,
        )
        for method in METHODS
    ]
    rows = []
    tsue_iops = None
    # One cell per method, pooled over the host's cores.
    for method, res in zip(METHODS, run_cells(run_experiment, cfgs)):
        assert res.consistent, f"{method} left an inconsistent stripe!"
        if method == "tsue":
            tsue_iops = res.agg_iops
        rows.append(
            [
                method.upper(),
                round(res.agg_iops),
                round(res.mean_latency * 1e6, 1),
                res.rw_ops,
                res.overwrite_ops,
                round(res.net_bytes / 1e6, 1),
            ]
        )
        print(f"  {method}: done ({res.n_updates} updates, verified)")

    print()
    print(
        format_table(
            ["METHOD", "IOPS", "mean lat (us)", "R/W ops", "overwrites", "net MB"],
            rows,
            title=f"Update methods on {args.trace}-cloud, RS(6,{args.m}), "
            f"{args.clients} clients",
        )
    )
    print()
    for row in rows:
        if row[0] != "TSUE":
            print(f"TSUE speedup over {row[0]:6s}: {tsue_iops / row[1]:.2f}x")


if __name__ == "__main__":
    main()
