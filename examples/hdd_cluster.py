#!/usr/bin/env python
"""TSUE on an HDD cluster with MSR-Cambridge workloads (paper §5.4).

Run:  python examples/hdd_cluster.py [--volume hm0]

On seek-bound disks the gap between sequential log appends and in-place
random updates is dramatic.  Per the paper's HDD configuration, TSUE runs
three DataLog copies and disables the DeltaLog (the harness applies this
automatically for ``device_kind="hdd"``).
"""

import argparse

from repro.harness import ExperimentConfig, run_cells, run_experiment
from repro.metrics.report import format_table
from repro.traces import MSR_VOLUMES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--volume", default="hm0", choices=sorted(MSR_VOLUMES))
    ap.add_argument("--clients", type=int, default=16)
    ap.add_argument("--updates", type=int, default=120)
    args = ap.parse_args()

    methods = ("fo", "pl", "plr", "parix", "tsue")
    cfgs = [
        ExperimentConfig(
            method=method,
            trace=f"msr:{args.volume}",
            k=6,
            m=4,
            device_kind="hdd",
            n_clients=args.clients,
            updates_per_client=args.updates,
            seed=9,
            verify=True,
        )
        for method in methods
    ]
    rows = []
    # One cell per method, pooled over the host's cores.
    for method, res in zip(methods, run_cells(run_experiment, cfgs)):
        assert res.consistent, f"{method} inconsistent!"
        rows.append(
            [
                method.upper(),
                round(res.agg_iops),
                round(res.mean_latency * 1e3, 2),
                res.rw_ops,
            ]
        )
        print(f"  {method}: done")

    print()
    print(
        format_table(
            ["METHOD", "IOPS", "mean lat (ms)", "device ops"],
            rows,
            title=f"HDD cluster, MSR volume {args.volume}, RS(6,4)",
        )
    )


if __name__ == "__main__":
    main()
