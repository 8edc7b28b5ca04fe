#!/usr/bin/env python
"""SSD wear under different update methods (paper §5.3.4).

Run:  python examples/ssd_lifespan.py

Replays the same Ten-Cloud update stream through each method and compares
flash wear: page writes, erase operations, and the projected endurance if
the workload ran continuously — the accounting behind the paper's claim
that TSUE extends SSD lifespan by reducing overwrites and erases.
"""

from repro.harness import ExperimentConfig, run_cells, run_experiment
from repro.metrics.lifespan import endurance_years
from repro.metrics.report import format_table

METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")
DEVICE_BYTES = 400 * 10**9


def main() -> None:
    cfgs = [
        ExperimentConfig(
            method=method,
            trace="ten",
            k=6,
            m=4,
            n_clients=24,
            updates_per_client=100,
            seed=5,
            # Wear depends on sizes only: the ghost plane, no bytes.
            verify=False,
        )
        for method in METHODS
    ]
    rows = []
    wear = {}
    # One cell per method, pooled over the host's cores.
    for method, res in zip(METHODS, run_cells(run_experiment, cfgs)):
        wear[method] = res
        # Endurance if this (short) workload looped forever on one device.
        # The bench workload is an extreme burst (its virtual horizon is
        # well under a second), so endurance at *continuous* burst intensity
        # is short — days; report it in days.
        days = 365.25 * endurance_years(
            _wear_of(res), DEVICE_BYTES, workload_duration_s=res.horizon
        )
        rows.append(
            [method.upper(), res.page_writes, round(res.erase_ops, 1),
             round(res.overwrite_ops), f"{days:.1f}"]
        )
        print(f"  {method}: done")

    print()
    print(
        format_table(
            ["METHOD", "page writes", "erase ops", "overwrites", "endurance (days)"],
            rows,
            title="Flash wear per method (Ten-Cloud, RS(6,4), 16 SSDs)",
        )
    )
    worst = max(wear.values(), key=lambda r: r.erase_ops)
    best = min(wear.values(), key=lambda r: r.erase_ops)
    print(
        f"\nlifespan spread: best ({best.config.method}) outlasts "
        f"worst ({worst.config.method}) by {worst.erase_ops / best.erase_ops:.1f}x"
    )


def _wear_of(res):
    from repro.metrics.counters import WearModel

    w = WearModel()
    w.page_writes = res.page_writes
    w.erase_ops = res.erase_ops
    return w


if __name__ == "__main__":
    main()
