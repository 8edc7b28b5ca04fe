"""Fig. 8 — the HDD cluster evaluation (§5.4).

* **Fig. 8a**: update throughput over seven MSR-Cambridge volumes for
  FO/PL/PLR/PARIX/TSUE under RS(6,4).  Per §5.4, TSUE on HDDs runs 3
  DataLog copies and no DeltaLog (the harness applies that automatically
  for ``device_kind="hdd"``).
* **Fig. 8b**: recovery bandwidth after a node failure following an update
  warm-up — deferred logs (PL/PLR/PARIX) must drain before reconstruction,
  cutting their effective bandwidth; TSUE sits near FO (no logs pending).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.harness.experiment import (
    ExperimentConfig,
    attach_replayer,
    run_experiment,
    run_protocol,
)
from repro.metrics.report import format_series
from repro.recovery import RecoveryResult, recover_node_proc

HDD_METHODS = ("fo", "pl", "plr", "parix", "tsue")
MSR_VOLS = ("src10", "src22", "proj2", "prn1", "hm0", "usr0", "mds0")


@dataclass
class Fig8aResult:
    volumes: List[str]
    iops: Dict[str, List[float]]  # method -> per-volume IOPS

    def render(self) -> str:
        return format_series(
            self.iops, self.volumes, "volume",
            title="Fig.8a HDD update throughput, MSR volumes, RS(6,4)",
        )


def run_fig8a(
    volumes: Sequence[str] = MSR_VOLS,
    methods: Sequence[str] = HDD_METHODS,
    n_clients: int = 24,
    updates_per_client: int = 240,
    seed: int = 23,
) -> Fig8aResult:
    iops: Dict[str, List[float]] = {m: [] for m in methods}
    for vol in volumes:
        for method in methods:
            cfg = ExperimentConfig(
                method=method,
                trace=f"msr:{vol}",
                k=6,
                m=4,
                device_kind="hdd",
                n_clients=n_clients,
                updates_per_client=updates_per_client,
                seed=seed,
                verify=False,
            )
            iops[method].append(run_experiment(cfg).agg_iops)
    return Fig8aResult(volumes=list(volumes), iops=iops)


@dataclass
class Fig8bResult:
    volumes: List[str]
    bandwidth_mbps: Dict[str, List[float]]
    details: Dict[str, List[RecoveryResult]]

    def render(self) -> str:
        return format_series(
            self.bandwidth_mbps, self.volumes, "volume",
            title="Fig.8b HDD recovery bandwidth (MB/s) after update warm-up",
        )


def run_fig8b(
    volumes: Sequence[str] = ("src10", "hm0", "usr0"),
    methods: Sequence[str] = HDD_METHODS,
    n_clients: int = 8,
    updates_per_client: int = 240,
    seed: int = 29,
) -> Fig8bResult:
    bw: Dict[str, List[float]] = {m: [] for m in methods}
    details: Dict[str, List[RecoveryResult]] = {m: [] for m in methods}
    for vol in volumes:
        for method in methods:
            res = _recovery_run(vol, method, n_clients, updates_per_client, seed)
            bw[method].append(res.bandwidth_mbps)
            details[method].append(res)
    return Fig8bResult(volumes=list(volumes), bandwidth_mbps=bw, details=details)


def _recovery_run(
    vol: str, method: str, n_clients: int, updates_per_client: int, seed: int
) -> RecoveryResult:
    """Warm up with updates, then fail one OSD and recover it.

    Files are *materialised* (not sparse) so the failed OSD really hosts
    its full share of blocks: recovery bandwidth is then dominated by
    reconstruction volume, with the pre-recovery log drain showing up as
    the per-method difference — the paper's Fig. 8b setting, where a
    3-minute warm-up precedes recovering a whole node.
    """
    cfg = ExperimentConfig(
        method=method,
        trace=f"msr:{vol}",
        k=6,
        m=4,
        device_kind="hdd",
        n_clients=n_clients,
        updates_per_client=updates_per_client,
        stripes_per_file=24,
        seed=seed,
        verify=False,
    )
    if method == "tsue":
        # Real-time recycle at its tightest: at node scale the rebuild
        # dwarfs any residue, which a short bench run can only approximate
        # by keeping the residue minimal.
        cfg.strategy_params = dict(
            unit_bytes=128 * 1024, flush_age=0.01, flush_interval=0.005
        )
    result = run_protocol(
        cfg, _attach_materialised, lambda run: run.tail,
        tail=_fail_most_loaded, what="fig8 replay",
    )
    if not result.correct:
        raise AssertionError(f"recovery produced wrong bytes ({method}, {vol})")
    return result


def _attach_materialised(cluster, cfg):
    """One fully written file (stream ``load``) and one replayer per client."""
    load_rng = cluster.rng.get("load")
    replayers = []
    for i in range(cfg.n_clients):
        content = load_rng.integers(0, 256, cfg.file_size, dtype="uint8")
        cluster.instant_load_file(1000 + i, content)
        replayers.append(attach_replayer(cluster, cfg, i))
    return replayers


def _fail_most_loaded(cluster):
    """The run's tail: fail the OSD storing the most blocks (a deterministic
    choice) and recover it — log drain included, it is what Fig. 8b measures."""
    victim = max(cluster.osds, key=lambda o: len(o.store)).name
    return (yield from recover_node_proc(cluster, victim, verify=True))
