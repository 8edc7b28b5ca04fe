"""Build-run-drain-measure: the one run protocol every driver goes through.

:func:`run_protocol` owns the order of a run (its docstring states it once);
:func:`run_experiment`, ``repro.workload.run_scenario`` and Fig. 8b's
recovery cell are callers that say how clients attach and what to measure.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster, ClusterConfig
from repro.devices.profiles import DeviceProfile
from repro.metrics.counters import GB
from repro.metrics.latency import LatencyRecorder, ResidencyTracker
from repro.net import NET_25GBE, NET_40GIB, NetworkProfile
from repro.recovery import ScrubReport, scrub, watch_and_recover
from repro.sim import AllOf, Simulator
from repro.sim.collector import paused as collector_paused
from repro.sim.rng import RngStreams, payload_bytes
from repro.traces import (
    MSR_VOLUMES,
    TraceReplayer,
    alicloud_trace,
    msr_trace,
    tencloud_trace,
)
from repro.update import make_strategy_factory
from repro.workload.faults import FaultEvent, FaultInjector


@dataclass
class ExperimentConfig:
    """One experiment cell: method x trace x geometry x client count."""

    method: str = "tsue"
    trace: str = "ali"  # "ali" | "ten" | "msr:<volume>"
    k: int = 6
    m: int = 2
    n_osds: int = 16
    n_clients: int = 8
    updates_per_client: int = 100
    block_size: int = 64 * 1024
    # Files are sparse (zero-filled, lazily materialised), so per-client
    # working sets can be realistically large: 64 stripes of RS(6, m) with
    # 64 KiB blocks is 24 MiB of logical data per client.
    stripes_per_file: int = 64
    device_kind: str = "ssd"
    device_profile: Optional[DeviceProfile] = None
    net_profile: Optional[NetworkProfile] = None
    seed: int = 0
    verify: bool = True
    # Accepted and ignored: projected completion is the only time plane.
    # Kept because benchmarks/perf/workloads.py still passes it.
    fast_dataplane: bool = False
    # Ghost payload plane (see repro.dataplane): metadata-only payloads,
    # O(metadata) memory.  Fault/rebuild scenarios need real bytes; the
    # scenario runner rejects the combination.
    ghost_dataplane: bool = False
    # Strategy-specific keyword arguments (TSUE: ``TSUEConfig`` fields).
    strategy_params: Dict[str, Any] = field(default_factory=dict)

    def resolved_net(self) -> NetworkProfile:
        if self.net_profile is not None:
            return self.net_profile
        return NET_25GBE if self.device_kind == "ssd" else NET_40GIB

    @property
    def file_size(self) -> int:
        return self.stripes_per_file * self.k * self.block_size


@dataclass
class ExperimentResult:
    """Everything the paper's evaluation reports, for one cell."""

    config: ExperimentConfig
    n_updates: int
    horizon: float  # virtual seconds until the last update completed
    agg_iops: float
    mean_latency: float
    p99_latency: float
    # Table 1 quantities:
    rw_ops: int
    rw_bytes: int
    overwrite_ops: int
    overwrite_bytes: int
    net_bytes: int
    net_messages: int
    # Lifespan quantities:
    erase_ops: float
    page_writes: int
    # TSUE-only extras (zero/empty otherwise):
    residency: Optional[ResidencyTracker]
    peak_log_memory: int
    # Post-drain consistency verification outcome:
    consistent: Optional[bool]
    update_recorder: LatencyRecorder = field(repr=False, default=None)

    @property
    def net_gb(self) -> float:
        return self.net_bytes / GB

    @property
    def rw_gb(self) -> float:
        return self.rw_bytes / GB

    @property
    def overwrite_gb(self) -> float:
        return self.overwrite_bytes / GB


class InvalidRunError(ValueError):
    """A run's sizes or trace name are invalid; nothing was built."""


# Trace family name -> ``(file_size, n, rng) -> records``.
TRACES: Dict[str, Callable] = {
    "ali": alicloud_trace,
    "ten": tencloud_trace,
    **{f"msr:{vol}": partial(msr_trace, vol) for vol in MSR_VOLUMES},
}


def make_trace(cfg: ExperimentConfig, rng: np.random.Generator, n: Optional[int] = None):
    """Materialise one client's trace for the config's trace family."""
    n = cfg.updates_per_client if n is None else n
    return TRACES[cfg.trace](cfg.file_size, n, rng)


def _strategy_factory(cfg: ExperimentConfig):
    """Build the per-OSD strategy factory with scale-appropriate defaults.

    Experiment runs are minutes of virtual time, not the paper's hour-long
    replays, so log capacities default to a proportional scale: TSUE units
    small enough that real-time recycle genuinely overlaps the measurement
    window, and baseline log thresholds sized so their (deferred or
    synchronous) recycling triggers as often *relative to workload volume*
    as on the real testbed.  Explicit ``strategy_params`` always win.
    """
    params = dict(cfg.strategy_params)
    hdd = cfg.device_kind == "hdd"
    if cfg.method == "tsue":
        # HDD recycling must batch aggressively (every random touch costs a
        # seek-scale service), so units are bigger and flushed less often.
        params.setdefault("unit_bytes", 1024 * 1024 if hdd else 512 * 1024)
        params.setdefault("flush_age", 0.2 if hdd else 0.02)
        params.setdefault("flush_interval", 0.1 if hdd else 0.01)
        if hdd:
            # §5.4: HDD clusters run 3 DataLog copies and no DeltaLog.
            params.setdefault("replicas", 3)
            params.setdefault("use_delta_log", False)
            params.setdefault("n_pools", 1)
    elif cfg.method == "parix" and hdd:
        # HDD clusters sustain far fewer IOPS, so the parity-log space is
        # never exhausted within a run — recycling stays drain-only, as in
        # the paper's HDD tests.
        params.setdefault("recycle_threshold_bytes", 1 << 30)
    elif cfg.method == "plr" and hdd:
        # Reserved regions are sized for seek-bound devices (FAST'14 used
        # chunk-proportional reserves on disks).
        params.setdefault("reserve_bytes", 32 * 1024)
    return make_strategy_factory(cfg.method, **params)


def drain_all(cluster: Cluster):
    """Flush every strategy's logs, phase by phase, cluster-wide (generator).

    Phases are global barriers: cross-OSD forwards emitted by phase N land
    (their RPCs complete inside phase N) before any OSD starts phase N+1.
    """
    sim = cluster.sim
    max_phases = max(osd.strategy.DRAIN_PHASES for osd in cluster.osds)
    for phase in range(max_phases):
        procs = [
            sim.process(osd.strategy.drain(phase))
            for osd in cluster.osds
            if phase < osd.strategy.DRAIN_PHASES
        ]
        if procs:
            yield AllOf(sim, procs)


def build_cluster(cfg: ExperimentConfig) -> Cluster:
    """A fresh simulator + cluster for one cell — the one place outside
    ``repro.cluster`` that constructs a cluster; :func:`run_protocol` calls
    it once per run."""
    sim = Simulator()
    return Cluster(
        sim,
        ClusterConfig(
            n_osds=cfg.n_osds,
            k=cfg.k,
            m=cfg.m,
            block_size=cfg.block_size,
            device_kind=cfg.device_kind,
            device_profile=cfg.device_profile,
            net_profile=cfg.resolved_net(),
            seed=cfg.seed,
            ghost_dataplane=cfg.ghost_dataplane,
        ),
        _strategy_factory(cfg),
    )


def aggregate_update_latency(clients) -> LatencyRecorder:
    """One recorder holding every client's update samples."""
    agg = LatencyRecorder("agg")
    for c in clients:
        agg.completion_times.extend(c.update_latency.completion_times)
        agg.latencies.extend(c.update_latency.latencies)
    return agg


def _host_clock(since: Tuple[float, float] = (0.0, 0.0)) -> Tuple[float, float]:
    """(wall, process CPU) seconds elapsed since an earlier reading — the
    machine-local ``perf`` section's only clock; CPU time stays meaningful
    when a shared box preempts the run."""
    wall = time.perf_counter() - since[0]
    return wall, time.process_time() - since[1]


@dataclass
class Run:
    """One pass of :func:`run_protocol`, as the caller's ``finish`` sees it:
    a driven, drained, stopped cluster and what the drive recorded."""

    cfg: ExperimentConfig
    cluster: Cluster
    workloads: list  # what ``attach`` returned, in client order
    inodes: List[int]  # every file ``attach`` registered
    injector: Optional[FaultInjector]  # the fired schedule (fault runs)
    entry_clock: Tuple[float, float]
    horizon: float = 0.0  # virtual seconds until the last request completed
    recoveries: Sequence = ()  # the watcher's RecoveryResults
    tail: Any = None  # what the tail returned (None for the default drain)
    scrub_report: Optional[ScrubReport] = None  # fault runs: the forced scrub
    drive_host: Tuple[float, float] = (0.0, 0.0)  # (wall, CPU) s inside the drive

    def perf(self, requests: int) -> Dict[str, float]:
        """Machine-local measurement up to this call, never part of a
        simulated row: ``wall_s``/``cpu_s`` span build -> now, the
        ``sim_*`` twins and events/sec only the drive (set-up, teardown and
        gates excluded); peak RSS is the process high-water mark (KiB)."""
        wall, cpu = _host_clock(self.entry_clock)
        sim_wall, sim_cpu = self.drive_host
        events = self.cluster.sim.events_fired
        out = {
            "wall_s": wall,
            "cpu_s": cpu,
            "sim_wall_s": sim_wall,
            "sim_cpu_s": sim_cpu,
            "events": float(events),
            "events_per_sec": events / sim_wall if sim_wall > 0 else 0.0,
            "events_per_cpu_sec": events / sim_cpu if sim_cpu > 0 else 0.0,
            "requests_per_wall_sec": requests / wall if wall > 0 else 0.0,
            "peak_rss_kb": float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        }
        if self.cfg.ghost_dataplane:
            out["ghost_dataplane"] = 1.0
        return out


# Fault runs' OSD heartbeat period; the MDS declares an OSD failed after 4
# missed beats (8 ms), and the recovery watcher polls at the same period.
HEARTBEAT_INTERVAL_S = 0.002


@collector_paused()
def run_protocol(
    cfg: ExperimentConfig,
    attach: Callable[[Cluster, ExperimentConfig], list],
    finish: Callable[[Run], Any],
    faults: Sequence[FaultEvent] = (),
    recovery: bool = False,
    tail: Callable = drain_all,
    what: str = "experiment",
):
    """Run one cell start to finish; a pure function of its arguments.

    The protocol, in order — every run in ``src/`` goes through it:

    1. **validate** — at least one client, requests ``>= 0``, a known trace
       family, no faults on the ghost plane: :class:`InvalidRunError`
       before anything is built.
    2. **build** — ``build_cluster(cfg)``, once, resolved as this module's
       attribute at call time.
    3. **attach** — ``attach(cluster, cfg)`` registers files, adds clients
       and returns one workload driver (anything with ``run()``) per client.
    4. **start** — every host of the cluster boots.
    5. **faults** — given a schedule: a :class:`FaultInjector` over every
       registered inode and, with ``recovery``, OSD heartbeats plus the MDS
       watcher paced by :data:`HEARTBEAT_INTERVAL_S` (detection after 4 of
       them: milliseconds, not the 3 s production default).
    6. **drive** — one process starts the injector, then one process per
       workload; ``horizon`` is the instant the last workload finishes.
    7. **heal** — the schedule finishes and every failure is recovered or
       restored before the drain barrier (a down OSD would wedge it).
    8. **tail** — ``drain_all``: every log recycled (Fig. 8b passes its
       own: there the drain is the quantity measured).
    9. **scrub** — fault runs scrub every stripe the workload could have
       touched, through the real (costed) read path.
    10. **stop**, then **finish** — ``finish(run)``, the caller's gates and
        aggregation, still with automatic garbage collection paused
        (:mod:`repro.sim.collector`) like everything above.

    Frozen surface — ``benchmarks/perf/`` cannot be edited, so none of what
    it imports may move or change shape: this module's ``ExperimentConfig``,
    ``run_experiment``, ``make_trace``, ``aggregate_update_latency`` and
    ``build_cluster`` (wrapped as a module attribute to capture the one
    cluster a run builds), the ``horizon`` / ``n_updates`` / ``consistent``
    fields of :class:`ExperimentResult`, and its :mod:`repro.workload` names.
    """
    if cfg.n_clients < 1:
        raise InvalidRunError(f"need at least 1 client, got {cfg.n_clients}")
    if cfg.updates_per_client < 0:
        raise InvalidRunError(
            f"requests per client must be >= 0, got {cfg.updates_per_client}"
        )
    if cfg.trace not in TRACES:
        raise InvalidRunError(
            f"unknown trace {cfg.trace!r}; known: {', '.join(TRACES)}"
        )
    if faults and cfg.ghost_dataplane:
        raise InvalidRunError(
            f"{what} injects faults; the ghost payload plane cannot serve "
            "scrub/rebuild (real bytes required) — run it on the byte plane"
        )
    entry_clock = _host_clock()
    cluster = build_cluster(cfg)
    sim = cluster.sim
    workloads = attach(cluster, cfg)
    inodes = list(cluster.mds.files)
    cluster.start()

    injector = watcher = watcher_stop = None
    if faults:
        injector = FaultInjector(cluster, inodes, faults)
        if recovery:
            cluster.mds.heartbeat_timeout = 4 * HEARTBEAT_INTERVAL_S
            for osd in cluster.osds:
                osd.start_heartbeat(HEARTBEAT_INTERVAL_S)
            watcher_stop = sim.event(name="watcher-stop")
            watcher = sim.process(
                watch_and_recover(
                    cluster,
                    check_interval=HEARTBEAT_INTERVAL_S,
                    stop=watcher_stop,
                ),
                name="mds-watcher",
            )
    run = Run(cfg, cluster, workloads, inodes, injector, entry_clock)

    def main():
        inj_proc = (
            sim.process(injector.run(), name="fault-injector") if injector else None
        )
        procs = [
            sim.process(w.run(), name=f"workload{i}") for i, w in enumerate(workloads)
        ]
        yield AllOf(sim, procs)
        run.horizon = sim.now
        if injector:
            yield inj_proc
            waited = 0.0
            while cluster.down_osds:
                if waited >= 60.0:
                    raise RuntimeError(
                        f"{what}: OSDs still down after "
                        f"{waited:.0f}s: {sorted(cluster.down_osds)}"
                    )
                yield sim.timeout(1e-3)
                waited += 1e-3
            if watcher is not None:
                watcher_stop.succeed()
                run.recoveries = yield watcher
        run.tail = yield from tail(cluster)
        if injector:
            targets = [
                (inode, s) for inode in inodes for s in range(cfg.stripes_per_file)
            ]
            run.scrub_report = yield from scrub(cluster, targets)

    t0 = _host_clock()
    sim.drive(sim.process(main(), name=what), what)
    run.drive_host = _host_clock(t0)
    cluster.stop()
    return finish(run)


def attach_replayer(cluster: Cluster, cfg: ExperimentConfig, i: int) -> TraceReplayer:
    """Client ``i``'s closed-loop replayer over its (already registered)
    file, inode ``1000 + i``, on RNG streams ``trace{i}`` / ``payload{i}``."""
    client = cluster.add_client(f"client{i}")
    trace = make_trace(cfg, cluster.rng.get(f"trace{i}"))
    return TraceReplayer(client, 1000 + i, trace, cluster.rng.get(f"payload{i}"))


def _attach_sparse(cluster: Cluster, cfg: ExperimentConfig) -> List[TraceReplayer]:
    """One sparse file (no simulated cost) and one replayer per client."""
    replayers = []
    for i in range(cfg.n_clients):
        cluster.register_sparse_file(1000 + i, cfg.file_size)
        replayers.append(attach_replayer(cluster, cfg, i))
    return replayers


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """One closed-loop trace-replay cell through :func:`run_protocol`."""
    return run_protocol(cfg, _attach_sparse, _experiment_result)


def _experiment_result(run: Run) -> ExperimentResult:
    """Shadow-model verification, then everything the paper reports."""
    cfg, cluster, replayers = run.cfg, run.cluster, run.workloads
    consistent: Optional[bool] = None
    if cfg.verify:
        consistent = _verify(cluster, cfg, replayers)

    ops = cluster.total_ops()
    wear = cluster.total_wear()
    net = cluster.total_net()
    agg = aggregate_update_latency(cluster.clients)
    n_updates = sum(r.completed for r in replayers)

    residency = None
    peak_mem = 0
    if cfg.method == "tsue":
        residency = ResidencyTracker()
        for osd in cluster.osds:
            residency = residency.merge(osd.strategy.engine.residency)
            peak_mem += osd.strategy.engine.peak_log_memory_bytes()

    return ExperimentResult(
        config=cfg,
        n_updates=n_updates,
        horizon=run.horizon,
        agg_iops=(n_updates / run.horizon) if run.horizon > 0 else 0.0,
        mean_latency=agg.mean(),
        p99_latency=agg.percentile(99),
        rw_ops=ops.rw_ops,
        rw_bytes=ops.rw_bytes,
        overwrite_ops=ops.overwrite_ops,
        overwrite_bytes=ops.overwrite_bytes,
        net_bytes=net.bytes_sent,
        net_messages=net.messages,
        erase_ops=wear.erase_ops,
        page_writes=wear.page_writes,
        residency=residency,
        peak_log_memory=peak_mem,
        consistent=consistent,
        update_recorder=agg,
    )


def _verify(cluster, cfg, replayers) -> bool:
    """Post-drain: stored stripes must be parity-consistent and match the
    shadow model of every completed update.

    Files start as sparse zeros, so the shadow is built lazily per touched
    block by re-deriving each replayer's deterministic payload stream.

    Ghost plane: there are no bytes to shadow — the check degrades to the
    coverage invariant per touched stripe (``stripe_consistent`` dispatches
    on the plane).
    """
    if cluster.config.ghost_dataplane:
        for r in replayers:
            touched = set()
            for rec in r.records[: r.completed]:
                for ext in cluster.stripe_map.extents(r.inode, rec.offset, rec.size):
                    touched.add(ext.addr.stripe)
            for stripe in touched:
                if not cluster.stripe_consistent(r.inode, stripe):
                    return False
        return True
    # cluster.rng caches its generators; an identical fresh factory replays
    # each replayer's payload stream (``attach_replayer``) from its seed state.
    fresh = RngStreams(cluster.rng.seed)
    for i, r in enumerate(replayers):
        payload_rng = fresh.get(f"payload{i}")
        per_block: Dict[tuple, np.ndarray] = {}
        for rec in r.records[: r.completed]:
            payload = payload_bytes(payload_rng, rec.size)
            pos = 0
            for ext in cluster.stripe_map.extents(r.inode, rec.offset, rec.size):
                key = ext.addr.key()
                blk = per_block.get(key)
                if blk is None:
                    blk = per_block[key] = np.zeros(cfg.block_size, dtype=np.uint8)
                blk[ext.offset : ext.offset + ext.length] = payload[pos : pos + ext.length]
                pos += ext.length
        touched_stripes = set()
        for key, expect in per_block.items():
            inode, stripe, j = key
            touched_stripes.add(stripe)
            names = cluster.placement(inode, stripe)
            got = cluster.osd_by_name(names[j]).store.peek(key)
            if got is None or not np.array_equal(got, expect):
                return False
        for stripe in touched_stripes:
            if not cluster.stripe_consistent(r.inode, stripe):
                return False
    return True
