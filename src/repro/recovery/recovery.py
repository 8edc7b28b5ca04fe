"""Node-failure injection and recovery.

The paper's recovery protocol (§2.3.2, §4.2): before reconstructing lost
blocks, *all pending log state must be recycled* into data and parity blocks
— deferred parity logs (PL/PLR/PARIX) therefore stall recovery, while TSUE's
real-time recycle leaves almost nothing to drain and FO has no logs at all.
Fig. 8b reports the resulting effective recovery bandwidth.

Reconstruction itself: for every block the failed OSD hosted, a rebuilder
(the ring-successor OSD) pulls the k lowest-indexed live blocks of the
stripe, decodes, and writes the lost block sequentially.  Recovery then
*restores* the victim: the rebuilt blocks are installed as its replacement
disk and its serving plane restarts, so post-recovery reads find the data
through normal placement again.

Failure modes (see :func:`fail_osd`):

* ``"crash"`` — fail-stop.  In-flight handlers abort (their callers see
  :class:`~repro.fs.messages.HostDownError` and retry), held stripe locks
  are reclaimed, and the node's block contents are considered lost: only
  :func:`recover_node` / :func:`watch_and_recover` bring it back.  A crash
  can tear an in-flight update (data written, some parity delta never
  applied), which is why recovery ends with a parity *repair* pass over
  every stripe the victim participated in (``repair=True``).
* ``"stop"`` — transient outage (maintenance/network blip).  In-flight
  work completes, new connections block until :func:`restore_osd`, and the
  store survives, so no rebuild is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.fs.messages import HostDownError
from repro.recovery.scrub import check_stripe, pull_blocks, windowed
from repro.sim.events import AnyOf

# Blocks rebuilt, and stripes repaired, at once: the sliding window of
# ``windowed`` in phases 2 and 4 of :func:`recover_node_proc`.
RECOVERY_WINDOW = 8

@dataclass
class RecoveryResult:
    """Outcome of one node-recovery run."""

    failed_osd: str
    blocks_recovered: int
    bytes_recovered: int
    drain_seconds: float  # log recycle forced before reconstruction
    rebuild_seconds: float
    correct: bool
    # Keys whose rebuilt bytes differed from the post-drain capture (first
    # few, for diagnosis) — non-empty iff ``correct`` is False.
    mismatched: List[Tuple[int, int, int]] = field(default_factory=list)
    # Post-rebuild parity repair (crash tearing heal): stripes rewritten
    # and the time the verification+rewrite pass took.
    parity_repaired: int = 0
    repair_seconds: float = 0.0
    started_at: float = 0.0  # recovery began; the outage before it is detection

    @property
    def total_seconds(self) -> float:
        return self.drain_seconds + self.rebuild_seconds + self.repair_seconds

    @property
    def bandwidth_mbps(self) -> float:
        """Effective recovery bandwidth in MB/s (includes drain stall).

        Fig. 8b's quantity: reconstruction volume over drain + rebuild time
        (the optional repair pass is method-independent and excluded).
        """
        denom = self.drain_seconds + self.rebuild_seconds
        if denom <= 0:
            return 0.0
        return self.bytes_recovered / denom / (1 << 20)


def fail_osd(cluster: Cluster, name: str, mode: str = "crash") -> None:
    """Take one OSD offline and mark it down cluster-wide.

    ``mode="crash"`` is fail-stop (handlers aborted, stripe locks reclaimed,
    callers failed); ``mode="stop"`` is a transient outage (in-flight work
    completes, callers block until :func:`restore_osd`).  Either way reads
    for its blocks go through the client degraded-read path and updates
    touching its stripes fence until the OSD is back.
    """
    if mode not in ("crash", "stop"):
        raise ValueError(f"unknown failure mode {mode!r}")
    cluster.mark_down(name)
    osd = cluster.osd_by_name(name)
    if mode == "crash":
        osd.crash()
    else:
        osd.stop()


def restore_osd(cluster: Cluster, name: str) -> None:
    """Bring a transiently-stopped OSD back and lift its fences.

    For crash-mode failures use :func:`recover_node` instead — a crashed
    node's blocks must be rebuilt, not just re-served.
    """
    osd = cluster.osd_by_name(name)
    osd.restart()
    cluster.mds.last_heartbeat[name] = cluster.sim.now
    cluster.mark_up(name)


def watch_and_recover(cluster: Cluster, check_interval: float = 0.5, stop=None):
    """MDS-driven recovery loop (a process body).

    Boot per-OSD heartbeats (``osd.start_heartbeat(...)``), start this
    watcher, and it recovers *every* OSD whose heartbeat lapses — including
    failures that arrive while an earlier rebuild is still in progress,
    which are picked up on the next pass instead of being silently dropped.
    Every recovery ends with the parity repair pass (a crash can tear an
    in-flight update).
    Runs until the ``stop`` event fires (forever when ``stop`` is None) and
    returns the list of :class:`RecoveryResult`.
    """
    sim = cluster.sim
    results: List[RecoveryResult] = []
    # Give every OSD a chance to heartbeat at least once.
    yield sim.timeout(check_interval)
    while stop is None or not stop.triggered:
        failed = [
            name
            for name in cluster.mds.failed_osds()
            if name in cluster.down_osds
        ]
        if failed:
            result = yield from recover_node_proc(cluster, failed[0], repair=True)
            results.append(result)
            continue  # re-check immediately: more may have failed meanwhile
        if stop is not None:
            yield AnyOf(sim, [sim.timeout(check_interval), stop])
        else:
            yield sim.timeout(check_interval)
    return results


def recover_node(
    cluster: Cluster, failed_osd: str, repair: bool = False
) -> RecoveryResult:
    """Fail one OSD and reconstruct everything it hosted (driver form).

    Runs the cluster's simulator until recovery completes and returns the
    result; use :func:`recover_node_proc` to embed recovery inside a
    larger simulation instead.
    """
    sim = cluster.sim
    proc = sim.process(
        recover_node_proc(cluster, failed_osd, repair=repair), name="recover-node"
    )
    return sim.drive(proc, "recovery")


def recover_node_proc(cluster: Cluster, failed_osd: str, repair: bool = False):
    """Process body: drain logs, reconstruct, restore, optionally repair.

    Phases:

    1. **Drain** — every pending log entry cluster-wide recycles into data
       and parity blocks (§2.3.2).  The failed node's DataLog/DeltaLog
       contents survive in their replicas on ring neighbours, so the drain
       can always complete; we model the replica-driven drain by reviving
       the serving plane of *every* down OSD for the duration (a reviver
       process also catches OSDs that crash mid-recovery, so drain traffic
       retrying against them unblocks).  Block contents of the victim are
       still dropped below before reconstruction.
    2. **Rebuild** — the ring-successor pulls k live blocks per lost block
       (excluding every currently-down OSD, so an m>1 double fault still
       decodes), reconstructs, and writes sequentially, a sliding window
       of :data:`RECOVERY_WINDOW` blocks in flight.  Sources that crash
       mid-pull are dropped and the pull retried against the survivors.
    3. **Restore** — the rebuilt blocks are installed as the victim's
       replacement disk, its serving plane/heartbeat restart, and its
       down-mark clears, so placement-directed reads work again.
    4. **Repair** (``repair=True``; failure scenarios use this) — every
       stripe the victim participated in is read back by one of its own
       members and its parity re-encoded from data where it mismatches,
       :data:`RECOVERY_WINDOW` stripes at a time.  A crash can tear an
       in-flight update (data written, one parity's delta lost with the
       dead node); the client retries the update, but its recomputed delta
       is zero once the data bytes match, so only re-encoding heals the
       stripe.  Runs *before* the down-mark clears, while the stripes are
       still write-fenced.

    ``correct`` compares the rebuilt bytes with the victim's blocks as
    captured after the drain (``mismatched`` names up to 8 that differ).
    Scenarios compute it and then ignore it, and it cannot be a gate as it
    stands: the capture is the truth only when no update straddles the
    crash.  On ``rebuild_under_load`` and ``double_fault`` (7 methods,
    seeds 1-3) 11 of 63 recoveries read ``correct=False``: 10 parity
    blocks, and one PARIX data block (``double_fault`` seed 1, key
    ``(1000, 1, 2)``) whose three in-flight updates completed after the
    recovery (``docs/faults.md``, "Recovery timeline").
    """
    # Imported here: repro.harness.experiment imports this package, so a
    # top-level import would be circular.
    from repro.harness.experiment import drain_all

    sim = cluster.sim
    victim = cluster.osd_by_name(failed_osd)
    reviver_stop = sim.event(name="reviver-stop")
    reviver = sim.process(
        _revive_down_serving_planes(cluster, reviver_stop),
        name=f"revive-for-drain:{failed_osd}",
    )
    rebuilder = cluster.osd_by_name(cluster.replica_of(failed_osd))

    try:
        # --------------------------------------------------------------
        # Phase 1: recycle all logs (consistency requirement, §2.3.2).
        # --------------------------------------------------------------
        t_start = sim.now
        yield from drain_all(cluster)
        # Capture post-drain truth (what reconstruction must reproduce),
        # then drop the victim's blocks.
        truth = {key: victim.store.peek(key).copy() for key in victim.store}
        for key in truth:
            victim.store.drop(key)
        drain_seconds = sim.now - t_start

        # --------------------------------------------------------------
        # Phase 2: reconstruct, RECOVERY_WINDOW blocks at a time.
        # --------------------------------------------------------------
        t_rebuild = sim.now
        keys = sorted(truth.keys())
        k = cluster.config.k
        m = cluster.config.m

        def rebuild_one(key):
            inode, stripe, lost_index = key
            names = cluster.placement(inode, stripe)
            while True:
                # Pull the k lowest-indexed blocks that are actually live —
                # a second fault during rebuild must not be used as (or
                # wedge on) a source.
                sources = [
                    (b, names[b])
                    for b in range(k + m)
                    if names[b] != failed_osd and names[b] not in cluster.down_osds
                ][:k]
                if len(sources) < k:
                    raise RuntimeError(
                        f"stripe ({inode},{stripe}) has only {len(sources)} "
                        f"live blocks; unrecoverable with k={k}"
                    )
                try:
                    replies = yield pull_blocks(rebuilder, inode, stripe, sources)
                    break
                except HostDownError:
                    # A source died mid-pull; re-plan against the survivors.
                    yield sim.timeout(1e-3)
            shards = {b: rep["data"] for (b, _), rep in zip(sources, replies)}
            rebuilt = cluster.codec.reconstruct(shards, [lost_index])[lost_index]
            yield from rebuilder.store.write_block(key, rebuilt, pattern="seq")
            return key, rebuilt

        jobs = [rebuild_one(key) for key in keys]
        results: Dict[Tuple[int, int, int], np.ndarray] = dict(
            (yield from windowed(sim, jobs, RECOVERY_WINDOW))
        )
        rebuild_seconds = sim.now - t_rebuild

        mismatched: List[Tuple[int, int, int]] = []
        for key, expect in sorted(truth.items()):
            got = results.get(key)
            if got is None or not np.array_equal(got, expect):
                mismatched.append(key)
                if len(mismatched) >= 8:
                    break

        # --------------------------------------------------------------
        # Phase 3: restore — the rebuilt blocks become the victim's
        # replacement disk and it rejoins the cluster.
        # --------------------------------------------------------------
        # The rebuilder's staging copies are dropped so it does not hold
        # stale duplicates of keys placement maps to the victim (they would
        # poison its own truth capture if it failed later).
        for key, blk in results.items():
            victim.store.install(key, blk)
            rebuilder.store.drop(key)
        victim.strategy.on_rebuilt()
        victim.restart()

        # --------------------------------------------------------------
        # Phase 4: parity repair over every stripe the victim touches.
        # --------------------------------------------------------------
        repaired = 0
        repair_seconds = 0.0
        if repair:
            t_repair = sim.now
            repaired = yield from _repair_stripes(cluster, failed_osd)
            repair_seconds = sim.now - t_repair

        cluster.mds.last_heartbeat[failed_osd] = sim.now
        cluster.mark_up(failed_osd)
    finally:
        if not reviver_stop.triggered:
            reviver_stop.succeed()
        yield reviver

    return RecoveryResult(
        failed_osd=failed_osd,
        blocks_recovered=len(keys),
        bytes_recovered=len(keys) * cluster.config.block_size,
        drain_seconds=drain_seconds,
        rebuild_seconds=rebuild_seconds,
        correct=not mismatched,
        mismatched=mismatched,
        parity_repaired=repaired,
        repair_seconds=repair_seconds,
        started_at=t_start,
    )


def _revive_down_serving_planes(cluster: Cluster, stop):
    """Keep down OSDs' serving planes alive while recovery drains.

    §4.2: a dead node's log contents survive in replicas on ring
    neighbours, so drain traffic addressed to it can always be absorbed.
    We model that by (re)starting the RPC host + recyclers of every
    *crashed* OSD currently marked down — including ones that crash
    *during* an ongoing recovery, which would otherwise deadlock the drain
    barrier.  Stop-mode (transient) outages are left alone: their contract
    is that callers block until :func:`restore_osd`, and their logs are
    merely unreachable, not lost.  The revived OSDs stay marked down:
    clients keep fencing and degrading around them.
    """
    sim = cluster.sim
    while not stop.triggered:
        for name in sorted(cluster.down_osds):
            osd = cluster.osd_by_name(name)
            if osd.crashed and not osd.running:
                osd.start()
                osd.strategy.start_background()
        yield AnyOf(sim, [sim.timeout(1e-3), stop])


def _repair_stripes(
    cluster: Cluster, failed_osd: str, parallelism: int = RECOVERY_WINDOW
):
    """Verify-and-rewrite parity of every stripe ``failed_osd`` is in:
    one ``check_stripe(rewrite=True)`` each (all k+m blocks read, costed,
    by a member of the stripe), ``parallelism`` stripes at a time.
    Returns the number of stripes repaired (generator).
    """
    sim = cluster.sim
    span = cluster.config.k * cluster.config.block_size

    def heal(inode, stripe):
        while True:
            try:
                bad = yield from check_stripe(cluster, inode, stripe, rewrite=True)
                return bool(bad)
            except HostDownError:
                # A member crashed mid-repair.  The reviver (running for
                # the whole recovery) brings its serving plane back, so
                # retry this stripe; the fresh crash victim gets its own
                # drain + repair pass when it is recovered next.
                yield sim.timeout(1e-3)

    jobs = [
        heal(inode, stripe)
        for inode, meta in sorted(cluster.mds.files.items())
        for stripe in range(meta.size // span)
        if failed_osd in cluster.placement(inode, stripe)
    ]
    return sum((yield from windowed(sim, jobs, parallelism)))
