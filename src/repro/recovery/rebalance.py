"""Elastic-membership stripe rebalance (join/decommission under live load).

Placement is a hash-rotated ring over the *current membership*
(:meth:`repro.cluster.Cluster.placement`), so changing the member count
moves nearly every stripe.  A rebalance migrates them **one stripe at a
time**, so at any instant at most one stripe is write-fenced and
foreground ops on every other stripe keep flowing.  Per moving stripe:

1. **Fence** — the stripe is added to ``cluster.migrating_stripes``;
   clients hold *new* foreground ops on it
   (:meth:`Client._migration_wait`), exactly as they fence writes on down
   members.
2. **Quiesce** — wait until the in-flight-op refcount
   (``cluster.note_ops_begin/end``) drains to zero on the stripe, so no
   update straddles the placement flip.
3. **Drain** — recycle all pending log state cluster-wide
   (:func:`repro.harness.experiment.drain_all`): blocks must hold the
   post-log truth before they are copied to new homes.  Then **settle**:
   poll until no member reports the stripe pending
   (:func:`_stripe_has_pending`) — a PARIX recycle's parity patches can
   still be landing when the drain returns.
4. **Gate (pre-copy)** — the stripe must be parity-consistent under the
   *old* placement, else :class:`StripeMigrationError`.
5. **Copy** — for every block whose home changes, the new home pulls the
   block from the old home through the costed recovery read path and
   writes it sequentially, paced by a token bucket of ``rebalance_mbps``
   MiB per virtual second (``0`` = the bucket never waits).  Sparse
   (never-materialised) blocks are skipped: an all-zero block is all-zero
   on the new home too.  Copy width doubles when a copy source's link is
   degraded (the XX-Net multi-connection pattern).
6. **Flip** — a ``cluster.placement_overrides`` entry routes the stripe to
   its new homes in one non-yielding step; stale copies are dropped from
   the old homes.
7. **Gate (post-flip) + unfence** — the stripe must be parity-consistent
   under the *new* placement before its fence lifts.

After the last stripe, :meth:`Cluster.commit_ring` installs the new
membership and clears the per-stripe overrides it subsumes.  No strategy
gets a wholesale ``on_rebuilt()`` reset: every flip ran against a fenced,
quiesced and drained stripe, and unfenced stripes kept updating through
the copy windows — a reset would wipe their live speculation/log state
(pending PARIX deltas, for one) mid-flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.sim.events import AllOf

# Quiesce poll cadence / budget: same scale as the client fence poll —
# cheap against millisecond-scale scenario horizons, and a hard bound so
# a wedged foreground op surfaces as an error instead of a silent hang.
QUIESCE_POLL_S = 5e-4
QUIESCE_BUDGET_S = 60.0


class StripeMigrationError(RuntimeError):
    """A rebalance found (or would have created) an inconsistent stripe."""


@dataclass
class RebalanceResult:
    """Outcome of one membership change (scenario metrics read this)."""

    kind: str  # "join" | "decommission"
    osd: str
    stripes_total: int = 0      # stripes examined
    stripes_migrated: int = 0   # stripes whose placement changed
    blocks_moved: int = 0       # materialised blocks actually copied
    bytes_moved: int = 0
    quiesce_seconds: float = 0.0
    drain_seconds: float = 0.0
    copy_seconds: float = 0.0
    t_start: float = 0.0
    t_end: float = 0.0
    throttle_mbps: float = 0.0    # token-bucket rate granted (0 = unthrottled)
    throttle_wait_s: float = 0.0  # virtual time spent waiting for tokens

    @property
    def total_seconds(self) -> float:
        return self.t_end - self.t_start

    @property
    def mb_moved(self) -> float:
        return self.bytes_moved / (1 << 20)


def rebalance_join(cluster, osd_name: str, rebalance_mbps: float = 0.0):
    """Commit a provisioned OSD (see ``Cluster.add_osd``) into the ring.

    Generator; returns a :class:`RebalanceResult`.  ``rebalance_mbps > 0``
    paces the copy with a token bucket; ``0`` copies unthrottled.
    """
    if osd_name in cluster.ring:
        raise ValueError(f"{osd_name!r} is already a ring member")
    new_ring = list(cluster.ring) + [osd_name]
    result = yield from _rebalance(
        cluster, "join", osd_name, new_ring, rebalance_mbps
    )
    return result


def rebalance_leave(cluster, osd_name: str, rebalance_mbps: float = 0.0):
    """Migrate an OSD's placement away, shrink the ring, stop the node.

    Generator; returns a :class:`RebalanceResult`.  ``rebalance_mbps > 0``
    paces the copy with a token bucket; ``0`` copies unthrottled.
    """
    if osd_name not in cluster.ring:
        raise ValueError(f"{osd_name!r} is not a ring member")
    cfg = cluster.config
    if len(cluster.ring) - 1 < cfg.k + cfg.m:
        raise StripeMigrationError(
            f"cannot decommission {osd_name!r}: the ring would shrink below "
            f"k+m={cfg.k + cfg.m} members"
        )
    if osd_name in cluster.down_osds:
        raise StripeMigrationError(
            f"cannot decommission {osd_name!r} while it is down: its blocks "
            "must be recovered first"
        )
    new_ring = [n for n in cluster.ring if n != osd_name]
    result = yield from _rebalance(
        cluster, "decommission", osd_name, new_ring, rebalance_mbps
    )
    # The leaver is out of placement and fully copied away: take it out of
    # service in the same instant as the flip (no yields since commit).
    victim = cluster.osd_by_name(osd_name)
    victim.strategy.stop_background()
    victim.stop()
    return result


def _poll(sim, done, what: str):
    """Wait at ``QUIESCE_POLL_S`` until ``done()``; past the budget, raise."""
    deadline = sim.now + QUIESCE_BUDGET_S
    while not done():
        if sim.now >= deadline:
            raise StripeMigrationError(f"{what} within {QUIESCE_BUDGET_S}s")
        yield sim.timeout(QUIESCE_POLL_S)


def _stripe_has_pending(cluster, inode: int, stripe: int) -> bool:
    """True if any member OSD's strategy holds unrecycled updates for the
    stripe.

    Every strategy's pending state lives on stripe members: data-side logs
    on the data-block OSD, parity/delta logs and collector buffers on the
    parity OSDs (TSUE's replica DataLog on the ring neighbour holds copies
    only — the primary tracks the truth).  Exact for the six baselines: a
    stripe stays pending from its log append until its recycle's parity
    writes land (``UpdateStrategy.stripe_pending``), so at no kernel step
    of a drain does a lagging stripe read as settled.  Updates still in
    flight before their ack are not pending anywhere; the hard
    consistency gates run post-drain, where nothing is in flight.
    """
    return any(
        cluster.osd_by_name(name).strategy.stripe_pending(inode, stripe)
        for name in cluster.placement(inode, stripe)
    )


def _move_one(cluster, key, src: str, dst: str):
    """Copy one block to its new home; rides out a transiently down source."""
    dst_osd = cluster.osd_by_name(dst)
    rep = yield from dst_osd.rpc_with_retry(
        src, "recovery_read", {"key": key}, nbytes=24
    )
    yield from dst_osd.store.write_block(key, rep["data"], pattern="seq")


# Copy parallelism: conservative by default so foreground traffic keeps
# most of the fabric; doubled (multi-connection, the XX-Net pattern) when a
# copy source's link is degraded, so per-connection slowdown is compensated
# with width instead of letting the token bucket sit idle.
QOS_BASE_PARALLELISM = 4


def _rebalance(
    cluster, kind: str, osd_name: str, new_ring: List[str], rebalance_mbps: float
):
    """Per-stripe fence-copy-flip rebalance (the module docstring's steps).

    The token bucket grants ``rebalance_mbps`` MiB of copy traffic per
    virtual second: each batch waits for its grant before issuing, and the
    accumulated wait is reported as ``throttle_wait_s`` (utilization =
    achieved rate / granted rate).  At ``0`` the bucket never waits.
    Deterministic: the grant clock is pure float arithmetic off
    ``sim.now``, no entropy.
    """
    from repro.harness.experiment import drain_all

    sim = cluster.sim
    cfg = cluster.config
    span = cfg.k * cfg.block_size
    result = RebalanceResult(
        kind=kind, osd=osd_name, t_start=sim.now,
        throttle_mbps=float(rebalance_mbps),
    )

    # Plan: every (inode, stripe) whose member list changes.
    moved: List[Tuple[int, int, List[str], List[str]]] = []
    for inode, meta in sorted(cluster.mds.files.items()):
        for stripe in range(meta.size // span):
            old_names = cluster.placement(inode, stripe)
            new_names = cluster.placement_on(new_ring, inode, stripe)
            result.stripes_total += 1
            if old_names != new_names:
                moved.append((inode, stripe, old_names, new_names))
    result.stripes_migrated = len(moved)

    rate = float(rebalance_mbps) * float(1 << 20)  # bytes / virtual second
    next_grant = sim.now

    try:
        for inode, stripe, old_names, new_names in moved:
            skey = (inode, stripe)
            # Fence + quiesce THIS stripe only.
            cluster.migrating_stripes.add(skey)
            t0 = sim.now
            yield from _poll(
                sim, lambda: cluster.stripes_quiesced((skey,)),
                f"{kind} of {osd_name!r}: foreground ops on stripe {skey} "
                "did not quiesce",
            )
            result.quiesce_seconds += sim.now - t0

            # Drain and settle so blocks hold the post-log truth, then
            # gate under the old placement.
            t0 = sim.now
            yield from drain_all(cluster)
            yield from _poll(
                sim, lambda: not _stripe_has_pending(cluster, inode, stripe),
                f"{kind} of {osd_name!r}: stripe {skey} still pending after "
                "the drain",
            )
            result.drain_seconds += sim.now - t0
            if not cluster.stripe_consistent(inode, stripe):
                raise StripeMigrationError(
                    f"stripe ({inode},{stripe}) inconsistent before {kind} "
                    f"migration — refusing to copy corruption"
                )

            # Copy this stripe's relocated, materialised blocks under the
            # token bucket.
            t0 = sim.now
            copies: List[Tuple[Tuple[int, int, int], str, str]] = []
            for b in range(cfg.k + cfg.m):
                src, dst = old_names[b], new_names[b]
                if src == dst:
                    continue
                key = (inode, stripe, b)
                if cluster.osd_by_name(src).store.peek(key) is None:
                    continue  # sparse: all-zero everywhere by construction
                copies.append((key, src, dst))
            parallelism = QOS_BASE_PARALLELISM
            if any(
                cluster.fabric.link_state(src) is not None
                for _key, src, _dst in copies
            ):
                parallelism *= 2
            pending = list(copies)
            while pending:
                batch = pending[:parallelism]
                del pending[:parallelism]
                if rate > 0.0:
                    start = next_grant if next_grant > sim.now else sim.now
                    if start > sim.now:
                        result.throttle_wait_s += start - sim.now
                        yield start - sim.now
                    next_grant = start + (len(batch) * cfg.block_size) / rate
                procs = [sim.process(_move_one(cluster, *item)) for item in batch]
                yield AllOf(sim, procs)
            result.blocks_moved += len(copies)
            result.bytes_moved += len(copies) * cfg.block_size
            result.copy_seconds += sim.now - t0

            # Flip THIS stripe (non-yielding): overrides route placement to
            # the new homes, stale source copies are pruned, and the
            # post-flip gate runs under the override before the fence lifts.
            cluster.placement_overrides[skey] = list(new_names)
            for key, src, _dst in copies:
                cluster.osd_by_name(src).store.drop(key)
            if not cluster.stripe_consistent(inode, stripe):
                raise StripeMigrationError(
                    f"stripe ({inode},{stripe}) inconsistent after {kind} "
                    f"migration"
                )
            cluster.migrating_stripes.discard(skey)

        # Every stripe is flipped: install the membership (clears the
        # overrides it subsumes) — placement-neutral bookkeeping.
        cluster.commit_ring(new_ring)
    finally:
        cluster.migrating_stripes.difference_update(
            (inode, stripe) for inode, stripe, _, _ in moved
        )
    result.t_end = sim.now
    return result
