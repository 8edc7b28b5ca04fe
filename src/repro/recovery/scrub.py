"""Background parity scrubbing.

A scrubber walks stripes, reads each stripe's blocks (sequential
whole-block reads, costed on the devices), re-encodes the data blocks and
compares against stored parity — :func:`check_stripe`, the one copy of
that step (the post-crash parity repair maps it too), run through the one
sliding window, :func:`windowed`.  EC file systems run this continuously to
catch latent corruption (bit rot, torn writes); it also doubles as an
online version of :meth:`repro.cluster.Cluster.stripe_consistent`, the
cost-free drain gate of fault-free runs.

A scrub checks what the blocks hold now: run it on drained stripes, since
parity legitimately lags pending log state under every logging method and
such a stripe reports a mismatch.  Stripes with a down member are skipped
(their blocks cannot all be read), and every skip is reported by key in
:attr:`ScrubReport.skipped` so operators can re-scrub exactly those.

Fault runs use a scrub as the post-recovery gate, and as the drain gate:
after recovery, repair and the drain, every stripe must scrub clean.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.fs.messages import HostDownError
from repro.sim.events import AllOf


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    stripes_checked: int = 0
    mismatches: List[Tuple[int, int]] = field(default_factory=list)  # (inode, stripe)
    skipped: List[Tuple[int, int]] = field(default_factory=list)
    bytes_read: int = 0
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.mismatches


def windowed(sim, jobs, parallelism: int):
    """Run the generators ``jobs`` with at most ``parallelism`` in flight
    (generator; returns their results in job order).  A sliding window, not
    batches: a finished job admits the next.  The first job to raise ends
    the window — nothing more is admitted and the exception propagates."""
    todo = deque(enumerate(jobs))
    results = [None] * len(todo)

    def lane():
        while todo:
            i, job = todo.popleft()
            try:
                results[i] = yield from job
            except BaseException:
                todo.clear()
                raise

    yield AllOf(sim, [sim.process(lane()) for _ in range(min(parallelism, len(todo)))])
    return results


def pull_blocks(reader, inode: int, stripe: int, sources):
    """``reader`` pulls the blocks ``sources`` (``(index, OSD name)``
    pairs) of one stripe, in parallel, through the costed recovery read
    path (generator; returns the blocks in ``sources`` order)."""
    return reader.fan_out(
        (name, "recovery_read", ((inode, stripe, b),)) for b, name in sources
    )


def check_stripe(cluster: Cluster, inode: int, stripe: int, rewrite: bool = False):
    """Is this stripe's parity what its data encodes to?  (generator;
    returns the indices of the parity blocks that are not.)

    Runs where the data is: a *member of the stripe* — its first parity
    holder, else the next running member in parity-then-data order — pulls
    all k+m blocks in parallel through the costed recovery read path (its
    own through the same handler: the device read is paid, the local
    transfer is free), re-encodes, compares and, with ``rewrite``,
    overwrites each bad parity block.  Placement rotates per stripe, so
    coordinators spread over the ring.  One attempt: ``HostDownError``
    (no running member, or one crashed under the check) is the caller's.
    """
    k, m = cluster.config.k, cluster.config.m
    names = cluster.placement(inode, stripe)
    members = (cluster.osd_by_name(names[b]) for b in (*range(k, k + m), *range(k)))
    coordinator = next((osd for osd in members if osd.running), None)
    if coordinator is None:
        raise HostDownError(names[k], f"no running member of ({inode},{stripe})")
    blocks = yield from pull_blocks(coordinator, inode, stripe, enumerate(names))
    expect = cluster.codec.encode(blocks[:k])
    bad = [p for p in range(m) if not np.array_equal(blocks[k + p], expect[p])]
    if bad and rewrite:
        yield from coordinator.fan_out(
            (names[k + p], "recovery_write", ((inode, stripe, k + p), expect[p]))
            for p in bad
        )
    return bad


def scrub(
    cluster: Cluster,
    targets: Iterable[Tuple[int, int]],
    parallelism: int = 8,
):
    """Scrub the given (inode, stripe) pairs, ``parallelism`` at a time
    (process body).

    Returns a :class:`ScrubReport`.  Reads are really issued (and costed)
    through the recovery read path on each hosting OSD, by a live member
    of each stripe (:func:`check_stripe`).
    """
    sim = cluster.sim
    cfg = cluster.config
    targets = list(targets)
    t0 = sim.now

    def scrub_one(inode, stripe):
        """The stripe's bad parity indices, or None when it is skipped."""
        if not cluster.down_osds.isdisjoint(cluster.placement(inode, stripe)):
            return None
        return (yield from check_stripe(cluster, inode, stripe))

    outcomes = yield from windowed(
        sim, [scrub_one(inode, stripe) for inode, stripe in targets], parallelism
    )
    report = ScrubReport(seconds=sim.now - t0)
    for target, bad in zip(targets, outcomes):
        if bad is None:
            report.skipped.append(target)
            continue
        report.stripes_checked += 1
        report.bytes_read += (cfg.k + cfg.m) * cfg.block_size
        if bad:
            report.mismatches.append(target)
    return report
