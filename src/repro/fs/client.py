"""The client: striping, encoding, and the user-facing API.

Clients provide ``create``, ``write`` (full-stripe encode + distribute),
``update`` (the measured path) and ``read``.  Placement is computed locally
after ``create``/``open`` — the deterministic layout stands in for the MDS
location cache of §4 — so steady-state updates cost exactly the messages the
paper's Fig. 1 shows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dataplane import as_payload, concat_payloads
from repro.fs.messages import HostDownError, RpcHost
from repro.metrics.latency import LatencyRecorder
from repro.sim.events import AllOf, wait_until


class Client(RpcHost):
    """One application node."""

    # While any member OSD of a stripe is down, updates touching that
    # stripe wait (write fencing): EC updates mutate data *and* parity, and
    # mutating a degraded stripe would have to be replayed into the rebuild.
    # Each wait wakes on a cluster notifier at the instant its fence lifts;
    # the budget turns a never-recovered OSD into an error, not a hang.
    FENCE_BUDGET_S = 60.0

    def __init__(self, sim, fabric, name, cluster):
        super().__init__(sim, fabric, name)
        self.cluster = cluster
        self.update_latency = LatencyRecorder(f"{name}.update")
        self.read_latency = LatencyRecorder(f"{name}.read")
        # Reads that went through the degraded (decode) path also record
        # here, so failure scenarios can report an honest degraded p99.
        self.degraded_read_latency = LatencyRecorder(f"{name}.degraded")
        # Pipelining bookkeeping: how many updates this client has in flight
        # right now, and the high-water mark.  Open-loop generators assert
        # against the peak to prove their requests genuinely overlap.
        self.inflight_updates = 0
        self.peak_inflight_updates = 0
        # Failure-path accounting (failure scenarios report these), all
        # counted once per *logical* op, not per retry attempt.
        self.update_retries = 0
        self.read_retries = 0
        self.degraded_reads = 0
        self.fenced_updates = 0

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, inode: int, size: int):
        """Register a new file with the MDS (generator)."""
        yield from self.rpc("mds", "create_file", (inode, size))

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def write(self, inode: int, offset: int, data: np.ndarray):
        """Normal (first) write: encode full stripes and distribute.

        Must cover whole stripes — partial first writes are zero-padded by
        the caller; the measured experiments only exercise ``update``.
        """
        data = as_payload(data)
        cfg = self.cluster.config
        span = cfg.k * cfg.block_size
        if offset % span or data.size % span:
            raise ValueError("write must cover whole stripes")
        first_stripe = offset // span
        calls = []
        for s_rel in range(data.size // span):
            stripe = first_stripe + s_rel
            chunk = data[s_rel * span : (s_rel + 1) * span]
            blocks = [
                chunk[j * cfg.block_size : (j + 1) * cfg.block_size]
                for j in range(cfg.k)
            ]
            parity = self.cluster.codec.encode(blocks)
            names = self.cluster.placement(inode, stripe)
            calls.extend(
                (names[j], "write_block", ((inode, stripe, j), blk))
                for j, blk in enumerate(blocks + parity)
            )
        yield from self.fan_out(calls)

    def _fence_wait(self, inode: int, stripes):
        """Wait until no member OSD of the given stripes is down; True if
        the op had to wait at all (generator)."""
        cluster = self.cluster
        down = cluster.down_osds

        def clear():
            return not any(n in down for s in stripes for n in cluster.placement(inode, s))

        if not down or clear():
            return False
        return (yield from wait_until(
            clear, cluster.down_changed, self.FENCE_BUDGET_S,
            f"{self.name}: stripes {sorted(stripes)} of inode {inode} fenced "
            f"(down: {sorted(down)}), no recovery/restore happened",
        ))

    def _migration_wait(self, inode: int, stripes):
        """Hold a *new* op while any touched stripe is mid-migration, until
        the rebalance lifts its fence (zero-cost when nothing migrates).

        Runs once per logical op, *before* the op registers in the
        cluster's in-flight refcount — registered ops (and their crash
        retries) must keep draining, or the rebalancer's quiesce would
        deadlock against this fence.
        """
        migrating = self.cluster.migrating_stripes
        if migrating:
            yield from wait_until(
                lambda: not any((inode, s) in migrating for s in stripes),
                self.cluster.fences_changed, self.FENCE_BUDGET_S,
                f"{self.name}: stripes {sorted(stripes)} of inode {inode} "
                "migration-fenced, rebalance never committed",
            )

    def _retry_downed(self, make_attempt, counter: str, degrades: bool, held):
        """Run ``make_attempt()`` (a generator) to completion, retrying it
        whole after a crash racing it (:class:`HostDownError`; frame loss
        never gets here).  An update retries once the failed host is out of
        ``down_osds`` (a replica neighbour outside the stripe's fence too); a
        read, which ``degrades`` around every host marked down, once the
        failed host is marked down or serving.  ``counter`` names the
        per-logical-op retry counter, bumped once however many attempts;
        ``held["fenced"]`` (an update's state; a read passes None) is set
        once such a wait had to yield.
        """
        cluster = self.cluster
        down = cluster.down_osds
        retried = False
        while True:
            try:
                result = yield from make_attempt()
                return result
            except HostDownError as err:
                if not retried:
                    retried = True
                    setattr(self, counter, getattr(self, counter) + 1)
                name, host = err.host, cluster.osd_by_name(err.host)
                if (yield from wait_until(
                    (lambda: name in down or host.running) if degrades
                    else (lambda: name not in down),
                    cluster.down_changed, self.FENCE_BUDGET_S,
                    f"{self.name}: retry after {err}",
                )) and held is not None:
                    held["fenced"] = True

    def update(self, inode: int, offset: int, data: np.ndarray):
        """The measured path: route each extent to its data-block OSD.

        Safe to run many times concurrently from one client (each call is
        its own process with no shared mutable state beyond counters) —
        that is what open-loop generators with ``iodepth > 1`` do.

        Failure handling: updates touching a stripe with a down member wait
        for it to heal (:meth:`_fence_wait`), and a crash racing an issued
        update (:class:`HostDownError`) is retried whole once the fence
        clears.  Re-sent extents are idempotent end-to-end: the data bytes
        are the same, so every strategy's recomputed parity delta is zero
        for extents that already landed.
        """
        data = as_payload(data)
        start = self.sim.now
        self.inflight_updates += 1
        self.peak_inflight_updates = max(
            self.peak_inflight_updates, self.inflight_updates
        )
        try:
            if self.cluster.config.client_overhead_s > 0:
                yield float(self.cluster.config.client_overhead_s)
            extents = self.cluster.stripe_map.extents(inode, offset, data.size)
            stripes = {ext.addr.stripe for ext in extents}
            yield from self._migration_wait(inode, stripes)
            state = {"fenced": False}  # across every retry attempt

            def attempt():
                if (yield from self._fence_wait(inode, stripes)):
                    state["fenced"] = True
                if len(extents) == 1:
                    # Single-extent fast path (the overwhelmingly common
                    # case for small updates): run the RPC inline instead
                    # of spawning a child process plus an AllOf barrier.
                    ext = extents[0]
                    osd = self.cluster.osd_of_block(
                        inode, ext.addr.stripe, ext.addr.block_index
                    )
                    yield from self.rpc(osd, "update", (ext.addr.key(), ext.offset, data))
                    return
                calls = []
                pos = 0
                for ext in extents:
                    payload = data[pos : pos + ext.length]
                    pos += ext.length
                    osd = self.cluster.osd_of_block(
                        inode, ext.addr.stripe, ext.addr.block_index
                    )
                    calls.append((osd, "update", (ext.addr.key(), ext.offset, payload)))
                yield from self.fan_out(calls)

            self.cluster.note_ops_begin(inode, stripes)
            try:
                yield from self._retry_downed(attempt, "update_retries", False, state)
            finally:
                self.cluster.note_ops_end(inode, stripes)
            if state["fenced"]:
                self.fenced_updates += 1
        finally:
            self.inflight_updates -= 1
        self.update_latency.record(self.sim.now, self.sim.now - start)

    def submit_update(self, inode: int, offset: int, data: np.ndarray):
        """Spawn :meth:`update` as its own process and return it (pipelined).

        Callers join the returned process (or an ``AllOf`` over several) to
        wait for completion; issuing more before joining overlaps them.
        """
        return self.sim.process(
            self.update(inode, offset, data), name=f"{self.name}.update"
        )

    def read(self, inode: int, offset: int, length: int, down: Optional[set] = None):
        """Range read assembled from per-block reads (generator).

        ``down`` is the client's view of unavailable OSDs — the cluster's
        ``down_osds`` (the MDS membership map pushed to clients) is always
        merged in; extents whose home OSD is down are served by a *degraded
        read* — decode from any k surviving blocks of the stripe.  A crash
        racing an issued read is retried against the updated down-set.
        """
        start = self.sim.now
        if self.cluster.config.client_overhead_s > 0:
            yield float(self.cluster.config.client_overhead_s)
        extents = self.cluster.stripe_map.extents(inode, offset, length)
        stripes = {ext.addr.stripe for ext in extents}
        # Reads fence on migrating stripes too: a read racing the placement
        # flip could pull a block from a home that just went stale, and an
        # unfenced open-loop read stream would keep the rebalancer's
        # quiesce from ever draining.
        yield from self._migration_wait(inode, stripes)

        def attempt():
            down_now = set(self.cluster.down_osds) | set(down or ())
            if len(extents) == 1 and not down_now:
                # Single-extent healthy-path read: no child process, no
                # AllOf barrier — just the one RPC.
                ext = extents[0]
                osd = self.cluster.osd_of_block(
                    inode, ext.addr.stripe, ext.addr.block_index
                )
                piece = yield from self._read_one(
                    osd, ext.addr.key(), ext.offset, ext.length
                )
                return [piece], 0
            procs = []
            n_degraded = 0
            for ext in extents:
                osd = self.cluster.osd_of_block(inode, ext.addr.stripe, ext.addr.block_index)
                if osd in down_now:
                    n_degraded += 1
                    procs.append(
                        self.sim.process(
                            self._degraded_read(
                                inode, ext.addr.stripe, ext.addr.block_index,
                                ext.offset, ext.length, down_now,
                            )
                        )
                    )
                else:
                    procs.append(
                        self.sim.process(
                            self._read_one(osd, ext.addr.key(), ext.offset, ext.length)
                        )
                    )
            pieces = yield AllOf(self.sim, procs)
            return pieces, n_degraded

        # Only the attempt that completed counts toward degraded stats.
        self.cluster.note_ops_begin(inode, stripes)
        try:
            pieces, n_degraded = yield from self._retry_downed(
                attempt, "read_retries", True, None
            )
        finally:
            self.cluster.note_ops_end(inode, stripes)
        out = concat_payloads(pieces)
        latency = self.sim.now - start
        self.read_latency.record(self.sim.now, latency)
        if n_degraded:
            self.degraded_reads += 1
            self.degraded_read_latency.record(self.sim.now, latency)
        return out

    def _read_one(self, osd: str, key, offset: int, length: int):
        return (yield from self.rpc(osd, "read", (key, offset, length)))

    def _degraded_read(
        self, inode: int, stripe: int, lost_index: int, offset: int, length: int, down: set
    ):
        """Decode one lost block's range from k surviving full blocks.

        Degraded reads are the expensive path the paper's recovery story
        protects: k whole-block transfers plus a decode for every range on
        a failed OSD.  Survivors' logs must have drained for the parity to
        be current — callers recover-or-drain first, as §2.3.2 requires.
        """
        cfg = self.cluster.config
        names = self.cluster.placement(inode, stripe)
        sources = [
            (b, names[b]) for b in range(cfg.k + cfg.m) if names[b] not in down
        ][: cfg.k]
        if len(sources) < cfg.k:
            raise RuntimeError(
                f"stripe ({inode},{stripe}) has only {len(sources)} live blocks; "
                f"unrecoverable with k={cfg.k}"
            )
        replies = yield from self.fan_out(
            (osd, "read", ((inode, stripe, b), 0, cfg.block_size))
            for b, osd in sources
        )
        shards = {b: data for (b, _), data in zip(sources, replies)}
        rebuilt = self.cluster.codec.reconstruct(shards, [lost_index])[lost_index]
        return rebuilt[offset : offset + length]
