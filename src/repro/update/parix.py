"""PARIX — speculative partial writes (Li et al., ATC'17; §2.2).

PARIX skips the write-after-read on the data path by forwarding the *new
data* itself to the parity logs; parity deltas are computed lazily at
recycle from (original, latest) pairs.  The catch: the first update to a
location must also ship the *original* data so the parity side can ever
compute a delta — a second, serialized round trip (the "2x network latency"
of Fig. 1) — and data blocks still update in place (random write).

Temporal locality is exploited (repeat updates to a location are one hop);
spatial locality is not (the paper's critique).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.logstruct.index import TwoLevelIndex
from repro.logstruct.intervals import IntervalSet
from repro.logstruct.unit import ENTRY_HEADER_BYTES
from repro.sim.events import AllOf
from repro.update.base import BlockKey, UpdateStrategy


class PARIXStrategy(UpdateStrategy):
    """Speculative logging of raw data at the parity OSDs."""

    name = "parix"
    serializes_stripes = True
    # Phase 0 recycles parity-side logs; phase 1 resets the data-side
    # speculation state (safe only once *every* OSD finished phase 0).
    DRAIN_PHASES = 2
    # Parity lag is the unrecycled *latest* images; live originals alone
    # are a consistent snapshot, not lag.
    pending_index = "latest_index"

    def __init__(self, osd, recycle_threshold_bytes: int = 512 * 1024):
        # Data-OSD side: which byte ranges of each local block already
        # shipped their original bytes to the parity logs.  Byte-granular:
        # a page partially covered by one update is still "first" for the
        # uncovered bytes of the next one.
        self.seen: Dict[BlockKey, IntervalSet] = {}
        # Parity-OSD side: per data-block original and latest data images.
        # One shipped array lands in every parity OSD's index; the indexes'
        # copy-on-first-write keeps each fold off the others' bytes.
        self.orig_index = TwoLevelIndex("overwrite")
        self.latest_index = TwoLevelIndex("overwrite")
        self.log_entries: Dict[BlockKey, List[Tuple[int, int]]] = {}
        self.log_bytes = 0
        self.orig_bytes = 0  # live original images (survive compaction)
        self.first_updates = 0
        self.repeat_updates = 0
        self.threshold_recycles = 0
        # PARIX logs *full data* (originals + every new version), so unlike
        # PL's compact delta logs the space budget is really exhausted
        # in-window and recycle must run during operation.  Appends run
        # concurrently with each other but are excluded while the log is
        # being compacted (the log structure is being rewritten under them).
        self.recycle_threshold_bytes = recycle_threshold_bytes
        self._recycling = False
        self._recycle_waiters = []
        super().__init__(osd)

    def _wait_not_recycling(self):
        while self._recycling:
            ev = self.sim.event(name="parix-recycle-wait")
            self._recycle_waiters.append(ev)
            yield ev

    def _end_recycle(self) -> None:
        self._recycling = False
        waiters, self._recycle_waiters = self._recycle_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def register_handlers(self) -> None:
        self.osd.register("parix_append", self._h_append)

    def _background_recycle(self):
        """Compaction: appends are excluded only while the dirty segments
        are scanned; live-original rewrite (goes to fresh segments) and the
        parity RMW application proceed with appends flowing again.
        """
        try:
            jobs, live_share = yield from self._scan_and_pop_locked()
        finally:
            self._end_recycle()
        yield from self._finish_recycle(jobs, live_share)

    def _finish_recycle(self, jobs, live_share):
        """Rewrite the live originals to fresh segments, then wait for the
        per-block parity applications."""
        if live_share:
            yield from self.osd.device.write(
                live_share, zone="parix_log", pattern="seq", overwrite=False
            )
        if jobs:
            yield AllOf(self.sim, jobs)

    def _make_patches(self, key, segs, k):
        """Compute parity patches for one block's popped segments: the
        local parity block's key and its ``(offset, pdelta)`` entries.

        Runs synchronously at pop time (no yields): the delta against the
        current originals and the refresh of those originals must be one
        atomic step, or a later pop could pair new data with a stale
        original while this epoch's patch is still in flight.
        """
        inode, stripe, j = key
        p = self._my_parity_index(inode, stripe)
        entries = []
        for seg in segs:
            orig = self.orig_index.lookup(key, seg.offset, seg.length)
            if orig is None:
                raise RuntimeError(
                    f"PARIX missing original bytes for {key} @{seg.offset}"
                )
            delta = orig ^ seg.data
            entries.append((seg.offset, self.cluster.codec.parity_delta(j, p, delta)))
            # Refresh: once this patch lands, these values are the new
            # parity-consistent originals for the range.
            self.orig_index.insert(key, seg.offset, seg.data)
        return (inode, stripe, k + p), entries

    def _apply_patches(self, pkey, entries, stripe_key):
        """Apply one block's patches; the stripe was pinned at the pop."""
        try:
            yield from self.apply_parity_entries(pkey, entries)
        finally:
            self.unpin_stripe(stripe_key)

    # ------------------------------------------------------------------
    # data-OSD side
    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        # Unlike the XOR-delta methods (which lock only their data-block
        # RMW), the critical section covers the whole speculative protocol:
        # the original-capture-and-ship of a first update must not
        # interleave with another update overwriting the same bytes (the
        # parity side would record a non-original as "original"), and the
        # parity-side "latest" log has overwrite semantics, so append
        # arrival order must match data-write order.
        yield from self.serialize_stripe(key, self._update_locked(key, offset, data))

    def _update_locked(self, key: BlockKey, offset: int, data: np.ndarray):
        seen = self.seen.setdefault(key, IntervalSet())
        first = not seen.covers(offset, offset + int(data.size))
        targets = self.parity_targets(key)
        if first:
            self.first_updates += 1
            # Must capture the original before overwriting, and ship it to
            # every parity log *before* the speculative write is acked:
            # a serialized second round trip.
            old = yield from self.osd.store.read_range(
                key, offset, data.size, pattern="rand"
            )
            # Snapshot the original: the view must survive the parity-log
            # ship (yields) and the local overwrite below — and the parity
            # side retains the payload in its original-image log.
            old = old.copy()
            yield self.osd.fan_out(
                (osd_name, "parix_append",
                 {"key": key, "offset": offset, "data": old, "orig": True},
                 int(old.size))
                for _p, osd_name in targets
            )
            seen.add(offset, offset + int(data.size))
        else:
            self.repeat_updates += 1
        # Issued first: it ships the client's bytes, not the write's result.
        sent = self.osd.fan_out(
            (osd_name, "parix_append",
             {"key": key, "offset": offset, "data": data, "orig": False},
             int(data.size))
            for _p, osd_name in targets
        )
        yield from self.osd.store.write_range(key, offset, data, pattern="rand")
        # Waited on under the stripe lock, so same-stripe updates keep
        # parity-log order.
        yield sent

    # ------------------------------------------------------------------
    # parity-OSD side
    # ------------------------------------------------------------------
    def _h_append(self, msg):
        p = msg.payload
        key, offset, data = p["key"], p["offset"], p["data"]
        # Live originals survive compaction, so the trigger is on
        # *reclaimable* bytes; compacting a log of live data frees nothing.
        reclaimable = self.log_bytes - self.orig_bytes
        if (
            reclaimable + data.size > self.recycle_threshold_bytes
            and not self._recycling
        ):
            # Space exhausted: compact the log.  The single log structure
            # is rewritten during compaction, so appends (and the client
            # acks behind them) are excluded until it completes — the
            # single-log exclusivity §2.2 criticises.
            self.threshold_recycles += 1
            self._recycling = True
            self.sim.process(self._background_recycle())
        yield from self._wait_not_recycling()
        yield from self.osd.device.write(
            int(data.size) + ENTRY_HEADER_BYTES, zone="parix_log", pattern="seq"
        )
        if p["orig"]:
            self._insert_orig_uncovered(key, offset, data)
        else:
            self.latest_index.insert(key, offset, data)
            self.log_entries.setdefault(key, []).append((offset, int(data.size)))
        self.log_bytes += int(data.size)
        return {"ok": True}, 8

    def _insert_orig_uncovered(self, key, offset: int, data: np.ndarray) -> None:
        """Originals are first-wins: never clobber an earlier original."""
        end = offset + int(data.size)
        have = IntervalSet()
        for a, frag in self.orig_index.lookup_partial(key, offset, end - offset):
            have.add(a, a + int(frag.size))
        for lo, hi in have.uncovered(offset, end):
            self.orig_index.insert(key, lo, data[lo - offset : hi - offset])
            self.orig_bytes += hi - lo

    # ------------------------------------------------------------------
    def _my_parity_index(self, inode: int, stripe: int) -> int:
        k = self.cluster.config.k
        names = self.cluster.placement(inode, stripe)
        for p in range(self.cluster.config.m):
            if names[k + p] == self.osd.name:
                return p
        raise RuntimeError(f"{self.osd.name} hosts no parity block of stripe {stripe}")

    def _scan_and_pop_locked(self):
        """Scan + rewrite the log (appends excluded), pop pending state.

        Merged per temporal locality, no cross-block combining.  After the
        application jobs run, the *latest* values become the new originals —
        the parity block then reflects them — so speculation keeps working
        across recycle epochs without the data side re-shipping originals.

        Returns the spawned per-block application processes and the number
        of live-original bytes the caller must rewrite to fresh segments.
        """
        if not self.log_entries:
            return [], 0
        n_entries = sum(len(v) for v in self.log_entries.values())
        scan_bytes_nominal = self.log_bytes
        # Segmented cleaning: only the reclaimable share of the log is
        # scanned, plus the live originals interleaved within it (roughly
        # one live byte per dead byte in the cleaned segments) — a cleaner
        # never re-reads the whole log on every cycle.
        reclaimable = max(0, self.log_bytes - self.orig_bytes)
        live_share = min(self.orig_bytes, reclaimable)
        yield from self.osd.device.read(
            reclaimable + live_share + ENTRY_HEADER_BYTES * n_entries,
            zone="parix_log",
            pattern="seq",
        )
        k = self.cluster.config.k
        jobs = []
        for key in list(self.log_entries):
            # Pop this block's pending state *before* any yield: appends
            # arriving mid-recycle start a fresh ledger for the key and are
            # handled by the next recycle instead of being lost.  Patch
            # computation (and orig refresh) happens here, atomically.
            self.log_entries.pop(key)
            segs = self.latest_index.pop_block(key)
            if segs:
                pkey, entries = self._make_patches(key, segs, k)
                sk = (key[0], key[1])
                self.pin_stripe(sk)
                jobs.append(self.sim.process(self._apply_patches(pkey, entries, sk)))
        # Accounting: entries appended mid-scan survive in the fresh
        # ledgers and are charged on top; live originals are rewritten by
        # the caller.
        appended_mid_recycle = max(0, self.log_bytes - scan_bytes_nominal)
        self.log_bytes = self.orig_bytes + appended_mid_recycle
        return jobs, live_share

    def drain(self, phase: int = 0):
        if phase == 0:
            # Full synchronous compaction: appends stay excluded until the
            # parity applications have landed.
            yield from self._wait_not_recycling()
            self._recycling = True
            try:
                jobs, live_share = yield from self._scan_and_pop_locked()
                yield from self._finish_recycle(jobs, live_share)
            finally:
                self._end_recycle()
        else:
            # Post-recycle, parity state matches on-disk data: the next
            # update to any location is a "first" again and must re-ship
            # originals.
            self.seen.clear()
            yield self.sim.timeout(0)

    def on_rebuilt(self) -> None:
        """Reset speculation state invalidated by block reconstruction.

        The rebuilt parity blocks equal ``encode(live data)``; originals
        captured before the crash no longer describe them, and a delta
        computed against a stale original would corrupt the rebuilt parity
        (the post-recovery scrub gate catches exactly that).  Cleared here,
        the next update to any location is a "first" again — recovery's
        cluster-wide drain already cleared every data side's ``seen``, so
        originals are re-shipped and speculation restarts cleanly.
        """
        self.seen.clear()
        self.orig_index.clear()
        self.latest_index.clear()
        self.log_entries.clear()
        self.log_bytes = 0
        self.orig_bytes = 0
