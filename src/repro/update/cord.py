"""CoRD — Combining Raid and Delta (Zhou et al., SC'24; §2.2).

Data blocks update in place; the delta is forwarded to the stripe's
*collector* (the OSD hosting the first parity block), which aggregates
deltas from all data blocks of the stripe in a fixed-size buffer log.
When the buffer fills, the collector combines same-offset deltas across
blocks (Eq. 5) and pushes one combined parity delta per parity block —
that is how CoRD minimises network traffic.

The paper's critique, which we model directly: the buffer log is a single
mutually exclusive structure with no read/write concurrency, so appends,
and the synchronous recycle that a full buffer forces, serialize behind one
lock and become the throughput bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.logstruct.index import TwoLevelIndex, fold_parity_deltas
from repro.logstruct.unit import ENTRY_HEADER_BYTES
from repro.sim.events import AllOf
from repro.sim.resources import Resource
from repro.update.base import BlockKey, UpdateStrategy


class CoRDStrategy(UpdateStrategy):
    """Collector-aggregated delta combining with a serialized buffer log."""

    name = "cord"
    serializes_stripes = True
    pending_index = "buf_index"

    def __init__(self, osd, buffer_bytes: int = 128 * 1024):
        self.buffer_bytes = buffer_bytes
        # Collector state: deltas per data-block key, stripes resident.
        self.buf_index = TwoLevelIndex("xor")
        self.buf_stripes: Dict[Tuple[int, int], List[int]] = {}
        self.buf_used = 0
        self.sync_recycles = 0
        # The buffer log supports one in-flight recycle; when the buffer
        # refills before the previous recycle lands, appends stall — the
        # concurrency bottleneck the paper attributes to CoRD.
        self.lock = Resource(osd.sim, capacity=1, name=f"{osd.name}.cordlock")
        self._apply_lock = Resource(osd.sim, capacity=1, name=f"{osd.name}.cordapply")
        super().__init__(osd)

    def register_handlers(self) -> None:
        self.osd.register("cord_collect", self._h_collect)

    # ------------------------------------------------------------------
    # data-OSD side
    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        # Lock the data-block read-modify-write only; the collector buffers
        # deltas in an XOR index and combining is commutative (Eq. 5).
        return self.update_in_place(key, offset, data, "cord_collect")

    def forward_calls(self, key: BlockKey, offset: int, delta: np.ndarray,
                      kind: str):
        """The raw delta goes to the stripe's collector only."""
        collector = self.cluster.placement(*key[:2])[self.cluster.config.k]
        return [(collector, kind, (key, offset, delta))]

    # ------------------------------------------------------------------
    # collector side
    # ------------------------------------------------------------------
    def _h_collect(self, key: BlockKey, offset: int, delta: np.ndarray):
        yield self.lock.request()
        try:
            if self.buf_used + delta.size + ENTRY_HEADER_BYTES > self.buffer_bytes:
                # The buffer is full: it can only be snapshotted once the
                # previous recycle (if any) has landed — a full buffer
                # behind a slow recycle stalls the append path, and the
                # client ack behind it.  The new recycle itself then runs
                # asynchronously.
                if self._apply_lock.in_use:
                    yield self._apply_lock.request()
                    self._apply_lock.release()
                snapshot = self._snapshot_buffer()
                self.sim.process(self._apply_snapshot(snapshot))
            yield from self.osd.device.write(
                int(delta.size) + ENTRY_HEADER_BYTES,
                zone="cord_buf",
                pattern="seq",
                overwrite=False,
            )
            self.buf_index.insert(key, offset, delta)
            inode, stripe, j = key
            self.buf_stripes.setdefault((inode, stripe), [])
            if j not in self.buf_stripes[(inode, stripe)]:
                self.buf_stripes[(inode, stripe)].append(j)
            self.buf_used += int(delta.size) + ENTRY_HEADER_BYTES
        finally:
            self.lock.release()

    def _snapshot_buffer(self):
        """Detach the current buffer contents for recycling; each detached
        stripe stays pinned until its snapshot is applied."""
        snapshot = {}
        for (inode, stripe), js in self.buf_stripes.items():
            snapshot[(inode, stripe)] = {
                j: self.buf_index.pop_block((inode, stripe, j)) for j in js
            }
            self.pin_stripe((inode, stripe))
        self.buf_stripes.clear()
        self.buf_used = 0
        return snapshot

    def _apply_snapshot(self, snapshot):
        """Combine (Eq. 5) and push to every parity block.

        Guarded by a single-slot lock: only one recycle can be in flight,
        so a full buffer behind a slow recycle stalls the append path.
        Not a ``fan_out``: each stripe's own share is applied inline before
        the next stripe's pushes start.
        """
        if not snapshot:
            return
        yield self._apply_lock.request()
        try:
            self.sync_recycles += 1
            k = self.cluster.config.k
            m = self.cluster.config.m
            calls = []
            for (inode, stripe), per_block in snapshot.items():
                names = self.cluster.placement(inode, stripe)
                for p in range(m):
                    pkey = (inode, stripe, k + p)
                    entries = fold_parity_deltas(self.cluster.codec, p, per_block)
                    if not entries:
                        continue
                    if names[k + p] == self.osd.name:
                        yield from self.apply_parity_entries(pkey, entries)
                    else:
                        # Retrying push: the recycle owns this combined
                        # delta and the parity OSD may be mid-recovery.
                        calls.append(self.sim.process(self.osd.rpc_with_retry(
                            names[k + p], "parity_apply", (pkey, entries)
                        )))
            if calls:
                yield AllOf(self.sim, calls)
        finally:
            for stripe_key in snapshot:
                self.unpin_stripe(stripe_key)
            self._apply_lock.release()

    # ------------------------------------------------------------------
    def drain(self, phase: int = 0):
        yield self.lock.request()
        try:
            snapshot = self._snapshot_buffer()
            # Runs inline: waits behind any in-flight recycle, then applies.
            yield from self._apply_snapshot(snapshot)
            # Ensure a recycle spawned just before drain has landed too.
            yield self._apply_lock.request()
            self._apply_lock.release()
        finally:
            self.lock.release()
