"""FL — Full Logging (§2.2; the Azure/GFS-style extra baseline).

All update data is appended to one large data-side log; the original blocks
are only patched when the log is recycled at a space threshold.  The single
log structure makes appending, reading and recycling mutually exclusive
(one lock), and unrecycled data must be merged into every read — the
read-penalty and exclusivity problems §2.2 describes.

FL is not part of the paper's measured comparison (Fig. 5 omits it); it is
included for completeness and for the update-path unit tests.
"""

from __future__ import annotations

import numpy as np

from repro.logstruct.index import TwoLevelIndex
from repro.logstruct.unit import ENTRY_HEADER_BYTES
from repro.sim.events import AllOf
from repro.sim.resources import Resource
from repro.update.base import BlockKey, UpdateStrategy


class FLStrategy(UpdateStrategy):
    """Single exclusive data log, threshold recycle, read merging."""

    name = "fl"
    pending_index = "log_index"

    def __init__(self, osd, recycle_threshold_bytes: int = 4 * 1024 * 1024):
        self.recycle_threshold_bytes = recycle_threshold_bytes
        self.log_index = TwoLevelIndex("overwrite")
        self.log_bytes = 0
        self.lock = Resource(osd.sim, capacity=1, name=f"{osd.name}.fllock")
        super().__init__(osd)

    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        yield self.lock.request()
        try:
            yield from self.osd.device.write(
                int(data.size) + ENTRY_HEADER_BYTES, zone="fl_log", pattern="seq"
            )
            self.log_index.insert(key, offset, data)
            self.log_bytes += int(data.size)
            must_recycle = self.log_bytes >= self.recycle_threshold_bytes
        finally:
            self.lock.release()
        if must_recycle:
            yield from self._recycle_all()

    # ------------------------------------------------------------------
    def _recycle_all(self):
        yield self.lock.request()
        try:
            if self.log_bytes == 0:
                return
            yield from self.osd.device.read(self.log_bytes, zone="fl_log", pattern="seq")
            for key in list(self.log_index.blocks()):
                segs = self.log_index.pop_block(key)
                # Popped, not yet in parity: pinned until the applies land.
                stripe_key = (key[0], key[1])
                self.pin_stripe(stripe_key)
                try:
                    yield from self._recycle_block(key, segs)
                finally:
                    self.unpin_stripe(stripe_key)
            self.log_bytes = 0
        finally:
            self.lock.release()

    def _recycle_block(self, key: BlockKey, segs):
        """Patch one block's segments in place, shipping each segment's
        parity deltas as soon as its RMW is done, then wait for them all.
        Not a ``fan_out``: one segment's ships overlap the next one's RMW.
        """
        calls = []
        for seg in segs:
            old = yield from self.osd.store.read_range(
                key, seg.offset, seg.length, pattern="rand"
            )
            # ``old`` is a view of the live block — delta before the write
            # that overwrites those bytes.
            delta = old ^ seg.data
            yield from self.osd.store.write_range(
                key, seg.offset, seg.data, pattern="rand"
            )
            # Retrying pushes: the recycle owns these deltas and the parity
            # OSD may be mid-failure/recovery.
            calls.extend(
                self.sim.process(self.osd.rpc_with_retry(*call))
                for call in self.forward_calls(key, seg.offset, delta, "parity_apply")
            )
        if calls:
            yield AllOf(self.sim, calls)

    def drain(self, phase: int = 0):
        yield from self._recycle_all()

    def read_overlay(self, key, offset, length):
        frags = self.log_index.lookup_partial(key, offset, length)
        return frags or None
