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
from repro.sim.events import AllOf
from repro.sim.resources import Resource
from repro.update.base import BlockKey, UpdateStrategy

FL_HEADER = 32


class FLStrategy(UpdateStrategy):
    """Single exclusive data log, threshold recycle, read merging."""

    name = "fl"

    def __init__(self, osd, recycle_threshold_bytes: int = 4 * 1024 * 1024):
        self.recycle_threshold_bytes = recycle_threshold_bytes
        self.log_index = TwoLevelIndex("overwrite")
        self.log_bytes = 0
        self.lock = Resource(osd.sim, capacity=1, name=f"{osd.name}.fllock")
        super().__init__(osd)

    def register_handlers(self) -> None:
        self.osd.register("fl_apply", self._h_apply)

    def _h_apply(self, msg):
        p = msg.payload
        yield from self.apply_parity_delta(p["pkey"], p["offset"], p["pdelta"])
        return {"ok": True}, 8

    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        yield self.lock.request()
        try:
            yield from self.osd.device.write(
                int(data.size) + FL_HEADER, zone="fl_log", pattern="seq", overwrite=False
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
                calls = []
                for seg in segs:
                    old = yield from self.osd.store.read_range(
                        key, seg.offset, seg.length, pattern="rand"
                    )
                    # ``old`` is a view of the live block — delta before
                    # the write that overwrites those bytes.
                    delta = old ^ seg.data
                    yield from self.osd.store.write_range(
                        key, seg.offset, seg.data, pattern="rand"
                    )
                    for p, osd_name in self.parity_targets(key):
                        pdelta = self.cluster.codec.parity_delta(key[2], p, delta)
                        # Retrying push: the recycle worker owns this delta
                        # and the parity OSD may be mid-failure/recovery.
                        calls.append(
                            self.sim.process(
                                self.osd.rpc_with_retry(
                                    osd_name,
                                    "fl_apply",
                                    {
                                        "pkey": self.parity_key(key, p),
                                        "offset": seg.offset,
                                        "pdelta": pdelta,
                                    },
                                    nbytes=int(pdelta.size),
                                )
                            )
                        )
                if calls:
                    yield AllOf(self.sim, calls)
            self.log_bytes = 0
        finally:
            self.lock.release()

    def drain(self, phase: int = 0):
        yield from self._recycle_all()

    def read_overlay(self, key, offset, length):
        frags = self.log_index.lookup_partial(key, offset, length)
        return frags or None

    def pending_log_bytes(self) -> int:
        return self.log_bytes

    def stripe_pending(self, inode: int, stripe: int) -> bool:
        return any(
            key[0] == inode and key[1] == stripe
            for key in self.log_index.blocks()
        )
