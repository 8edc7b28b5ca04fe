"""PLR — Parity Logging with Reserved space (Chan et al., FAST'14; §2.2).

Parity deltas land in a reserved region *adjacent to each parity block*.
Appends therefore scatter across as many on-device locations as there are
active parity blocks — random writes, not a sequential log — and when a
block's reserved region fills, it must be recycled *synchronously* before
the append completes, stalling the update.  Both effects are why the paper
measures PLR as the slowest method on SSDs (3.9x-10.1x behind TSUE).

The recycle itself is cheaper than PL's: deltas sit next to the parity
block, so the log read is sequential and the parity RMW is a single
adjacent read+write per merged segment.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.logstruct.index import TwoLevelIndex
from repro.logstruct.unit import ENTRY_HEADER_BYTES
from repro.update.base import BlockKey, UpdateStrategy


class PLRStrategy(UpdateStrategy):
    """Reserved-space parity logging with synchronous region recycle."""

    name = "plr"
    serializes_stripes = True
    pending_index = "log_index"

    def __init__(self, osd, reserve_bytes: int = 6 * 1024):
        self.reserve_bytes = reserve_bytes
        self.log_index = TwoLevelIndex("xor")
        self.region_used: Dict[BlockKey, int] = {}
        self.sync_recycles = 0
        super().__init__(osd)

    def register_handlers(self) -> None:
        self.osd.register("plr_append", self._h_append)

    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        return self.update_in_place(key, offset, data, "plr_append")

    def _h_append(self, msg):
        p = msg.payload
        pkey = p["pkey"]
        [(offset, pdelta)] = p["entries"]
        used = self.region_used.get(pkey, 0)
        if used + pdelta.size + ENTRY_HEADER_BYTES > self.reserve_bytes:
            # Reserved space exhausted: recycle this region *now*, blocking
            # the append (and the client ack behind it).
            yield from self._recycle_region(pkey)
            used = 0
        # Reserved regions are scattered across the device: the append is a
        # random write into this block's private region.
        yield from self.osd.device.write(
            int(pdelta.size) + ENTRY_HEADER_BYTES,
            zone=f"plr:{pkey}",
            offset=used,
            pattern="rand",
            overwrite=False,
        )
        self.log_index.insert(pkey, offset, pdelta)
        self.region_used[pkey] = used + int(pdelta.size) + ENTRY_HEADER_BYTES
        return {"ok": True}, 8

    # ------------------------------------------------------------------
    def _recycle_region(self, pkey: BlockKey):
        """Merge the reserved region into its parity chunk.

        The region sits next to the chunk, so the log read is sequential —
        PLR's advantage over PL — but merging rewrites the *whole parity
        chunk* (read chunk, XOR deltas in, write chunk back), the classic
        reserved-space compaction.  With a small reserve this runs every
        few appends, squarely on the update path.

        The region's pending state is popped *before* the first yield: an
        append that arrives mid-recycle sees an empty region and starts a
        fresh ledger for the next pass, instead of starting a second
        recycle of the same region or having its ledger zeroed from under
        it.  Index entries left under a zero ledger are swept too.  The
        stripe stays pinned until the fold lands, so a concurrent scrub
        never gates a half-recycled stripe.
        """
        used = self.region_used.get(pkey, 0)
        segs = self.log_index.pop_block(pkey)
        if used == 0 and not segs:
            return
        if used:
            self.sync_recycles += 1
        self.region_used[pkey] = 0
        stripe_key = (pkey[0], pkey[1])
        self.pin_stripe(stripe_key)
        try:
            if used:
                # Log read is sequential (the region is contiguous next to
                # the block).
                yield from self.osd.device.read(
                    used, zone=f"plr:{pkey}", offset=0, pattern="seq"
                )
            chunk = self.osd.store.block_size
            base = self.osd.store.device_offset(pkey)
            yield from self.osd.device.read(
                chunk, zone="blocks", offset=base, pattern="rand"
            )
            yield from self.osd.device.write(
                chunk, zone="blocks", offset=base, pattern="rand", overwrite=True
            )
            # In-memory fold, charged above; via the store for ghost coverage.
            for seg in segs:
                self.osd.store.fold_xor(pkey, seg.offset, seg.data)
        finally:
            self.unpin_stripe(stripe_key)

    def drain(self, phase: int = 0):
        for pkey in list(self.region_used):
            yield from self._recycle_region(pkey)
