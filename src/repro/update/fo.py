"""FO — Full Overwrite (Aguilera et al., §2.2).

Everything happens in place and synchronously: the data block takes a random
read + random write to compute the delta, then every parity block takes a
random read + random write to apply its scaled delta.  Longest update path,
entirely small random I/O — the paper's baseline worst case for latency.
"""

from __future__ import annotations

import numpy as np

from repro.sim.events import AllOf
from repro.update.base import BlockKey, UpdateStrategy


class FOStrategy(UpdateStrategy):
    """In-place update of data and all parity blocks on the critical path."""

    name = "fo"
    serializes_stripes = True

    def register_handlers(self) -> None:
        self.osd.register("fo_apply", self._h_apply)

    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        # Only the data-block read-modify-write needs the stripe lock: the
        # parity applies below are commutative XOR, safe in any order.
        delta = yield from self.serialize_stripe(
            key, self.rmw_delta(key, offset, data)
        )
        calls = []
        for p, osd_name in self.parity_targets(key):
            pdelta = self.cluster.codec.parity_delta(key[2], p, delta)
            calls.append(
                self.sim.process(
                    self.osd.rpc(
                        osd_name,
                        "fo_apply",
                        {
                            "pkey": self.parity_key(key, p),
                            "offset": offset,
                            "pdelta": pdelta,
                        },
                        nbytes=int(pdelta.size),
                    )
                )
            )
        if calls:
            yield AllOf(self.sim, calls)

    def _h_apply(self, msg):
        p = msg.payload
        yield from self.apply_parity_delta(p["pkey"], p["offset"], p["pdelta"])
        return {"ok": True}, 8

    # FO keeps no logs: nothing to drain, nothing to overlay.
