"""FO — Full Overwrite (Aguilera et al., §2.2).

Everything happens in place and synchronously: the data block takes a random
read + random write to compute the delta, then every parity block takes a
random read + random write to apply its scaled delta.  Longest update path,
entirely small random I/O — the paper's baseline worst case for latency.
"""

from __future__ import annotations

import numpy as np

from repro.update.base import BlockKey, UpdateStrategy


class FOStrategy(UpdateStrategy):
    """In-place update of data and all parity blocks on the critical path."""

    name = "fo"
    serializes_stripes = True

    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        return self.update_in_place(key, offset, data)

    # FO keeps no logs: nothing to drain, nothing to overlay, nothing pending.
