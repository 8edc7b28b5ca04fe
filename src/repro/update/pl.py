"""PL — Parity Logging (Stodolsky et al., §2.2).

Data blocks update in place (random read + write for the delta); parity
deltas are *appended* to a sequential parity log at each parity OSD and the
in-place parity update is deferred.  The recycle never runs during normal
operation ("indefinitely delayed", §5.2): the logs fold into parity only
when a drain asks — which is exactly why PL is fast for updates and
slow/risky for recovery.

Correctness bookkeeping: the log content folds into an XOR index per parity
block (so drain produces exact bytes), while a per-entry ledger preserves
the *cost* of the unmerged recycle the paper attributes to PL (lots of
random access, no locality exploitation).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.logstruct.index import TwoLevelIndex
from repro.logstruct.unit import ENTRY_HEADER_BYTES
from repro.update.base import BlockKey, UpdateStrategy


class PLStrategy(UpdateStrategy):
    """In-place data update + appended parity logs, deferred recycle."""

    name = "pl"
    serializes_stripes = True
    # Its entries leave the index only when their bytes fold into parity.
    pending_index = "log_index"

    def __init__(self, osd):
        self.log_index = TwoLevelIndex("xor")  # exact pending parity deltas
        self.log_entries: Dict[BlockKey, List[Tuple[int, int]]] = {}
        self.log_bytes = 0
        super().__init__(osd)

    def register_handlers(self) -> None:
        self.osd.register("pl_append", self._h_append)

    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        return self.update_in_place(key, offset, data, "pl_append")

    def _h_append(self, pkey: BlockKey, entries):
        [(offset, pdelta)] = entries
        yield from self.osd.device.write(
            int(pdelta.size) + ENTRY_HEADER_BYTES, zone="pl_log", pattern="seq"
        )
        self.log_index.insert(pkey, offset, pdelta)
        self.log_entries.setdefault(pkey, []).append((offset, int(pdelta.size)))
        self.log_bytes += int(pdelta.size)

    # ------------------------------------------------------------------
    def drain(self, phase: int = 0):
        """The costed PL recycle: sequential log scan + per-entry random RMW.

        PL does not exploit locality, so the device cost is charged per raw
        log entry; the byte-exact merged content lands at the end.

        Runs correctly under concurrent appends (recovery drains while
        foreground updates keep flowing): the ledger is snapshot-swapped
        before the first yield, and the loop repeats until no entries
        arrived mid-pass.  ``pop_block`` may also fold in deltas that
        landed after the snapshot — their ledger entries then cost a
        (cheap, content-less) second pass, but every delta's content is
        applied exactly once.
        """
        while self.log_entries:
            pending, self.log_entries = self.log_entries, {}
            pending_bytes, self.log_bytes = self.log_bytes, 0
            yield from self.osd.device.read(
                pending_bytes
                + ENTRY_HEADER_BYTES * sum(len(v) for v in pending.values()),
                zone="pl_log",
                pattern="seq",
            )
            for pkey, entries in pending.items():
                for offset, size in entries:
                    # Unmerged: one random read + write per logged entry.
                    yield from self.osd.device.read(
                        size,
                        zone="blocks",
                        offset=self.osd.store.device_offset(pkey) + offset,
                        pattern="rand",
                    )
                    yield from self.osd.device.write(
                        size,
                        zone="blocks",
                        offset=self.osd.store.device_offset(pkey) + offset,
                        pattern="rand",
                        overwrite=True,
                    )
                # Apply the exact merged bytes once (no extra simulated cost
                # — the per-entry loop above already charged it).  Routed
                # through the store so ghost-plane coverage stays complete.
                for seg in self.log_index.pop_block(pkey):
                    self.osd.store.fold_xor(pkey, seg.offset, seg.data)
