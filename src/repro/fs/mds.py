"""The metadata server: namespace and heartbeats.

The MDS tracks files (inode -> size/geometry) and monitors OSD liveness
through heartbeats.  Placement is a deterministic function clients
evaluate themselves, so the steady-state update path never touches the
MDS — matching the paper's architecture where the MDS is out of the data
path.

Each file's metadata keeps the page-level written bitmap of §4.3 that
classifies writes as *first writes* vs *updates* (``FileMeta.is_update``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fs.messages import RpcHost
from repro.logstruct.intervals import IntervalSet

PAGE = 4096


@dataclass
class FileMeta:
    """Namespace entry for one file."""

    inode: int
    size: int
    # Runs of written page numbers, not one entry per page: registering a
    # file of any size is one interval.
    written_pages: IntervalSet = field(default_factory=IntervalSet)

    @staticmethod
    def _pages(offset: int, length: int) -> Tuple[int, int]:
        """Half-open page range touched by ``[offset, offset+length)``."""
        return offset // PAGE, (offset + max(length, 1) - 1) // PAGE + 1

    def mark_written(self, offset: int, length: int) -> None:
        self.written_pages.add(*self._pages(offset, length))

    def is_update(self, offset: int, length: int) -> bool:
        """True iff every touched page was previously written."""
        return self.written_pages.covers(*self._pages(offset, length))


class MDS(RpcHost):
    """Metadata server node."""

    HEARTBEAT_TIMEOUT = 3.0

    def __init__(self, sim, fabric, name, cluster):
        super().__init__(sim, fabric, name)
        self.cluster = cluster
        self.files: Dict[int, FileMeta] = {}
        # Instance-level so failure scenarios can tighten detection to their
        # (millisecond-scale) timescale without touching the class default.
        self.heartbeat_timeout = self.HEARTBEAT_TIMEOUT
        self.last_heartbeat: Dict[str, float] = {}
        self.register("create_file", self._h_create)
        self.register("heartbeat", self._h_heartbeat)

    # ------------------------------------------------------------------
    # direct (non-RPC) registration used by instant loading
    # ------------------------------------------------------------------
    def register_file(self, inode: int, size: int) -> FileMeta:
        meta = self.files.get(inode)
        if meta is None:
            meta = FileMeta(inode, size)
            self.files[inode] = meta
        else:
            meta.size = max(meta.size, size)
        meta.mark_written(0, size)
        return meta

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _h_create(self, inode: int, size: int):
        if inode in self.files:
            raise ValueError(f"inode {inode} already exists")
        self.files[inode] = FileMeta(inode, size)
        yield self.sim.timeout(0)  # metadata op: negligible local cost

    def _h_heartbeat(self, osd: str):
        self.last_heartbeat[osd] = self.sim.now
        yield self.sim.timeout(0)

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------
    def failed_osds(self, now: Optional[float] = None) -> List[str]:
        """Ring members whose heartbeat is older than the timeout.

        Scoped to the placement ring, not every OSD ever provisioned:
        a decommissioned node stops beating by design and must not be
        flagged for recovery, and a joiner is only monitored once a
        rebalance commits it into the ring.
        """
        now = self.sim.now if now is None else now
        out = []
        for name in self.cluster.ring:
            seen = self.last_heartbeat.get(name)
            if seen is None or now - seen > self.heartbeat_timeout:
                out.append(name)
        return out
