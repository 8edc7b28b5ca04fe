"""Operation, byte, network and wear counters.

These counters are the ground truth behind Table 1 ("Storage Workload and
Network Traffic") and the SSD-lifespan claims: every simulated device I/O and
every simulated network transfer increments exactly one of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

GB = 1 << 30


@dataclass
class OpCounters:
    """I/O accounting for one storage device.

    ``overwrite`` tracks in-place writes to already-written device ranges —
    the "write penalty" column of Table 1.  Overwrites are also counted in
    the plain write counters (an overwrite *is* a write), mirroring how the
    paper reports both columns independently.
    """

    read_ops_seq: int = 0
    read_ops_rand: int = 0
    read_bytes_seq: int = 0
    read_bytes_rand: int = 0
    write_ops_seq: int = 0
    write_ops_rand: int = 0
    write_bytes_seq: int = 0
    write_bytes_rand: int = 0
    overwrite_ops: int = 0
    overwrite_bytes: int = 0

    def record_read(self, nbytes: int, sequential: bool) -> None:
        if sequential:
            self.read_ops_seq += 1
            self.read_bytes_seq += nbytes
        else:
            self.read_ops_rand += 1
            self.read_bytes_rand += nbytes

    def record_write(self, nbytes: int, sequential: bool, overwrite: bool) -> None:
        if sequential:
            self.write_ops_seq += 1
            self.write_bytes_seq += nbytes
        else:
            self.write_ops_rand += 1
            self.write_bytes_rand += nbytes
        if overwrite:
            self.overwrite_ops += 1
            self.overwrite_bytes += nbytes

    # ------------------------------------------------------------------
    @property
    def read_ops(self) -> int:
        return self.read_ops_seq + self.read_ops_rand

    @property
    def write_ops(self) -> int:
        return self.write_ops_seq + self.write_ops_rand

    @property
    def rw_ops(self) -> int:
        """Total read+write operation count (Table 1 READ/WRITE Num.)."""
        return self.read_ops + self.write_ops

    @property
    def read_bytes(self) -> int:
        return self.read_bytes_seq + self.read_bytes_rand

    @property
    def write_bytes(self) -> int:
        return self.write_bytes_seq + self.write_bytes_rand

    @property
    def rw_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def merge(self, other: "OpCounters") -> "OpCounters":
        """Elementwise sum, for cluster-wide aggregation."""
        out = OpCounters()
        for f in self.__dataclass_fields__:
            setattr(out, f, getattr(self, f) + getattr(other, f))
        return out

    @staticmethod
    def aggregate(counters) -> "OpCounters":
        out = OpCounters()
        for c in counters:
            out = out.merge(c)
        return out


@dataclass
class WearModel:
    """FTL-lite flash wear accounting.

    NAND pages are written whole; an in-place logical overwrite invalidates
    pages that garbage collection must later erase and rewrite.  We charge:

    * page writes: ``ceil(nbytes / page)`` per write, plus GC write
      amplification on overwrites;
    * erases: invalidated bytes divided by the erase-block size, scaled by a
      GC amplification factor that is higher for small random overwrites
      (blocks are mostly-valid when erased) than for sequential ones.

    This mirrors why the paper's overwrite counts translate into the 2.5-13x
    lifespan spread (§5.3.4): lifespan is inversely proportional to erases.
    """

    page_size: int = 4096
    erase_block: int = 256 * 1024
    gc_amplification_rand: float = 4.0
    gc_amplification_seq: float = 1.3
    page_writes: int = 0
    erase_ops: float = 0.0

    def record_write(self, nbytes: int, sequential: bool, overwrite: bool) -> None:
        pages = -(-nbytes // self.page_size)
        self.page_writes += pages
        if overwrite:
            amp = self.gc_amplification_seq if sequential else self.gc_amplification_rand
            self.erase_ops += amp * nbytes / self.erase_block
            # GC must rewrite the still-valid remainder of each erase block.
            self.page_writes += int((amp - 1.0) * pages)
        else:
            # Fresh appends are eventually erased once, with no relocation.
            self.erase_ops += nbytes / self.erase_block

    def merge(self, other: "WearModel") -> "WearModel":
        out = WearModel(
            page_size=self.page_size,
            erase_block=self.erase_block,
            gc_amplification_rand=self.gc_amplification_rand,
            gc_amplification_seq=self.gc_amplification_seq,
        )
        out.page_writes = self.page_writes + other.page_writes
        out.erase_ops = self.erase_ops + other.erase_ops
        return out


@dataclass
class NetCounters:
    """Network transfer accounting (messages and payload bytes)."""

    messages: int = 0
    bytes_sent: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, nbytes: int, kind: str = "") -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        if kind:
            self.by_kind[kind] = self.by_kind.get(kind, 0) + nbytes
