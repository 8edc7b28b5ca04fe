"""Stripe geometry: mapping file byte ranges onto (stripe, block, offset).

A file is striped RAID-0 style across stripes of k data blocks; each stripe
additionally stores m parity blocks.  ``StripeMap`` is pure geometry (no
bytes); the file system layers placement and storage on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class BlockAddr:
    """Identifies one block of one stripe of one file.

    ``block_index`` is global within the stripe: 0..k-1 are data blocks,
    k..k+m-1 are parity blocks.
    """

    inode: int
    stripe: int
    block_index: int

    def key(self) -> Tuple[int, int, int]:
        return (self.inode, self.stripe, self.block_index)


@dataclass(frozen=True)
class Extent:
    """A contiguous range inside one data block, in block-local bytes."""

    addr: BlockAddr
    offset: int
    length: int
    file_offset: int  # where this extent starts in the file


class StripeMap:
    """Translates file byte ranges to per-block extents for an RS(k,m) file."""

    def __init__(self, k: int, m: int, block_size: int):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if k < 1 or m < 0:
            raise ValueError(f"invalid geometry k={k} m={m}")
        self.k = k
        self.m = m
        self.block_size = block_size
        self.stripe_span = k * block_size

    def locate(self, file_offset: int) -> Tuple[int, int, int]:
        """(stripe, data_block_index, block_offset) of one file byte."""
        if file_offset < 0:
            raise ValueError("negative file offset")
        stripe, within = divmod(file_offset, self.stripe_span)
        block, off = divmod(within, self.block_size)
        return stripe, block, off

    def extents(self, inode: int, file_offset: int, length: int) -> List[Extent]:
        """Split ``[file_offset, file_offset+length)`` into block extents.

        Extents are returned in file order and never cross a block boundary.
        """
        if length < 0:
            raise ValueError("negative length")
        out: List[Extent] = []
        pos = file_offset
        remaining = length
        while remaining > 0:
            stripe, block, off = self.locate(pos)
            take = min(remaining, self.block_size - off)
            out.append(
                Extent(
                    addr=BlockAddr(inode, stripe, block),
                    offset=off,
                    length=take,
                    file_offset=pos,
                )
            )
            pos += take
            remaining -= take
        return out
