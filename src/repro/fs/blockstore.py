"""Per-OSD block storage: payload extents mapped onto device offsets.

Blocks are identified by ``(inode, stripe, block_index)`` keys.  Each block
gets a fixed device extent in the ``"blocks"`` zone at allocation time, so
the device model can price the sequentiality of every access.

All I/O methods are generators (they cost virtual time through the device);
``peek``/``install`` are cost-free escape hatches for test assertions and
instant workload pre-loading.

The store speaks both payload planes (see :mod:`repro.dataplane`): byte
mode holds real ``uint8`` arrays, ghost mode holds
:class:`~repro.dataplane.GhostExtent` metadata.  The plane is bound once
in ``__init__`` — allocator and coverage hooks are method pointers, so the
costed generators are branch-free and charge identical device time on both
planes.  Ghost mode additionally tracks per-block written-interval
coverage (:class:`~repro.logstruct.intervals.IntervalSet`): with no bytes
to re-encode, "parity coverage equals the union of data-block coverage"
is the drain-consistency invariant the cluster gate checks instead.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.dataplane import GhostExtent, as_payload
from repro.devices.base import StorageDevice
from repro.logstruct.intervals import IntervalSet
from repro.sim.core import Simulator

BlockKey = Tuple[int, int, int]  # (inode, stripe, block_index)


class BlockStore:
    """Block payloads + device-extent allocation for one OSD."""

    ZONE = "blocks"

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        block_size: int,
        ghost: bool = False,
    ):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.sim = sim
        self.device = device
        self.block_size = block_size
        self.ghost = ghost
        self.blocks: Dict[Hashable, np.ndarray] = {}
        self._extent: Dict[Hashable, int] = {}
        self._next_offset = 0
        # Plane binding happens exactly once, here: the costed generators
        # below call these method pointers and never consult the flag, so
        # timing is plane-independent by construction (and
        # ``tests/test_ghost_equivalence.py`` keeps it that way).
        if ghost:
            self._new_block = self._new_ghost_block
            self._cover = self._cover_add
            self.coverage: Dict[Hashable, IntervalSet] = {}
        else:
            self._new_block = self._new_byte_block
            self._cover = self._cover_skip
            self.coverage = {}

    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def device_offset(self, key: Hashable) -> int:
        """The block's base offset in the device's block zone."""
        off = self._extent.get(key)
        if off is None:
            off = self._next_offset
            self._extent[key] = off
            self._next_offset += self.block_size
        return off

    def _new_byte_block(self) -> np.ndarray:
        return np.zeros(self.block_size, dtype=np.uint8)

    def _new_ghost_block(self) -> GhostExtent:
        return GhostExtent(self.block_size)

    def _materialize(self, key: Hashable):
        blk = self.blocks.get(key)
        if blk is None:
            blk = self._new_block()
            self.blocks[key] = blk
            self.device_offset(key)
        return blk

    # ------------------------------------------------------------------
    # coverage accounting (ghost-plane consistency substrate)
    # ------------------------------------------------------------------
    def _cover_add(self, key: Hashable, offset: int, length: int) -> None:
        cov = self.coverage.get(key)
        if cov is None:
            cov = self.coverage[key] = IntervalSet()
        cov.add(offset, offset + length)

    def _cover_skip(self, key: Hashable, offset: int, length: int) -> None:
        return None

    def covered(self, key: Hashable) -> IntervalSet:
        """The written-interval coverage of one block (ghost mode)."""
        cov = self.coverage.get(key)
        return cov if cov is not None else IntervalSet()

    # ------------------------------------------------------------------
    # costed I/O (generators)
    # ------------------------------------------------------------------
    def write_block(self, key: Hashable, data, pattern: Optional[str] = "seq"):
        """Write a whole block (fresh create or full overwrite)."""
        data = as_payload(data)
        if data.size != self.block_size:
            raise ValueError(
                f"block payload {data.size}B != block size {self.block_size}B"
            )
        overwrite = key in self.blocks
        yield from self.device.write(
            self.block_size,
            zone=self.ZONE,
            offset=self.device_offset(key),
            pattern=pattern,
            overwrite=overwrite,
        )
        self.blocks[key] = data.copy()
        self._cover(key, 0, self.block_size)

    def read_range(self, key: Hashable, offset: int, length: int, pattern: Optional[str] = "rand"):
        """Read ``[offset, offset+length)`` of a block; returns the bytes.

        Zero-copy contract: the return value is a **read-only view** into
        the live block, valid until the next write to this block (in
        particular: until the next ``yield`` — any other process may then
        mutate it).  Compute derived values (deltas) synchronously, or
        ``.copy()`` to hold a snapshot across simulated time.  Mutating the
        view raises, so misuse fails loudly instead of corrupting state.
        """
        self._check_range(offset, length)
        blk = self._materialize(key)
        yield from self.device.read(
            length,
            zone=self.ZONE,
            offset=self.device_offset(key) + offset,
            pattern=pattern,
        )
        view = blk[offset : offset + length]
        view.flags.writeable = False
        return view

    def write_range(
        self,
        key: Hashable,
        offset: int,
        data,
        pattern: Optional[str] = "rand",
    ):
        """In-place range update (always an overwrite in wear terms)."""
        data = as_payload(data)
        self._check_range(offset, data.size)
        blk = self._materialize(key)
        yield from self.device.write(
            data.size,
            zone=self.ZONE,
            offset=self.device_offset(key) + offset,
            pattern=pattern,
            overwrite=True,
        )
        blk[offset : offset + data.size] = data
        self._cover(key, offset, int(data.size))

    def xor_range(
        self,
        key: Hashable,
        offset: int,
        delta,
        pattern: Optional[str] = "rand",
    ):
        """Read-XOR-write of a range, atomic in content.

        The in-memory XOR applies *after* both simulated I/Os complete and
        never snapshots the old bytes across a yield, so concurrent delta
        applications to the same range commute instead of losing updates —
        the property parity-delta application needs.
        """
        delta = as_payload(delta)
        self._check_range(offset, delta.size)
        blk = self._materialize(key)
        base = self.device_offset(key) + offset
        yield from self.device.read(
            delta.size, zone=self.ZONE, offset=base, pattern=pattern
        )
        yield from self.device.write(
            delta.size, zone=self.ZONE, offset=base, pattern=pattern, overwrite=True
        )
        blk[offset : offset + delta.size] ^= delta
        self._cover(key, offset, int(delta.size))

    # ------------------------------------------------------------------
    # cost-free access (assertions / instant load / recycle folds)
    # ------------------------------------------------------------------
    def fold_xor(self, key: Hashable, offset: int, delta) -> None:
        """XOR ``delta`` into a block with no simulated I/O of its own.

        The in-memory half of a recycle merge whose device cost the caller
        already charged (PL's per-entry random I/O, PLR's whole-chunk
        rewrite).  Routing the fold through the store — instead of poking
        ``_materialize`` buffers directly — keeps ghost-plane coverage
        accounting complete, which the drain-consistency gate relies on.
        """
        self._check_range(offset, int(delta.size))
        blk = self._materialize(key)
        blk[offset : offset + delta.size] ^= delta
        self._cover(key, offset, int(delta.size))

    def peek(self, key: Hashable):
        """The block's current bytes as a read-only view (no copy).

        Valid until the next write to the block; assertion/scrub callers
        compare immediately.  ``.copy()`` to keep a snapshot.
        """
        blk = self.blocks.get(key)
        if blk is None:
            return None
        view = blk[:]
        view.flags.writeable = False
        return view

    def install(self, key: Hashable, data) -> None:
        """Place a block without simulating I/O (workload pre-load)."""
        data = as_payload(data)
        if data.size != self.block_size:
            raise ValueError("install size mismatch")
        self.blocks[key] = data.copy()
        self.device_offset(key)
        self._cover(key, 0, self.block_size)

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.block_size:
            raise ValueError(
                f"range [{offset}, {offset}+{length}) outside block of "
                f"{self.block_size}B"
            )
