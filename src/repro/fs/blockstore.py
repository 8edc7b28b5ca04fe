"""Per-OSD block storage: payload extents mapped onto device offsets.

Blocks are identified by ``(inode, stripe, block_index)`` keys.  Each block
gets a fixed device extent in the ``"blocks"`` zone at allocation time, so
the device model can price the sequentiality of every access.

All I/O methods are generators (they cost virtual time through the device);
``peek``/``install`` are cost-free escape hatches for test assertions and
instant workload pre-loading.

Host memory follows use (``docs/dataplane.md``, "Footprint follows use"):
a block holds only its *written hull*, the page-aligned span
``[lo, lo + len(data))`` covering every range costed I/O or a fold has
touched; bytes outside it read as zero, and an access outside it grows
the hull by copying into the new span.  Growth replaces the hull's
array, so every costed generator resolves the array *after* its last
``yield`` — an array taken before a device wait may be stale by the time
the wait ends.

The store speaks both payload planes (see :mod:`repro.dataplane`): byte
mode holds real ``uint8`` arrays, ghost mode holds
:class:`~repro.dataplane.GhostExtent` metadata.  The plane is bound once
in ``__init__`` — allocator and coverage hooks are method pointers, so the
costed generators are branch-free and charge identical device time on both
planes.  A ghost block's hull is the whole block from the start, so it
never grows.  Ghost mode additionally tracks per-block written-interval
coverage (:class:`~repro.logstruct.intervals.IntervalSet`): with no bytes
to re-encode, "parity coverage equals the union of data-block coverage"
is the drain-consistency invariant the cluster gate checks instead.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Tuple

import numpy as np

from repro.dataplane import GhostExtent, as_payload
from repro.devices.base import StorageDevice
from repro.logstruct.intervals import IntervalSet
from repro.sim.core import Simulator

BlockKey = Tuple[int, int, int]  # (inode, stripe, block_index)

# Hull granularity: a grown hull starts and ends on a page boundary (or
# the block's end), so runs of small writes to one page grow it once.
PAGE = 4096


class _Hull:
    """One block's written hull: ``data`` holds block bytes ``[lo, lo +
    data.size)``.  Mutable in place, so an I/O that parked on the device
    still finds the block after a concurrent access grew it."""

    __slots__ = ("lo", "data")

    def __init__(self, lo: int, data):
        self.lo = lo
        self.data = data


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
        self.blocks: Dict[Hashable, _Hull] = {}
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

    def __iter__(self) -> Iterator[Hashable]:
        """The keys of the blocks the store holds."""
        return iter(self.blocks)

    def device_offset(self, key: Hashable) -> int:
        """The block's base offset in the device's block zone."""
        off = self._extent.get(key)
        if off is None:
            off = self._next_offset
            self._extent[key] = off
            self._next_offset += self.block_size
        return off

    def _new_byte_block(self) -> _Hull:
        return _Hull(0, np.zeros(0, dtype=np.uint8))

    def _new_ghost_block(self) -> _Hull:
        return _Hull(0, GhostExtent(self.block_size))

    def _materialize(self, key: Hashable) -> _Hull:
        hull = self.blocks.get(key)
        if hull is None:
            hull = self._new_block()
            self.blocks[key] = hull
            self.device_offset(key)
        return hull

    def _span(self, hull: _Hull, offset: int, length: int):
        """``hull``'s array and the index of block byte ``offset`` in it,
        the hull first grown to cover ``[offset, offset + length)``."""
        lo, data = hull.lo, hull.data
        end = offset + length
        if lo <= offset and end <= lo + data.size:
            return data, offset - lo
        if length == 0:
            return data[:0], 0
        new_lo = offset - offset % PAGE
        new_hi = min(self.block_size, -(-end // PAGE) * PAGE)
        if data.size:
            new_lo = min(new_lo, lo)
            new_hi = max(new_hi, lo + data.size)
        grown = np.zeros(new_hi - new_lo, dtype=np.uint8)
        grown[lo - new_lo : lo - new_lo + data.size] = data
        hull.lo, hull.data = new_lo, grown
        return grown, offset - new_lo

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
    def write_block(self, key: Hashable, data, pattern: str = "seq"):
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
        self.blocks[key] = _Hull(0, data.copy())
        self._cover(key, 0, self.block_size)

    def read_range(self, key: Hashable, offset: int, length: int, pattern: str = "rand"):
        """Read ``[offset, offset+length)`` of a block; returns the bytes.

        Zero-copy contract: the return value is a **read-only view** into
        the live block, valid until the next write to this block (in
        particular: until the next ``yield`` — any other process may then
        mutate it).  Compute derived values (deltas) synchronously, or
        ``.copy()`` to hold a snapshot across simulated time.  Mutating the
        view raises, so misuse fails loudly instead of corrupting state.
        The read grows the block's hull to the range, after the device
        wait (see the module docstring).
        """
        self._check_range(offset, length)
        hull = self._materialize(key)
        yield from self.device.read(
            length,
            zone=self.ZONE,
            offset=self.device_offset(key) + offset,
            pattern=pattern,
        )
        data, at = self._span(hull, offset, length)
        view = data[at : at + length]
        view.flags.writeable = False
        return view

    def write_range(
        self,
        key: Hashable,
        offset: int,
        data,
        pattern: str = "rand",
    ):
        """In-place range update (always an overwrite in wear terms)."""
        data = as_payload(data)
        self._check_range(offset, data.size)
        hull = self._materialize(key)
        yield from self.device.write(
            data.size,
            zone=self.ZONE,
            offset=self.device_offset(key) + offset,
            pattern=pattern,
            overwrite=True,
        )
        blk, at = self._span(hull, offset, int(data.size))
        blk[at : at + data.size] = data
        self._cover(key, offset, int(data.size))

    def xor_range(
        self,
        key: Hashable,
        offset: int,
        delta,
        pattern: str = "rand",
    ):
        """Read-XOR-write of a range, atomic in content.

        The in-memory XOR applies *after* both simulated I/Os complete and
        never snapshots the old bytes — or the hull's array — across a
        yield, so concurrent delta applications to the same range commute
        instead of losing updates, even when one of them grows the hull
        while the other waits on the device: the property parity-delta
        application needs.
        """
        delta = as_payload(delta)
        self._check_range(offset, delta.size)
        hull = self._materialize(key)
        base = self.device_offset(key) + offset
        yield from self.device.read(
            delta.size, zone=self.ZONE, offset=base, pattern=pattern
        )
        yield from self.device.write(
            delta.size, zone=self.ZONE, offset=base, pattern=pattern, overwrite=True
        )
        blk, at = self._span(hull, offset, int(delta.size))
        blk[at : at + delta.size] ^= delta
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
        blk, at = self._span(self._materialize(key), offset, int(delta.size))
        blk[at : at + delta.size] ^= delta
        self._cover(key, offset, int(delta.size))

    def peek(self, key: Hashable):
        """The whole block's current bytes, read-only; ``None`` if absent.

        A view (no copy) when the hull is the whole block, otherwise a
        zero-filled copy with the hull in place — ``peek`` may copy.
        A view is valid until the next write to the block; assertion and
        scrub callers compare immediately.  ``.copy()`` to keep a snapshot.
        """
        hull = self.blocks.get(key)
        if hull is None:
            return None
        data = hull.data
        if data.size == self.block_size:
            full = data[:]
        else:
            full = np.zeros(self.block_size, dtype=np.uint8)
            full[hull.lo : hull.lo + data.size] = data
        full.flags.writeable = False
        return full

    def install(self, key: Hashable, data) -> None:
        """Place a block without simulating I/O (workload pre-load)."""
        data = as_payload(data)
        if data.size != self.block_size:
            raise ValueError("install size mismatch")
        self.blocks[key] = _Hull(0, data.copy())
        self.device_offset(key)
        self._cover(key, 0, self.block_size)

    def drop(self, key: Hashable) -> None:
        """Forget a block's bytes (no simulated I/O; a no-op if absent).

        Its device extent stays allocated, and ghost-plane coverage is
        kept: a dropped copy is a pruned replica or a failed disk, not a
        block that was never written.
        """
        self.blocks.pop(key, None)

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.block_size:
            raise ValueError(
                f"range [{offset}, {offset}+{length}) outside block of "
                f"{self.block_size}B"
            )
