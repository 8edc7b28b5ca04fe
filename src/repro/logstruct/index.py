"""The two-level index (§3.3.1).

Level 1 is a hash map keyed by block identity; a miss is one dict probe.
Level 2 is a per-block list of non-overlapping, offset-sorted, coalesced
segments holding real payload bytes.  (§3.3.1 also puts a bitmap over a
hash of the key in front of the map; in this model it could only repeat
the dict probe's answer and charges no simulated cost, so there is none.)

Two merge policies implement the paper's two data kinds:

* ``"overwrite"`` — DataLog semantics (Eq. 4): the newest bytes for a
  location supersede older ones, so N same-place updates cost one recycle.
* ``"xor"`` — DeltaLog/ParityLog semantics (Eq. 3): deltas for the same
  location fold together by XOR.

In both policies, adjacent segments concatenate, converting many small
random requests into fewer large sequential ones — the access-granularity
win the paper measures.

:func:`fold_parity_deltas` is Eq. (5) on top of the ``"xor"`` policy: one
stripe's pending data deltas become one patch list per parity block.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.dataplane import GhostExtent, as_payload
from repro.ec.rs import parity_delta


class Segment:
    """One contiguous byte range pending for a block.

    A plain slotted class with ``length``/``end`` precomputed: segment
    extents never change after construction (in-place merges only rewrite
    bytes), and the properties the old dataclass computed per access were
    measurably hot in ``_merge_into``/``lookup_partial`` loops.

    ``owned`` records whether the payload buffer is private to the index:
    zero-copy inserts wrap the *caller's* array (``owned=False`` — the
    caller may retain it, e.g. a client holding its update payload for
    crash retries), while merge rebuilds allocate fresh buffers
    (``owned=True``).  The contained-update fold copies-on-first-write:
    a not-owned buffer is snapshotted once, then folded in place, so a
    handed-over array is never mutated no matter who else references it.
    """

    __slots__ = ("offset", "data", "length", "end", "owned")

    def __init__(self, offset: int, data: np.ndarray, owned: bool = False):
        data = as_payload(data)
        if data.ndim != 1:
            raise ValueError("segment payload must be 1-D bytes")
        self.offset = offset
        self.data = data
        self.length = int(data.size)
        self.end = offset + self.length
        self.owned = owned

    def __lt__(self, other: "Segment") -> bool:
        return self.offset < other.offset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Segment(offset={self.offset}, length={self.length})"


class TwoLevelIndex:
    """Block hash map -> offset-sorted coalesced segment list.

    A contained update folds into the segment buffer it lands in, in place;
    every other overlap rebuilds the touched segments into a fresh buffer.
    Copy-on-first-write (:attr:`Segment.owned`) keeps both paths off the
    caller's arrays, so one payload may sit in several indexes at once —
    PARIX hands the same original/latest array to every parity OSD.
    """

    __slots__ = ("policy", "_blocks")

    def __init__(self, policy: str = "overwrite"):
        if policy not in ("overwrite", "xor"):
            raise ValueError(f"policy must be 'overwrite' or 'xor', got {policy!r}")
        self.policy = policy
        self._blocks: Dict[Hashable, List[Segment]] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def segment_count(self) -> int:
        return sum(len(v) for v in self._blocks.values())

    @property
    def merged_bytes(self) -> int:
        """Bytes the recycler will actually move (post-merge)."""
        return sum(seg.length for v in self._blocks.values() for seg in v)

    # ------------------------------------------------------------------
    # insertion with merge
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, offset: int, data: np.ndarray) -> None:
        """Record ``data`` at ``offset`` of block ``key`` under the policy.

        Ownership transfer (zero-copy): the index keeps a *reference* to
        ``data`` — callers hand over payloads they will never mutate again
        (RPC payload arrays, freshly computed deltas).  The historical
        defensive copy per insert was the single largest allocation source
        on the log append path.
        """
        data = as_payload(data)
        if offset < 0:
            raise ValueError("negative offset")
        if data.size == 0:
            return
        segs = self._blocks.get(key)
        if segs is None:
            self._blocks[key] = [Segment(offset, data)]
            return
        # Ascending-offset streams append past the last segment constantly;
        # skip the bisect entirely when the new range starts strictly after
        # everything (strictly: an exactly-adjacent range must coalesce).
        if offset > segs[-1].end:
            segs.append(Segment(offset, data))
            return
        self._merge_into(segs, Segment(offset, data))

    def _merge_into(self, segs: List[Segment], new: Segment) -> None:
        # Candidates: every existing segment overlapping or exactly adjacent
        # to [new.offset, new.end].
        starts = [s.offset for s in segs]
        lo = bisect_left(starts, new.offset)
        # The segment before lo may still reach into the new range.
        if lo > 0 and segs[lo - 1].end >= new.offset:
            lo -= 1
        hi = lo
        while hi < len(segs) and segs[hi].offset <= new.end:
            hi += 1
        if lo == hi:
            segs.insert(lo, new)
            return
        if hi - lo == 1:
            s = segs[lo]
            if s.offset <= new.offset and s.end >= new.end:
                # Contained-update fast path (the same hot location written
                # again — the dominant case under temporal locality): fold
                # the bytes into the existing segment in place.  No buffer
                # rebuild, no interval union, no list splice.  Copy-on-
                # first-write: a buffer the index does not own (a zero-copy
                # caller array — possibly retained by the client for crash
                # retries, possibly read-only) is snapshotted exactly once,
                # so handed-over arrays are never mutated; after that the
                # private buffer folds in place for free.  Views handed out
                # by earlier lookups alias the private buffer, so the
                # payload contract is BlockStore-like: fragments are valid
                # until the next insert touching the block; read paths
                # patch them into their own buffers before yielding.
                if not s.owned:
                    s.data = s.data.copy()
                    s.owned = True
                a, b = new.offset - s.offset, new.end - s.offset
                if self.policy == "overwrite":
                    s.data[a:b] = new.data
                else:
                    s.data[a:b] ^= new.data
                return
        group = segs[lo:hi]
        start = min(new.offset, group[0].offset)
        end = max(new.end, max(s.end for s in group))
        # Merge-buffer allocation dispatches on the *payload type* of what
        # is already in the index (a non-generator materialization point —
        # plane-discipline clean): ghost segments rebuild into a ghost
        # buffer whose slice/assign/xor ops are pure size bookkeeping.
        if type(group[0].data) is GhostExtent:
            buf = GhostExtent(end - start)
        else:
            buf = np.zeros(end - start, dtype=np.uint8)
        for s in group:
            buf[s.offset - start : s.end - start] = s.data
        nlo, nhi = new.offset - start, new.end - start
        if self.policy == "overwrite":
            buf[nlo:nhi] = new.data
        else:  # xor
            buf[nlo:nhi] ^= new.data
        # The union of overlapping-or-adjacent ranges can still contain
        # interior gaps (two old segments bridged only partially by the new
        # one); split on uncovered runs to keep segments truly contiguous.
        # The runs come straight from the interval union of the (sorted)
        # group plus the new range — no boolean bitmap scan needed.
        # Views, not copies: ``buf`` is freshly built and exclusively owned
        # by the merged segments (a single full-coverage run is the common
        # case, where the copy was pure waste).
        pieces = _interval_union(group, nlo, nhi, start)
        # ``buf`` is freshly built and exclusively the merged segments',
        # so they own their (disjoint) views of it.
        merged = [Segment(start + a, buf[a:b], owned=True) for a, b in pieces]
        segs[lo:hi] = merged

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def segments(self, key: Hashable) -> List[Segment]:
        """The merged, offset-sorted pending segments of one block."""
        return list(self._blocks.get(key, ()))

    def blocks(self) -> Iterator[Hashable]:
        return iter(self._blocks.keys())

    def lookup(self, key: Hashable, offset: int, length: int) -> Optional[np.ndarray]:
        """Return the bytes of ``[offset, offset+length)`` iff fully present."""
        segs = self._blocks.get(key)
        if not segs:
            return None
        end = offset + length
        starts = [s.offset for s in segs]
        i = bisect_right(starts, offset) - 1
        if i < 0:
            return None
        s = segs[i]
        if s.offset <= offset and s.end >= end:
            # A read-only view, valid until the next insert touching this
            # block (contained updates fold into segment buffers in place —
            # same contract as BlockStore views: derive synchronously or
            # ``.copy()``).  In-place mutation by a caller raises instead
            # of silently corrupting the log.
            view = s.data[offset - s.offset : end - s.offset]
            view.flags.writeable = False
            return view
        return None

    def lookup_partial(
        self, key: Hashable, offset: int, length: int
    ) -> List[Tuple[int, np.ndarray]]:
        """All cached sub-ranges intersecting ``[offset, offset+length)``.

        Returns (absolute_offset, bytes) pairs — the read path overlays these
        on disk data.  The byte arrays are views into live segment payloads
        (valid until the next insert touching the block); callers copy
        *from* them (patching into their own read buffers) and must not
        mutate them.
        """
        segs = self._blocks.get(key)
        if not segs:
            return []
        end = offset + length
        out: List[Tuple[int, np.ndarray]] = []
        for s in segs:
            if s.end <= offset:
                continue
            if s.offset >= end:
                break
            a = max(offset, s.offset)
            b = min(end, s.end)
            frag = s.data[a - s.offset : b - s.offset]
            frag.flags.writeable = False
            out.append((a, frag))
        return out

    def pop_block(self, key: Hashable) -> List[Segment]:
        """Remove and return one block's segments (recycler consumption)."""
        return self._blocks.pop(key, [])

    def clear(self) -> None:
        self._blocks.clear()


def fold_parity_deltas(
    codec, parity_index: int, per_block: Dict[int, List[Segment]]
) -> List[Tuple[int, np.ndarray]]:
    """Eq. (5) over log segments: one stripe's pending data deltas
    (data-block index -> segments) as the offset-sorted ``(offset, delta)``
    patches of one parity block — each segment scaled by its coding
    coefficient (Eq. 2), overlaps XOR-folded, adjacent runs coalesced."""
    combined = TwoLevelIndex("xor")
    for j, segs in per_block.items():
        coeff = codec.coefficient(parity_index, j)
        for s in segs:
            combined.insert(parity_index, s.offset, parity_delta(coeff, s.data))
    return [(s.offset, s.data) for s in combined.segments(parity_index)]


def _interval_union(
    group: List[Segment], nlo: int, nhi: int, base: int
) -> List[Tuple[int, int]]:
    """Coalesced [a, b) runs covered by ``group`` plus the new range.

    ``group`` is offset-sorted; the new range ``[nlo, nhi)`` is relative to
    ``base`` (as are the returned runs).  Adjacent-or-overlapping intervals
    merge into one run, exactly like maximal True-runs over the equivalent
    coverage bitmap — without materialising the bitmap.
    """
    runs: List[Tuple[int, int]] = []
    placed = False
    for s in group:
        a, b = s.offset - base, s.end - base
        if not placed and nlo <= a:
            runs.append((nlo, nhi))
            placed = True
        runs.append((a, b))
    if not placed:
        runs.append((nlo, nhi))
    # Single sorted-by-start sweep; group was sorted, and the new range was
    # inserted at its sorted position above.
    out: List[Tuple[int, int]] = [runs[0]]
    for a, b in runs[1:]:
        la, lb = out[-1]
        if a <= lb:
            if b > lb:
                out[-1] = (la, b)
        else:
            out.append((a, b))
    return out


def _covered_runs(covered: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal [a, b) runs of True in a boolean array (reference impl).

    Kept for tests: :func:`_interval_union` must agree with this on the
    equivalent coverage bitmap.
    """
    idx = np.flatnonzero(covered)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    return [(int(idx[a]), int(idx[b]) + 1) for a, b in zip(starts, ends)]
