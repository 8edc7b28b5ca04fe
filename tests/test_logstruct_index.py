"""Unit + property tests for the two-level index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logstruct import TwoLevelIndex
from repro.logstruct.index import _covered_runs


def arr(*vals):
    return np.array(vals, dtype=np.uint8)


def test_policy_validation():
    with pytest.raises(ValueError):
        TwoLevelIndex(policy="append")


def test_insert_and_lookup():
    idx = TwoLevelIndex("overwrite")
    idx.insert("blk", 10, arr(1, 2, 3))
    assert "blk" in idx
    assert np.array_equal(idx.lookup("blk", 10, 3), arr(1, 2, 3))
    assert np.array_equal(idx.lookup("blk", 11, 2), arr(2, 3))
    assert idx.lookup("blk", 9, 3) is None  # not fully covered
    assert idx.lookup("ghost", 0, 1) is None


def test_same_offset_overwrite_newest_wins():
    idx = TwoLevelIndex("overwrite")
    idx.insert("b", 0, arr(1, 1, 1, 1))
    idx.insert("b", 0, arr(9, 9, 9, 9))
    segs = idx.segments("b")
    assert len(segs) == 1
    assert np.array_equal(segs[0].data, arr(9, 9, 9, 9))
    # Two 4-byte inserts, one 4-byte segment for the recycler to move.
    assert idx.merged_bytes == 4


def test_same_offset_xor_policy_folds():
    idx = TwoLevelIndex("xor")
    idx.insert("b", 0, arr(0b1010, 0b1111))
    idx.insert("b", 0, arr(0b0110, 0b1111))
    segs = idx.segments("b")
    assert len(segs) == 1
    assert np.array_equal(segs[0].data, arr(0b1100, 0))


def test_adjacent_segments_coalesce():
    idx = TwoLevelIndex("overwrite")
    idx.insert("b", 0, arr(1, 2))
    idx.insert("b", 2, arr(3, 4))
    segs = idx.segments("b")
    assert len(segs) == 1
    assert segs[0].offset == 0
    assert np.array_equal(segs[0].data, arr(1, 2, 3, 4))


def test_gap_keeps_segments_separate():
    idx = TwoLevelIndex("overwrite")
    idx.insert("b", 0, arr(1, 2))
    idx.insert("b", 10, arr(3))
    assert len(idx.segments("b")) == 2
    assert idx.segment_count == 2


def test_partial_overlap_overwrite():
    idx = TwoLevelIndex("overwrite")
    idx.insert("b", 0, arr(1, 1, 1, 1))
    idx.insert("b", 2, arr(7, 7, 7, 7))
    segs = idx.segments("b")
    assert len(segs) == 1
    assert np.array_equal(segs[0].data, arr(1, 1, 7, 7, 7, 7))


def test_partial_overlap_xor():
    idx = TwoLevelIndex("xor")
    idx.insert("b", 0, arr(1, 1, 1, 1))
    idx.insert("b", 2, arr(3, 3, 3, 3))
    segs = idx.segments("b")
    assert np.array_equal(segs[0].data, arr(1, 1, 1 ^ 3, 1 ^ 3, 3, 3))


def test_bridging_with_interior_gap_splits_correctly():
    idx = TwoLevelIndex("overwrite")
    idx.insert("b", 0, arr(1, 1))
    idx.insert("b", 6, arr(2, 2))
    # New segment overlaps the first but not the gap up to 6.
    idx.insert("b", 1, arr(9, 9))
    segs = idx.segments("b")
    assert [(s.offset, s.length) for s in segs] == [(0, 3), (6, 2)]
    assert np.array_equal(segs[0].data, arr(1, 9, 9))


def test_insert_validation():
    idx = TwoLevelIndex()
    with pytest.raises(ValueError):
        idx.insert("b", -1, arr(1))
    idx.insert("b", 0, np.array([], dtype=np.uint8))  # no-op
    assert "b" not in idx


def test_lookup_partial_returns_intersections():
    idx = TwoLevelIndex("overwrite")
    idx.insert("b", 0, arr(1, 1))
    idx.insert("b", 4, arr(2, 2))
    frags = idx.lookup_partial("b", 1, 4)
    assert [(a, list(d)) for a, d in frags] == [(1, [1]), (4, [2])]
    assert idx.lookup_partial("ghost", 0, 10) == []


def test_pop_block_and_clear():
    idx = TwoLevelIndex()
    idx.insert("b", 0, arr(1))
    idx.insert("c", 0, arr(2))
    popped = idx.pop_block("b")
    assert len(popped) == 1 and "b" not in idx._blocks
    idx.clear()
    assert len(idx) == 0 and "c" not in idx
    assert idx.lookup("c", 0, 1) is None


# ----------------------------------------------------------------------
# Property: the index must agree with a naive byte-level model.
# ----------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=64),  # offset
        st.lists(st.integers(0, 255), min_size=1, max_size=16),  # payload
    ),
    min_size=1,
    max_size=24,
)


@settings(deadline=None, max_examples=200)
@given(ops)
def test_overwrite_policy_matches_naive_model(writes):
    idx = TwoLevelIndex("overwrite")
    shadow = {}
    for off, payload in writes:
        idx.insert("b", off, np.array(payload, dtype=np.uint8))
        for i, v in enumerate(payload):
            shadow[off + i] = v
    segs = idx.segments("b")
    # Non-overlapping, sorted, coalesced:
    for a, b in zip(segs, segs[1:]):
        assert a.end < b.offset  # a gap, otherwise they'd have merged
    # Contents match the shadow byte map exactly:
    got = {}
    for s in segs:
        for i, v in enumerate(s.data):
            got[s.offset + i] = int(v)
    assert got == shadow


@settings(deadline=None, max_examples=200)
@given(ops)
def test_xor_policy_matches_naive_model(writes):
    idx = TwoLevelIndex("xor")
    shadow = {}
    for off, payload in writes:
        idx.insert("b", off, np.array(payload, dtype=np.uint8))
        for i, v in enumerate(payload):
            shadow[off + i] = shadow.get(off + i, 0) ^ v
    got = {}
    for s in idx.segments("b"):
        for i, v in enumerate(s.data):
            got[s.offset + i] = int(v)
    assert got == shadow


@settings(deadline=None, max_examples=100)
@given(ops, st.integers(min_value=0, max_value=80), st.integers(min_value=1, max_value=16))
def test_lookup_consistent_with_segments(writes, off, length):
    idx = TwoLevelIndex("overwrite")
    shadow = {}
    for o, payload in writes:
        idx.insert("b", o, np.array(payload, dtype=np.uint8))
        for i, v in enumerate(payload):
            shadow[o + i] = v
    hit = idx.lookup("b", off, length)
    fully_covered = all((off + i) in shadow for i in range(length))
    if hit is not None:
        assert fully_covered
        assert [int(x) for x in hit] == [shadow[off + i] for i in range(length)]
    else:
        # lookup only serves single-segment hits; absence of full coverage
        # is the common reason, a segment boundary inside the range the other.
        if fully_covered:
            segs = idx.segments("b")
            assert not any(
                s.offset <= off and s.end >= off + length for s in segs
            )


def test_inplace_and_rebuild_merges_agree():
    """Both merge paths — the in-place contained fold and the rebuild —
    leave exactly the maximal covered runs of a dense shadow, with its
    bytes, after every insert."""
    rng = np.random.default_rng(42)
    for policy in ("overwrite", "xor"):
        idx = TwoLevelIndex(policy)
        shadow = np.zeros(96, dtype=np.uint8)
        covered = np.zeros(96, dtype=bool)
        for _ in range(300):
            off = int(rng.integers(0, 64))
            size = int(rng.integers(1, 32))
            data = rng.integers(0, 256, size, dtype=np.uint8)
            idx.insert("b", off, data.copy())
            if policy == "overwrite":
                shadow[off : off + size] = data
            else:
                shadow[off : off + size] ^= data
            covered[off : off + size] = True
            assert [(s.offset, s.data.tobytes()) for s in idx.segments("b")] == [
                (a, shadow[a:b].tobytes()) for a, b in _covered_runs(covered)
            ]


def test_contained_fold_never_mutates_shared_handed_arrays():
    """PARIX's requirement: handed-over payloads keep their bytes even when
    later contained updates land on them — the same array object may sit
    in another OSD's index."""
    shared = arr(1, 2, 3, 4, 5, 6, 7, 8)
    a = TwoLevelIndex("overwrite")
    b = TwoLevelIndex("overwrite")
    a.insert("k", 0, shared)
    b.insert("k", 0, shared)
    a.insert("k", 2, arr(99, 99))  # contained update in index a only
    assert np.array_equal(shared, arr(1, 2, 3, 4, 5, 6, 7, 8))
    assert np.array_equal(b.lookup("k", 0, 8), shared)
    assert np.array_equal(a.lookup("k", 0, 8), arr(1, 2, 99, 99, 5, 6, 7, 8))


def test_inplace_fold_copies_read_only_payloads_first():
    """Read-only segment payloads (zero-copy store views) are snapshotted
    by the copy-on-first-write fold; content correct, source untouched."""
    base = arr(1, 2, 3, 4)
    base.flags.writeable = False
    idx = TwoLevelIndex("xor")
    idx.insert("k", 0, base)
    idx.insert("k", 1, arr(0xFF, 0xFF))
    assert np.array_equal(idx.lookup("k", 0, 4), arr(1, 2 ^ 0xFF, 3 ^ 0xFF, 4))
    assert np.array_equal(base, arr(1, 2, 3, 4))


def test_inplace_fold_never_mutates_client_retained_payloads():
    """The retry-idempotency invariant: a client may re-send the exact
    payload array it handed to a log-structured append (crash retry), so
    contained folds must never write into it — the first fold snapshots,
    later folds hit the index-private copy only."""
    retained = arr(10, 11, 12, 13, 14, 15)
    idx = TwoLevelIndex("overwrite")
    idx.insert("k", 0, retained)
    idx.insert("k", 2, arr(99, 99))        # first contained fold: copies
    idx.insert("k", 4, arr(77))            # second fold: in place, private
    assert np.array_equal(retained, arr(10, 11, 12, 13, 14, 15))
    assert np.array_equal(
        idx.lookup("k", 0, 6), arr(10, 11, 99, 99, 77, 15)
    )
