"""Tests for the RS codec and the incremental-update identities (Eqs. 2-5).

The identities are checked on the code the model runs: Eq. (2) is
``RSCodec.parity_delta``, Eq. (3) is the ``TwoLevelIndex("xor")`` fold the
DeltaLog / ParityLog keep, and Eq. (5) is ``fold_parity_deltas``, which
TSUE's DeltaLog recycle and CoRD's collector call.  The file is one of
``tests/test_gf_native.py::REFERENCE_SUITES``, so it also runs on the numpy
reference path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import RSCodec, parity_delta
from repro.gf import gf_mul
from repro.logstruct.index import Segment, TwoLevelIndex, fold_parity_deltas

BLOCK = 128


def _blocks(rng, k, size=BLOCK):
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(k)]


GEOMETRIES = [(2, 2), (6, 2), (6, 3), (6, 4), (12, 4)]


@pytest.mark.parametrize(
    "k,m", GEOMETRIES, ids=[f"vandermonde-{k}-{m}" for k, m in GEOMETRIES]
)
def test_encode_decode_roundtrip_after_max_loss(k, m):
    rng = np.random.default_rng(k * 31 + m)
    codec = RSCodec(k, m)
    data = _blocks(rng, k)
    parity = codec.encode(data)
    shards = {i: b for i, b in enumerate(data)}
    shards.update({k + i: p for i, p in enumerate(parity)})
    # Drop m shards, mixing data and parity.
    lost = list(range(0, m - 1)) + [k]  # m-1 data blocks + 1 parity block
    for b in lost:
        del shards[b]
    rebuilt = codec.reconstruct(shards, lost)
    for b in lost:
        expected = data[b] if b < k else parity[b - k]
        assert np.array_equal(rebuilt[b], expected)


def test_decode_requires_k_shards():
    codec = RSCodec(4, 2)
    rng = np.random.default_rng(0)
    data = _blocks(rng, 4)
    shards = {0: data[0], 1: data[1], 2: data[2]}
    with pytest.raises(ValueError, match="at least k"):
        codec.decode(shards)


def test_unequal_block_sizes_rejected():
    codec = RSCodec(2, 1)
    with pytest.raises(ValueError, match="equal-length"):
        codec.encode([np.zeros(4, dtype=np.uint8), np.zeros(8, dtype=np.uint8)])


def test_reconstruct_index_range_checked():
    codec = RSCodec(2, 1)
    rng = np.random.default_rng(0)
    data = _blocks(rng, 2)
    parity = codec.encode(data)
    shards = {0: data[0], 1: data[1], 2: parity[0]}
    with pytest.raises(ValueError):
        codec.reconstruct(shards, [5])


def _patched(parity, patches):
    """``parity`` with every ``(offset, delta)`` patch XORed into its range."""
    out = parity.copy()
    for offset, delta in patches:
        out[offset : offset + delta.size] ^= delta
    return out


# ----------------------------------------------------------------------
# Eq. (2): single-update parity delta
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2**32),
)
def test_eq2_parity_delta_equals_full_reencode(data_index, seed):
    rng = np.random.default_rng(seed)
    codec = RSCodec(6, 3)
    data = _blocks(rng, 6)
    parity = codec.encode(data)
    new_block = rng.integers(0, 256, BLOCK, dtype=np.uint8)
    delta = data[data_index] ^ new_block
    data2 = list(data)
    data2[data_index] = new_block
    expected = codec.encode(data2)
    for p in range(3):
        patch = codec.parity_delta(data_index, p, delta)
        assert np.array_equal(_patched(parity[p], [(0, patch)]), expected[p])


def test_eq2_partial_offset_update():
    rng = np.random.default_rng(7)
    codec = RSCodec(4, 2)
    data = _blocks(rng, 4)
    parity = codec.encode(data)
    # Update 16 bytes at offset 32 of block 2.
    patch = rng.integers(0, 256, 16, dtype=np.uint8)
    delta = data[2][32:48] ^ patch
    data2 = [b.copy() for b in data]
    data2[2][32:48] = patch
    expected = codec.encode(data2)
    for p in range(2):
        got = _patched(parity[p], [(32, codec.parity_delta(2, p, delta))])
        assert np.array_equal(got, expected[p])


# ----------------------------------------------------------------------
# Eq. (3): same-location deltas fold by XOR in the DeltaLog index
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=5))
def test_eq3_n_updates_collapse_to_one_delta(seed, n_updates):
    rng = np.random.default_rng(seed)
    codec = RSCodec(4, 2)
    data = _blocks(rng, 4)
    parity = codec.encode(data)
    versions = [data[1]] + [
        rng.integers(0, 256, BLOCK, dtype=np.uint8) for _ in range(n_updates)
    ]
    # Log the per-step deltas into an XOR index, as the DeltaLog does...
    index = TwoLevelIndex("xor")
    for old, new in zip(versions, versions[1:]):
        index.insert("blk", 0, old ^ new)
    # ...which folds them into the first-to-last delta of Eq. (4).
    (folded,) = index.segments("blk")
    assert folded.offset == 0
    assert np.array_equal(folded.data, versions[0] ^ versions[-1])
    data2 = list(data)
    data2[1] = versions[-1]
    expected = codec.encode(data2)
    for p in range(2):
        patch = codec.parity_delta(1, p, folded.data)
        assert np.array_equal(_patched(parity[p], [(0, patch)]), expected[p])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, BLOCK - 1), st.integers(1, BLOCK)),
        min_size=1, max_size=12,
    ),
    st.integers(min_value=0, max_value=2**32),
)
def test_eq3_overlapping_partial_deltas_fold_to_the_net_delta(extents, seed):
    """Partial writes at arbitrary, overlapping offsets: the XOR index's
    segments are the net data delta, and patching parity with them equals
    re-encoding the final block."""
    rng = np.random.default_rng(seed)
    codec = RSCodec(4, 2)
    data = _blocks(rng, 4)
    parity = codec.encode(data)
    block = data[3].copy()
    index = TwoLevelIndex("xor")
    for offset, length in extents:
        length = min(length, BLOCK - offset)
        new = rng.integers(0, 256, length, dtype=np.uint8)
        index.insert("blk", offset, block[offset : offset + length] ^ new)
        block[offset : offset + length] = new
    segs = index.segments("blk")
    assert all(a.end < b.offset for a, b in zip(segs, segs[1:]))
    net = _patched(np.zeros(BLOCK, dtype=np.uint8), [(s.offset, s.data) for s in segs])
    assert np.array_equal(net, data[3] ^ block)
    data2 = list(data)
    data2[3] = block
    expected = codec.encode(data2)
    for p in range(2):
        patches = [(s.offset, codec.parity_delta(3, p, s.data)) for s in segs]
        assert np.array_equal(_patched(parity[p], patches), expected[p])


# ----------------------------------------------------------------------
# Eq. (5): one stripe's deltas fold into one patch list per parity block
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_eq5_combined_delta_equals_sequential_patches(seed):
    rng = np.random.default_rng(seed)
    codec = RSCodec(6, 3)
    data = _blocks(rng, 6)
    parity = codec.encode(data)
    per_block = {}
    data2 = list(data)
    for j in (1, 2, 4):
        nb = rng.integers(0, 256, BLOCK, dtype=np.uint8)
        per_block[j] = [Segment(0, data[j] ^ nb)]
        data2[j] = nb
    expected = codec.encode(data2)
    for p in range(3):
        entries = fold_parity_deltas(codec, p, per_block)
        assert [(off, d.size) for off, d in entries] == [(0, BLOCK)]
        assert np.array_equal(_patched(parity[p], entries), expected[p])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, BLOCK - 1), st.integers(1, BLOCK),
            st.booleans(),
        ),
        min_size=1, max_size=10,
    ),
    st.integers(min_value=0, max_value=2**32),
)
def test_eq5_fold_over_offset_segments_equals_reencode(updates, seed):
    """Segments at any offsets in several data blocks, overlapping within
    and across blocks, some all-zero: every parity block's folded patches
    are sorted, disjoint and non-adjacent, and they turn the old parity
    into the re-encoded parity of the updated stripe."""
    rng = np.random.default_rng(seed)
    codec = RSCodec(6, 3)
    data = _blocks(rng, 6)
    parity = codec.encode(data)
    data2 = [b.copy() for b in data]
    per_block = {}
    for j, offset, length, zero in updates:
        length = min(length, BLOCK - offset)
        new = data2[j][offset : offset + length].copy()
        if not zero:
            new = rng.integers(0, 256, length, dtype=np.uint8)
        per_block.setdefault(j, []).append(
            Segment(offset, data2[j][offset : offset + length] ^ new)
        )
        data2[j][offset : offset + length] = new
    expected = codec.encode(data2)
    for p in range(3):
        entries = fold_parity_deltas(codec, p, per_block)
        spans = [(off, off + d.size) for off, d in entries]
        assert all(a_end < b_off for (_, a_end), (b_off, _) in zip(spans, spans[1:]))
        assert np.array_equal(_patched(parity[p], entries), expected[p])


def test_eq5_fold_coalesces_adjacent_and_overlapping_patches():
    codec = RSCodec(4, 2)
    ones = np.ones(8, dtype=np.uint8)
    per_block = {
        0: [Segment(0, ones), Segment(40, ones)],
        1: [Segment(8, ones)],          # adjacent to block 0's first run
        2: [Segment(44, ones)],         # overlaps block 0's second run
        3: [Segment(100, np.zeros(4, dtype=np.uint8))],  # a zero delta
    }
    for p in range(2):
        entries = fold_parity_deltas(codec, p, per_block)
        assert [(off, d.size) for off, d in entries] == [(0, 16), (40, 12), (100, 4)]
        c = [codec.coefficient(p, j) for j in range(4)]
        first, second, zero = (d for _, d in entries)
        assert list(first) == [c[0]] * 8 + [c[1]] * 8
        assert list(second) == [c[0]] * 4 + [c[0] ^ c[2]] * 4 + [c[2]] * 4
        assert not zero.any()
    assert fold_parity_deltas(codec, 0, {}) == []


def test_module_level_helpers_match_codec():
    rng = np.random.default_rng(3)
    codec = RSCodec(4, 2)
    d = rng.integers(0, 256, 32, dtype=np.uint8)
    coeff = codec.coefficient(1, 2)
    assert np.array_equal(
        parity_delta(coeff, d), codec.parity_delta(2, 1, d)
    )
    ((offset, folded),) = fold_parity_deltas(codec, 1, {2: [Segment(0, d)]})
    assert offset == 0 and np.array_equal(folded, codec.parity_delta(2, 1, d))


# ----------------------------------------------------------------------
# the byte-plane kernel under the codec (blocks of whole vectors plus tails)
# ----------------------------------------------------------------------
def _dense_parity(codec, data):
    """Parity term by term through elementwise ``gf_mul``, the codec's reference."""
    out = [np.zeros(data[0].size, dtype=np.uint8) for _ in range(codec.m)]
    for p in range(codec.m):
        for j, blk in enumerate(data):
            out[p] ^= gf_mul(codec.parity_matrix[p, j], blk)
    return out


def test_encode_with_every_subset_of_zero_blocks_equals_dense_product():
    from itertools import combinations

    k, m, size = 6, 2, 1024
    codec = RSCodec(k, m)
    rng = np.random.default_rng(17)
    full = _blocks(rng, k, size)
    for n_zero in range(k + 1):
        for zeroed in combinations(range(k), n_zero):
            data = [
                np.zeros(size, dtype=np.uint8) if j in zeroed else full[j]
                for j in range(k)
            ]
            for got, want in zip(codec.encode(data), _dense_parity(codec, data)):
                assert np.array_equal(got, want), f"zero blocks {zeroed}"


@pytest.mark.parametrize("k,m", [(6, 2), (12, 4)])
def test_roundtrips_every_loss_pattern_match_dense_reference(k, m):
    from itertools import combinations

    size = 2048 + 1  # whole 32-byte vectors plus an odd tail
    codec = RSCodec(k, m)
    rng = np.random.default_rng(k + m)
    data = _blocks(rng, k, size)
    data[1] = np.zeros(size, dtype=np.uint8)
    parity = codec.encode(data)
    for got, want in zip(parity, _dense_parity(codec, data)):
        assert np.array_equal(got, want)
    blocks = data + parity
    # Every loss pattern brings its own inverse matrix, i.e. fresh
    # coefficients.
    for lost in list(combinations(range(k + m), m))[:40]:
        shards = {i: b for i, b in enumerate(blocks) if i not in lost}
        rebuilt = codec.reconstruct(shards, lost)
        for b in lost:
            assert np.array_equal(rebuilt[b], blocks[b]), f"lost {lost}"
        decoded = codec.decode(shards)
        for j in range(k):
            assert np.array_equal(decoded[j], data[j])


def test_fold_parity_deltas_wide_operands_match_sequential_patches():
    k, m, size = 6, 2, 4096 + 1
    codec = RSCodec(k, m)
    rng = np.random.default_rng(23)
    deltas = {j: rng.integers(0, 256, size, dtype=np.uint8) for j in (0, 2, 5)}
    deltas[2] = np.zeros(size, dtype=np.uint8)  # an update that changed nothing
    per_block = {j: [Segment(0, d)] for j, d in deltas.items()}
    for p in range(m):
        want = np.zeros(size, dtype=np.uint8)
        for j, d in deltas.items():
            want ^= parity_delta(codec.coefficient(p, j), d)
        ((offset, got),) = fold_parity_deltas(codec, p, per_block)
        assert offset == 0 and np.array_equal(got, want)
