"""Tests for the RS codec and the incremental-update identities (Eqs. 2-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import RSCodec, combine_deltas, merge_delta, parity_delta
from repro.gf import gf_mul

BLOCK = 128


def _blocks(rng, k, size=BLOCK):
    return [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(k)]


@pytest.fixture(params=["vandermonde", "cauchy"])
def construction(request):
    return request.param


@pytest.mark.parametrize("k,m", [(2, 2), (6, 2), (6, 3), (6, 4), (12, 4)])
def test_encode_decode_roundtrip_after_max_loss(k, m, construction):
    rng = np.random.default_rng(k * 31 + m)
    codec = RSCodec(k, m, construction)
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


def test_unknown_construction_rejected():
    with pytest.raises(ValueError):
        RSCodec(4, 2, construction="fountain")


def test_reconstruct_index_range_checked():
    codec = RSCodec(2, 1)
    rng = np.random.default_rng(0)
    data = _blocks(rng, 2)
    parity = codec.encode(data)
    shards = {0: data[0], 1: data[1], 2: parity[0]}
    with pytest.raises(ValueError):
        codec.reconstruct(shards, [5])


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
        patched = codec.apply_update(parity[p], data_index, p, delta)
        assert np.array_equal(patched, expected[p])


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
        got = codec.apply_update(parity[p], 2, p, delta, offset=32)
        assert np.array_equal(got, expected[p])


def test_apply_update_overrun_rejected():
    codec = RSCodec(2, 1)
    parity = np.zeros(8, dtype=np.uint8)
    with pytest.raises(ValueError, match="overruns"):
        codec.apply_update(parity, 0, 0, np.ones(4, dtype=np.uint8), offset=6)


# ----------------------------------------------------------------------
# Eq. (3): same-location deltas merge by XOR
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
    # Fold the per-step deltas via Eq. (3)...
    folded = np.zeros(BLOCK, dtype=np.uint8)
    for old, new in zip(versions, versions[1:]):
        folded = merge_delta(folded, old ^ new)
    # ...which must equal the first-to-last delta of Eq. (4).
    assert np.array_equal(folded, versions[0] ^ versions[-1])
    data2 = list(data)
    data2[1] = versions[-1]
    expected = codec.encode(data2)
    for p in range(2):
        patched = codec.apply_update(parity[p], 1, p, folded)
        assert np.array_equal(patched, expected[p])


def test_merge_delta_shape_mismatch():
    with pytest.raises(ValueError):
        merge_delta(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


# ----------------------------------------------------------------------
# Eq. (5): cross-block delta combining
# ----------------------------------------------------------------------
@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_eq5_combined_delta_equals_sequential_patches(seed):
    rng = np.random.default_rng(seed)
    codec = RSCodec(6, 3)
    data = _blocks(rng, 6)
    parity = codec.encode(data)
    updated = {1: None, 2: None, 4: None}
    deltas = {}
    data2 = list(data)
    for j in updated:
        nb = rng.integers(0, 256, BLOCK, dtype=np.uint8)
        deltas[j] = data[j] ^ nb
        data2[j] = nb
    expected = codec.encode(data2)
    for p in range(3):
        combined = codec.combine_deltas(p, deltas)
        patched = parity[p] ^ combined
        assert np.array_equal(patched, expected[p])


def test_combine_deltas_validation():
    codec = RSCodec(4, 2)
    with pytest.raises(ValueError, match="no deltas"):
        codec.combine_deltas(0, {})
    with pytest.raises(ValueError, match="equal-length"):
        codec.combine_deltas(
            0, {0: np.zeros(4, dtype=np.uint8), 1: np.zeros(8, dtype=np.uint8)}
        )


def test_module_level_helpers_match_codec():
    rng = np.random.default_rng(3)
    codec = RSCodec(4, 2)
    d = rng.integers(0, 256, 32, dtype=np.uint8)
    coeff = codec.coefficient(1, 2)
    assert np.array_equal(
        parity_delta(coeff, d), codec.parity_delta(2, 1, d)
    )
    assert np.array_equal(
        combine_deltas(codec.parity_matrix, 1, {2: d}), codec.parity_delta(2, 1, d)
    )


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


def test_combine_deltas_wide_operands_match_sequential_patches():
    k, m, size = 6, 2, 4096 + 1
    codec = RSCodec(k, m)
    rng = np.random.default_rng(23)
    deltas = {j: rng.integers(0, 256, size, dtype=np.uint8) for j in (0, 2, 5)}
    deltas[2] = np.zeros(size, dtype=np.uint8)  # an update that changed nothing
    for p in range(m):
        want = np.zeros(size, dtype=np.uint8)
        for j, d in deltas.items():
            want ^= parity_delta(codec.coefficient(p, j), d)
        assert np.array_equal(codec.combine_deltas(p, deltas), want)
