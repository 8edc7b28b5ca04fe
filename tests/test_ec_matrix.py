"""Tests for GF matrix algebra and the systematic Vandermonde generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import gf_matinv, gf_matmul, systematic_vandermonde, vandermonde_matrix
from repro.gf import gf_mul


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.integers(0, 256, (5, 5), dtype=np.uint8)
    eye = np.eye(5, dtype=np.uint8)
    assert np.array_equal(gf_matmul(eye, m), m)
    assert np.array_equal(gf_matmul(m, eye), m)


def test_matmul_shape_checks():
    a = np.zeros((2, 3), dtype=np.uint8)
    b = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        gf_matmul(a, b)
    with pytest.raises(ValueError):
        gf_matmul(a[0], b)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
def test_matinv_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    # Rejection-sample a nonsingular matrix.
    for _ in range(64):
        m = rng.integers(0, 256, (n, n), dtype=np.uint8)
        try:
            inv = gf_matinv(m)
        except np.linalg.LinAlgError:
            continue
        eye = np.eye(n, dtype=np.uint8)
        assert np.array_equal(gf_matmul(m, inv), eye)
        assert np.array_equal(gf_matmul(inv, m), eye)
        return
    pytest.skip("no nonsingular sample found (improbable)")


def test_matinv_singular_raises():
    m = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(np.linalg.LinAlgError):
        gf_matinv(m)


def test_matinv_requires_square():
    with pytest.raises(ValueError):
        gf_matinv(np.zeros((2, 3), dtype=np.uint8))


def test_vandermonde_shape_and_first_column():
    v = vandermonde_matrix(6, 4)
    assert v.shape == (6, 4)
    assert np.all(v[:, 0] == 1)
    # Row 1 is 1^j = 1.
    assert np.all(v[1] == 1)


def test_systematic_vandermonde_top_is_identity():
    for k, m in [(2, 2), (6, 3), (12, 4)]:
        g = systematic_vandermonde(k, m)
        assert g.shape == (k + m, k)
        assert np.array_equal(g[:k], np.eye(k, dtype=np.uint8))


def test_systematic_vandermonde_is_mds():
    # Every k-subset of rows must be invertible (MDS property); spot-check
    # exhaustively for a small code.
    from itertools import combinations

    k, m = 4, 3
    g = systematic_vandermonde(k, m)
    for rows in combinations(range(k + m), k):
        gf_matinv(g[list(rows)])  # must not raise


def test_km_validation():
    with pytest.raises(ValueError):
        systematic_vandermonde(0, 2)
    with pytest.raises(ValueError):
        systematic_vandermonde(255, 3)
    with pytest.raises(ValueError):
        vandermonde_matrix(300, 2)


def _dense_matmul(a, b):
    """The GF product term by term through the elementwise ``gf_mul`` —
    every (row, k) pair, zero rows included; the kernel's reference."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for k in range(a.shape[1]):
            out[i] ^= gf_mul(a[i, k], b[k])
    return out


def test_matmul_generator_construction_sizes_exact():
    # The (k+m) x k @ k x k products the systematic transform performs:
    # a few bytes per row, all in the kernel's scalar tail, must stay exact.
    for k, m in [(6, 2), (12, 4)]:
        v = vandermonde_matrix(k + m, k)
        top_inv = gf_matinv(v[:k])
        assert np.array_equal(gf_matmul(v, top_inv), _dense_matmul(v, top_inv))
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, (8, 6), dtype=np.uint8)
    b = rng.integers(0, 256, (6, 6), dtype=np.uint8)
    assert np.array_equal(gf_matmul(a, b), _dense_matmul(a, b))


@pytest.mark.parametrize("n", (1, 511, 512, 513, 65535, 65536))
def test_payload_matmul_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 256, (2, 6), dtype=np.uint8)
    a[0, 2] = 0
    a[1, 4] = 1
    b = rng.integers(0, 256, (6, n), dtype=np.uint8)
    b[3] = 0  # a never-written block
    assert np.array_equal(gf_matmul(a, b), _dense_matmul(a, b))


def test_payload_matmul_readonly_and_strided_operands():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 256, (2, 6), dtype=np.uint8)
    wide = rng.integers(0, 256, (6, 2 * 700 + 1), dtype=np.uint8)
    wide.flags.writeable = False
    for b in (wide[:, :700], wide[:, 1:701], wide[:, : 2 * 700 : 2], wide[::-1, :700]):
        assert np.array_equal(gf_matmul(a, b), _dense_matmul(a, b))
    # Column-major right operand: every row of it is strided.
    b = np.asfortranarray(wide[:, :600])
    assert np.array_equal(gf_matmul(a, b), _dense_matmul(a, b))
