"""Unit and property tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gf import (
    gf_add,
    gf_div,
    gf_exp_table,
    gf_inv,
    gf_log_table,
    gf_mul,
    gf_mul_scalar,
    gf_pow,
    gf_scale_accumulate,
)

elem = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_exp_log_roundtrip():
    exp = gf_exp_table()
    log = gf_log_table()
    for a in range(1, 256):
        assert int(exp[log[a]]) == a


def test_tables_are_readonly():
    with pytest.raises(ValueError):
        gf_exp_table()[0] = 1


def test_add_is_xor():
    assert int(gf_add(0b1010, 0b0110)) == 0b1100


@given(elem, elem)
def test_mul_commutative(a, b):
    assert int(gf_mul(a, b)) == int(gf_mul(b, a))


@given(elem, elem, elem)
def test_mul_associative(a, b, c):
    assert int(gf_mul(gf_mul(a, b), c)) == int(gf_mul(a, gf_mul(b, c)))


@given(elem, elem, elem)
def test_distributive(a, b, c):
    left = int(gf_mul(a, gf_add(b, c)))
    right = int(gf_add(gf_mul(a, b), gf_mul(a, c)))
    assert left == right


@given(elem)
def test_mul_identity_and_zero(a):
    assert int(gf_mul(a, 1)) == a
    assert int(gf_mul(a, 0)) == 0


@given(nonzero)
def test_inverse(a):
    assert int(gf_mul(a, gf_inv(a))) == 1


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(elem, nonzero)
def test_div_matches_mul_by_inverse(a, b):
    assert int(gf_div(a, b)) == int(gf_mul(a, gf_inv(b)))


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_div(5, 0)


@given(nonzero, st.integers(min_value=0, max_value=600))
def test_pow_repeated_multiplication(a, n):
    expected = 1
    for _ in range(n):
        expected = int(gf_mul(expected, a))
    assert gf_pow(a, n) == expected


def test_pow_zero_cases():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        gf_pow(0, -1)


@given(nonzero)
def test_pow_negative_is_inverse_power(a):
    assert gf_pow(a, -1) == gf_inv(a)


def test_mul_scalar_vectorised_matches_elementwise():
    rng = np.random.default_rng(1)
    buf = rng.integers(0, 256, 1024, dtype=np.uint8)
    for scalar in (0, 1, 2, 37, 255):
        fast = gf_mul_scalar(scalar, buf)
        slow = np.array([int(gf_mul(scalar, int(b))) for b in buf], dtype=np.uint8)
        assert np.array_equal(fast, slow)


def test_mul_scalar_rejects_out_of_field():
    with pytest.raises(ValueError):
        gf_mul_scalar(256, np.zeros(4, dtype=np.uint8))


def test_mul_broadcasts_arrays():
    a = np.array([1, 2, 3], dtype=np.uint8)
    b = np.uint8(7)
    out = gf_mul(a, b)
    assert out.shape == (3,)
    assert int(out[0]) == 7


@given(st.lists(elem, min_size=1, max_size=64), nonzero)
def test_scalar_distributes_over_xor_buffers(data, scalar):
    buf = np.array(data, dtype=np.uint8)
    other = buf[::-1].copy()
    left = gf_mul_scalar(scalar, buf ^ other)
    right = gf_mul_scalar(scalar, buf) ^ gf_mul_scalar(scalar, other)
    assert np.array_equal(left, right)


# ----------------------------------------------------------------------
# the byte-plane kernel: acc[i] ^= coeffs[i] * src
# ----------------------------------------------------------------------
# Lengths on both sides of the native kernel's 32-byte vector width (the
# scalar tail alone, one vector, one vector plus a tail), odd tails around
# a 512-byte row, and past one 64 KiB block.
KERNEL_LENGTHS = (
    0, 1, 15, 31, 32, 33, 63, 64, 65, 511, 512, 513, 4095, 4097, 65535, 65536, 70001,
)


def _reference_product(coeff, buf):
    """``coeff * buf`` through the scalar ``gf_mul`` only (one row of 256)."""
    row = np.array([int(gf_mul(coeff, b)) for b in range(256)], dtype=np.uint8)
    return row[buf]


@pytest.mark.parametrize("n", KERNEL_LENGTHS)
def test_kernel_every_coefficient_matches_scalar_reference(n):
    # Both modes of the region kernel: accumulate and overwrite.
    rng = np.random.default_rng(n)
    src = rng.integers(0, 256, n, dtype=np.uint8)
    seed_acc = rng.integers(0, 256, n, dtype=np.uint8)
    for coeff in range(256):
        want = _reference_product(coeff, src)
        acc = seed_acc.copy()
        gf_scale_accumulate((coeff,), src, (acc,))
        assert np.array_equal(acc, seed_acc ^ want), f"coeff {coeff} length {n}"
        assert np.array_equal(gf_mul_scalar(coeff, src), want), f"coeff {coeff} length {n}"


@pytest.mark.parametrize("n", (511, 512, 513, 4097))
def test_kernel_accepts_readonly_unaligned_and_strided_sources(n):
    rng = np.random.default_rng(n + 7)
    backing = rng.integers(0, 256, 2 * n + 1, dtype=np.uint8)
    readonly = backing[:n].copy()
    readonly.flags.writeable = False
    unaligned = backing[1 : n + 1]          # offset by one byte
    strided = backing[: 2 * n : 2]          # non-contiguous
    reversed_ = backing[:n][::-1]           # negative stride
    for src in (readonly, unaligned, strided, reversed_):
        before = src.copy()
        acc = np.zeros((2, n), dtype=np.uint8)
        gf_scale_accumulate((37, 201), src, acc)
        assert np.array_equal(acc[0], _reference_product(37, before))
        assert np.array_equal(acc[1], _reference_product(201, before))
        assert np.array_equal(src, before)  # never written through


def test_kernel_zero_source_and_zero_coefficient_add_nothing():
    rng = np.random.default_rng(3)
    acc = rng.integers(0, 256, (2, 1024), dtype=np.uint8)
    before = acc.copy()
    gf_scale_accumulate((9, 200), np.zeros(1024, dtype=np.uint8), acc)
    assert np.array_equal(acc, before)
    src = rng.integers(1, 256, 1024, dtype=np.uint8)
    gf_scale_accumulate((0, 1), src, acc)
    assert np.array_equal(acc[0], before[0])
    assert np.array_equal(acc[1], before[1] ^ src)


def test_kernel_rejects_an_accumulator_of_another_length():
    # The native kernel writes src.size bytes: a shorter row would overflow.
    src = np.ones(101, dtype=np.uint8)
    for n in (100, 102):
        acc = np.zeros(n, dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_scale_accumulate((7,), src, (acc,))
        assert not acc.any()


def test_mul_scalar_keeps_shape_and_leaves_input_alone():
    rng = np.random.default_rng(11)
    buf = rng.integers(0, 256, (3, 700), dtype=np.uint8)
    before = buf.copy()
    out = gf_mul_scalar(29, buf)
    assert out.shape == buf.shape and out is not buf
    assert np.array_equal(out, _reference_product(29, before))
    assert np.array_equal(buf, before)
    assert np.array_equal(gf_mul_scalar(1, buf), buf)
    assert not gf_mul_scalar(0, buf).any()
