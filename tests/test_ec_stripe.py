"""Tests for stripe geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import BlockAddr, StripeMap


def test_locate_basics():
    sm = StripeMap(k=4, m=2, block_size=100)
    assert sm.locate(0) == (0, 0, 0)
    assert sm.locate(99) == (0, 0, 99)
    assert sm.locate(100) == (0, 1, 0)
    assert sm.locate(399) == (0, 3, 99)
    assert sm.locate(400) == (1, 0, 0)


def test_locate_negative_offset():
    sm = StripeMap(4, 2, 100)
    with pytest.raises(ValueError):
        sm.locate(-1)


def test_extents_within_one_block():
    sm = StripeMap(4, 2, 100)
    ext = sm.extents(inode=7, file_offset=150, length=30)
    assert len(ext) == 1
    e = ext[0]
    assert e.addr == BlockAddr(7, 0, 1)
    assert (e.offset, e.length, e.file_offset) == (50, 30, 150)


def test_extents_cross_block_and_stripe():
    sm = StripeMap(2, 1, 100)  # stripe span = 200
    ext = sm.extents(inode=1, file_offset=150, length=200)
    # 150..200 in (s0,b1), 200..300 in (s1,b0), 300..350 in (s1,b1)
    assert [(e.addr.stripe, e.addr.block_index, e.offset, e.length) for e in ext] == [
        (0, 1, 50, 50),
        (1, 0, 0, 100),
        (1, 1, 0, 50),
    ]


def test_extents_zero_length():
    sm = StripeMap(2, 1, 100)
    assert sm.extents(0, 500, 0) == []
    with pytest.raises(ValueError):
        sm.extents(0, 0, -5)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=16, max_value=4096),
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=1, max_value=20_000),
)
def test_extents_partition_the_range(k, m, block_size, offset, length):
    """Extents must tile [offset, offset+length) exactly, in order."""
    sm = StripeMap(k, m, block_size)
    ext = sm.extents(0, offset, length)
    assert sum(e.length for e in ext) == length
    pos = offset
    for e in ext:
        assert e.file_offset == pos
        stripe, block, off = sm.locate(pos)
        assert (e.addr.stripe, e.addr.block_index, e.offset) == (stripe, block, off)
        assert 0 < e.length <= block_size - e.offset
        pos += e.length


def test_geometry_validation():
    with pytest.raises(ValueError):
        StripeMap(0, 1, 10)
    with pytest.raises(ValueError):
        StripeMap(1, 1, 0)
