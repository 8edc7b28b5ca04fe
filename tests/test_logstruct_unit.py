"""Tests for LogUnit lifecycle and accounting."""

import numpy as np
import pytest

from repro.logstruct import LogUnit, UnitState
from repro.logstruct.unit import ENTRY_HEADER_BYTES


def arr(n, fill=0):
    return np.full(n, fill, dtype=np.uint8)


def test_capacity_validation():
    with pytest.raises(ValueError):
        LogUnit(capacity=ENTRY_HEADER_BYTES)


def test_append_consumes_raw_space_even_when_index_merges():
    u = LogUnit(capacity=1024, policy="overwrite")
    assert u.append("b", 0, arr(100), now=0.0)
    assert u.append("b", 0, arr(100), now=1.0)  # same place: index merges
    assert u.used == 2 * (100 + ENTRY_HEADER_BYTES)
    assert u.index.merged_bytes == 100  # but only 100B to recycle


def test_append_rejects_overflow_without_side_effects():
    u = LogUnit(capacity=200)
    assert u.append("b", 0, arr(100), now=0.0)
    before = u.used
    assert not u.append("b", 200, arr(100), now=1.0)
    assert u.used == before
    assert len(u.entries) == 1


def test_fits_accounts_for_header():
    u = LogUnit(capacity=200)
    assert u.fits(200 - ENTRY_HEADER_BYTES)
    assert not u.fits(200 - ENTRY_HEADER_BYTES + 1)


def test_lifecycle_transitions():
    u = LogUnit(capacity=1024)
    u.append("b", 0, arr(10), now=0.5)
    assert u.state is UnitState.EMPTY
    u.seal(now=1.0)
    assert u.state is UnitState.RECYCLABLE and u.sealed_time == 1.0
    u.start_recycle(now=2.0)
    assert u.state is UnitState.RECYCLING
    u.finish_recycle(now=3.0)
    assert u.state is UnitState.RECYCLED
    u.reactivate()
    assert u.state is UnitState.EMPTY
    assert u.used == 0 and not u.entries and u.first_append_time is None


def test_invalid_transitions_raise():
    u = LogUnit(capacity=1024)
    with pytest.raises(RuntimeError):
        u.start_recycle(0.0)
    with pytest.raises(RuntimeError):
        u.finish_recycle(0.0)
    with pytest.raises(RuntimeError):
        u.reactivate()
    u.seal(0.0)
    with pytest.raises(RuntimeError):
        u.append("b", 0, arr(1), now=0.0)
    with pytest.raises(RuntimeError):
        u.seal(0.0)


def test_mean_buffer_time():
    u = LogUnit(capacity=4096)
    u.append("b", 0, arr(10), now=1.0)
    u.append("b", 100, arr(10), now=3.0)
    u.seal(now=3.0)
    u.start_recycle(now=5.0)
    # waits: 4.0 and 2.0 -> mean 3.0
    assert u.mean_buffer_time() == pytest.approx(3.0)


def test_mean_buffer_time_empty_unit():
    u = LogUnit(capacity=1024)
    assert u.mean_buffer_time() == 0.0


def test_unit_serves_reads_in_any_state():
    u = LogUnit(capacity=1024)
    u.append("b", 4, np.array([7, 8], dtype=np.uint8), now=0.0)
    for action in (lambda: u.seal(1.0), lambda: u.start_recycle(2.0), lambda: u.finish_recycle(3.0)):
        ((at, hit),) = u.lookup_partial("b", 0, 10)
        assert at == 4 and list(hit) == [7, 8]
        action()
    ((at, hit),) = u.lookup_partial("b", 0, 10)
    assert at == 4 and list(hit) == [7, 8]


def test_first_append_time_tracked():
    u = LogUnit(capacity=1024)
    assert u.first_append_time is None
    u.append("b", 0, arr(1), now=2.5)
    u.append("b", 8, arr(1), now=3.5)
    assert u.first_append_time == 2.5
