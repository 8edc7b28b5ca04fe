"""Tests for the FIFO log pool."""

import numpy as np
import pytest

from repro.logstruct import LogPool, UnitState
from repro.logstruct.index import _covered_runs
from repro.logstruct.unit import ENTRY_HEADER_BYTES


def arr(n, fill=0):
    return np.full(n, fill, dtype=np.uint8)


def small_pool(**kw):
    defaults = dict(unit_capacity=1024, min_units=2, max_units=3, policy="overwrite")
    defaults.update(kw)
    return LogPool(**defaults)


def test_construction_validation():
    with pytest.raises(ValueError):
        LogPool(min_units=0)
    with pytest.raises(ValueError):
        LogPool(min_units=5, max_units=2)


def test_the_reservation_is_arithmetic_until_the_first_append():
    p = small_pool()
    assert p.units == [] and p.active is None
    assert (p.unit_count, p.memory_bytes, p.peak_memory_bytes) == (2, 2048, 2048)
    assert p.flush_active(now=0.0) is None
    assert p.shrink() == 0 and not p.has_pending_recycle()
    assert p.cache_lookup_partial("b", 0, 8) == [] and p.recyclable_units() == []
    assert p.units == []  # reading built nothing


def test_initial_layout():
    """The first append builds the reservation: ids ``0..min_units-1``,
    the newest active, the others RECYCLED read-cache slots."""
    p = small_pool()
    assert p.append("b", 0, arr(8), now=0.0)
    assert [u.unit_id for u in p.units] == [0, 1]
    assert p.unit_count == 2 and p.peak_units == 2
    assert p.active is p.units[-1] and p.active.state is UnitState.EMPTY
    assert p.active.used == 8 + ENTRY_HEADER_BYTES
    assert p.units[0].state is UnitState.RECYCLED and p.units[0].used == 0


def test_append_fills_and_rotates():
    p = small_pool()
    sealed = []
    p.seal_listener = lambda pool, unit: sealed.append((pool, unit))
    payload = 1024 - ENTRY_HEADER_BYTES - 8
    assert p.append("b", 0, arr(payload), now=0.0)
    first = p.active
    # Second append cannot fit: unit seals, RECYCLED peer reactivates.
    assert p.append("b", 2048, arr(payload), now=1.0)
    assert sealed == [(p, first)]
    assert first.state is UnitState.RECYCLABLE
    assert p.active is not first
    assert p.total_seals == 1


def test_pool_grows_to_max_then_backpressures():
    p = small_pool()
    payload = 900
    assert p.append("k", 0, arr(payload), now=0.0)
    assert p.append("k", 2000, arr(payload), now=0.0)  # rotate to unit 2
    assert p.append("k", 4000, arr(payload), now=0.0)  # grow to max=3
    assert p.unit_count == 3
    # All units now RECYCLABLE except active-full; next rotation has nowhere
    # to go: append returns False (caller waits on the recycler).
    assert not p.append("k", 6000, arr(payload), now=0.0)
    assert p.peak_units == 3


def test_recycled_unit_reused_before_growth():
    p = small_pool()
    payload = 900
    p.append("k", 0, arr(payload), now=0.0)
    p.append("k", 2000, arr(payload), now=0.0)
    sealed = p.recyclable_units()
    assert len(sealed) == 1
    sealed[0].start_recycle(1.0)
    sealed[0].finish_recycle(1.5)
    # The freshly recycled unit is reused; the pool does not grow.
    p.append("k", 4000, arr(payload), now=2.0)
    assert p.unit_count == 2
    assert p.active is sealed[0]
    # Only once no RECYCLED unit exists does the pool grow.
    p.append("k", 6000, arr(payload), now=2.0)
    assert p.unit_count == 3
    assert p.active is not sealed[0]


def test_record_larger_than_unit_splits_across_units():
    p = LogPool(unit_capacity=1024, min_units=2, max_units=4, policy="overwrite")
    payload = np.arange(2500, dtype=np.uint8)
    assert p.append("k", 100, payload, now=0.0)
    # Chunks landed in consecutive units; the overall byte map is intact.
    frags = p.cache_lookup_partial("k", 100, 2500)
    rebuilt = np.zeros(2500, dtype=np.uint8)
    for off, d in frags:
        rebuilt[off - 100 : off - 100 + d.size] = d
    assert np.array_equal(rebuilt, payload)
    assert p.total_seals >= 2  # rotation really happened


def test_flush_active_seals_partial_unit():
    p = small_pool()
    p.append("k", 0, arr(10), now=0.0)
    unit = p.flush_active(now=1.0)
    assert unit is not None and unit.state is UnitState.RECYCLABLE
    assert p.active is not unit
    assert p.flush_active(now=2.0) is None  # nothing pending


def test_memory_accounting():
    p = small_pool()
    assert p.memory_bytes == 2 * 1024
    p.append("k", 0, arr(900), now=0.0)
    p.append("k", 2000, arr(900), now=0.0)
    p.append("k", 4000, arr(900), now=0.0)
    assert p.memory_bytes == 3 * 1024
    assert p.peak_memory_bytes == 3 * 1024


def test_shrink_drops_recycled_beyond_min():
    p = small_pool()
    p.append("k", 0, arr(900), now=0.0)
    p.append("k", 2000, arr(900), now=0.0)
    p.append("k", 4000, arr(900), now=0.0)
    for u in p.recyclable_units():
        u.start_recycle(1.0)
        u.finish_recycle(1.0)
    freed = p.shrink()
    assert freed == 1
    assert p.unit_count == 2


def test_has_pending_recycle():
    p = small_pool()
    assert not p.has_pending_recycle()
    p.append("k", 0, arr(900), now=0.0)
    p.flush_active(now=0.5)
    assert p.has_pending_recycle()


def test_cache_lookup_newest_unit_wins():
    p = small_pool(unit_capacity=4096)
    p.append("b", 0, arr(4, fill=1), now=0.0)
    p.flush_active(now=0.1)
    p.append("b", 0, arr(4, fill=2), now=0.2)
    ((at, hit),) = p.cache_lookup_partial("b", 0, 4)
    assert at == 0 and list(hit) == [2, 2, 2, 2]


def test_cache_lookup_falls_back_to_older_units():
    p = small_pool(unit_capacity=4096)
    p.append("b", 0, arr(4, fill=1), now=0.0)
    p.flush_active(now=0.1)
    p.append("c", 0, arr(4, fill=2), now=0.2)
    ((at, hit),) = p.cache_lookup_partial("b", 0, 4)
    assert at == 0 and list(hit) == [1, 1, 1, 1]
    assert p.cache_lookup_partial("b", 100, 4) == []


def test_cache_lookup_partial_shadowing():
    p = small_pool(unit_capacity=4096)
    p.append("b", 0, arr(8, fill=1), now=0.0)
    p.flush_active(now=0.1)
    p.append("b", 4, arr(8, fill=2), now=0.2)
    frags = p.cache_lookup_partial("b", 0, 16)
    rebuilt = {}
    for off, d in frags:
        for i, v in enumerate(d):
            assert off + i not in rebuilt  # no overlaps
            rebuilt[off + i] = int(v)
    assert rebuilt == {**{i: 1 for i in range(4)}, **{i: 2 for i in range(4, 12)}}


def test_cache_lookup_partial_splits_a_fragment_into_three_uncovered_runs():
    # One old 100-byte fragment, two newer 10-byte writes inside it: the old
    # fragment survives as exactly the three runs the coverage bitmap
    # reference (`_covered_runs`) reads back.
    p = small_pool(unit_capacity=4096, max_units=4)
    old = np.arange(100, dtype=np.uint8)
    p.append("b", 1000, old, now=0.0)
    p.flush_active(now=0.1)
    p.append("b", 1010, arr(10, fill=201), now=0.2)
    p.flush_active(now=0.3)
    p.append("b", 1050, arr(10, fill=202), now=0.4)
    frags = p.cache_lookup_partial("b", 1000, 100)
    shadowed = np.zeros(100, dtype=bool)
    shadowed[10:20] = shadowed[50:60] = True
    old_runs = _covered_runs(~shadowed)
    assert old_runs == [(0, 10), (20, 50), (60, 100)]
    expect = [(1000 + a, old[a:b]) for a, b in old_runs]
    expect += [(1010, arr(10, fill=201)), (1050, arr(10, fill=202))]
    expect.sort(key=lambda t: t[0])
    assert [off for off, _ in frags] == [off for off, _ in expect]
    for (_, got), (_, want) in zip(frags, expect):
        assert np.array_equal(got, want)
        assert got.flags.writeable  # copies, not views of live segments


def test_reactivated_unit_loses_cache():
    p = LogPool(unit_capacity=1024, min_units=1, max_units=1)
    p.append("b", 0, arr(900, fill=5), now=0.0)
    unit = p.flush_active(now=0.1)
    assert unit is not None
    unit.start_recycle(0.2)
    unit.finish_recycle(0.3)
    ((_, hit),) = p.cache_lookup_partial("b", 0, 4)
    assert list(hit) == [5, 5, 5, 5]
    p.append("b", 100, arr(8), now=0.4)  # reactivates the only unit
    assert p.cache_lookup_partial("b", 0, 4) == []


def test_cache_lookup_partial_property_vs_reference():
    """Property test: random overlapping appends across many units must
    equal a brute-force newest-wins reference array — de-overlapped,
    offset-sorted, content-exact, covering exactly the written bytes."""
    span = 1024
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # Small units + a high quota: appends spill across many units with
        # no recycling needed, so newest-wins spans real unit boundaries.
        p = LogPool(unit_capacity=256, min_units=2, max_units=64,
                    policy="overwrite")
        ref = np.zeros(span, dtype=np.uint8)
        written = np.zeros(span, dtype=bool)
        for step in range(60):
            off = int(rng.integers(0, span - 1))
            ln = int(rng.integers(1, min(150, span - off) + 1))
            data = rng.integers(1, 256, ln, dtype=np.uint8)
            assert p.append("blk", off, data, now=float(step))
            ref[off:off + ln] = data
            written[off:off + ln] = True
        assert p.unit_count > 2  # the stream really crossed units
        for _ in range(30):
            qoff = int(rng.integers(0, span - 1))
            qlen = int(rng.integers(1, span - qoff + 1))
            frags = p.cache_lookup_partial("blk", qoff, qlen)
            got = np.zeros(qlen, dtype=np.uint8)
            covered = np.zeros(qlen, dtype=bool)
            prev_end = None
            for a, frag in frags:
                assert qoff <= a and a + frag.size <= qoff + qlen
                if prev_end is not None:
                    assert a >= prev_end  # sorted and de-overlapped
                prev_end = a + frag.size
                assert not covered[a - qoff:a - qoff + frag.size].any()
                got[a - qoff:a - qoff + frag.size] = frag
                covered[a - qoff:a - qoff + frag.size] = True
            assert np.array_equal(covered, written[qoff:qoff + qlen])
            assert np.array_equal(got[covered], ref[qoff:qoff + qlen][covered])
