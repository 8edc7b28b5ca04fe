"""Tests for the synthetic trace generators."""

import numpy as np
import pytest

from repro.traces import (
    MSR_VOLUMES,
    SyntheticTraceConfig,
    alicloud_trace,
    generate_trace,
    msr_trace,
    tencloud_trace,
)
from repro.traces.synth import PAGE, TraceRecord

FILE = 32 * 1024 * 1024
N = 2000


def rng(seed=0):
    return np.random.default_rng(seed)


def test_record_validation():
    with pytest.raises(ValueError):
        TraceRecord(-1, 4)
    with pytest.raises(ValueError):
        TraceRecord(0, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticTraceConfig("x", [(4096, 0.5)])  # probs must sum to 1
    with pytest.raises(ValueError):
        SyntheticTraceConfig("x", [(4096, 1.0)], hot_fraction=0.0)
    with pytest.raises(ValueError):
        SyntheticTraceConfig("x", [(4096, 1.0)], run_prob=1.5)


def test_records_stay_in_bounds():
    for maker in (alicloud_trace, tencloud_trace):
        recs = maker(FILE, N, rng(1))
        assert len(recs) == N
        for r in recs:
            assert 0 <= r.offset and r.offset + r.size <= FILE


def _frac_le(records, size):
    """Share of requests no larger than ``size`` bytes."""
    return sum(r.size <= size for r in records) / len(records)


def _distinct_pages(records):
    """Pages the trace touches at least once."""
    return len({p for r in records
                for p in range(r.offset // PAGE, (r.offset + r.size - 1) // PAGE + 1)})


def test_small_file_rejected():
    with pytest.raises(ValueError):
        alicloud_trace(100, 10, rng())


def test_alicloud_size_marginals_match_paper():
    """§2.1: 46 % exactly 4 KB, 60 % <= 16 KB."""
    recs = alicloud_trace(FILE, 5000, rng(2))
    assert 0.40 <= _frac_le(recs, 4096) <= 0.52
    assert 0.54 <= _frac_le(recs, 16384) <= 0.66


def test_tencloud_size_marginals_match_paper():
    """§2.1: 69 % exactly 4 KB, 88 % <= 16 KB."""
    recs = tencloud_trace(FILE, 5000, rng(3))
    assert 0.63 <= _frac_le(recs, 4096) <= 0.75
    assert 0.82 <= _frac_le(recs, 16384) <= 0.94


def test_tencloud_touches_small_fraction_of_file():
    """§2.3.3: the hot working set covers a few % of the data at most."""
    touched = _distinct_pages(tencloud_trace(FILE, 5000, rng(4))) * PAGE / FILE
    # 5000 requests x ~2 pages over an 8192-page file would touch ~70 %
    # uniformly; the locality profile keeps it far below that.
    assert touched < 0.35


def test_tencloud_more_local_than_alicloud():
    ten = _distinct_pages(tencloud_trace(FILE, 5000, rng(5)))
    ali = _distinct_pages(alicloud_trace(FILE, 5000, rng(5)))
    assert ten < ali


def test_temporal_locality_repeats_offsets():
    recs = tencloud_trace(FILE, 3000, rng(6))
    offsets = [r.offset for r in recs]
    assert len(set(offsets)) < 0.8 * len(offsets)  # plenty of repeats


def test_spatial_runs_present():
    recs = tencloud_trace(FILE, 3000, rng(7))
    runs = sum(
        1 for a, b in zip(recs, recs[1:]) if b.offset == a.offset + a.size
    )
    assert runs > 0.2 * len(recs)


def test_msr_all_volumes_generate():
    for vol in MSR_VOLUMES:
        recs = msr_trace(vol, FILE, 200, rng(8))
        assert len(recs) == 200


def test_msr_unknown_volume():
    with pytest.raises(ValueError, match="unknown MSR volume"):
        msr_trace("nope", FILE, 10, rng())


def test_msr_small_updates_dominate():
    """MSR stats: ~60 % < 4 KB-ish small, 90 % <= 16 KB."""
    assert _frac_le(msr_trace("mds0", FILE, 5000, rng(9)), 16384) > 0.85


def test_determinism_same_seed_same_trace():
    a = tencloud_trace(FILE, 100, rng(42))
    b = tencloud_trace(FILE, 100, rng(42))
    assert a == b


def test_different_seeds_differ():
    a = tencloud_trace(FILE, 100, rng(1))
    b = tencloud_trace(FILE, 100, rng(2))
    assert a != b
