"""Tests for counters, latency recording, residency and lifespan math."""

import pytest

from repro.harness.lifespan import LifespanResult
from repro.metrics import (
    IntervalSeries,
    LatencyRecorder,
    NetCounters,
    OpCounters,
    ResidencyTracker,
    WearModel,
    format_series,
    format_table,
)
from repro.metrics.lifespan import endurance_years


def test_opcounters_read_write_split():
    c = OpCounters()
    c.record_read(100, sequential=True)
    c.record_read(200, sequential=False)
    c.record_write(300, sequential=False, overwrite=True)
    c.record_write(400, sequential=True, overwrite=False)
    assert c.read_ops == 2 and c.write_ops == 2 and c.rw_ops == 4
    assert c.read_bytes == 300 and c.write_bytes == 700 and c.rw_bytes == 1000
    assert c.overwrite_ops == 1 and c.overwrite_bytes == 300


def test_opcounters_merge_and_aggregate():
    a, b = OpCounters(), OpCounters()
    a.record_read(10, True)
    b.record_write(20, False, True)
    total = OpCounters.aggregate([a, b])
    assert total.rw_ops == 2
    assert total.read_bytes_seq == 10
    assert total.overwrite_bytes == 20


def test_wear_model_random_overwrite_amplifies():
    w = WearModel()
    w.record_write(4096, sequential=False, overwrite=True)
    rand_erases = w.erase_ops
    w2 = WearModel()
    w2.record_write(4096, sequential=True, overwrite=True)
    assert rand_erases > 2 * w2.erase_ops
    w3 = WearModel()
    w3.record_write(4096, sequential=True, overwrite=False)
    assert w3.erase_ops < w2.erase_ops


def test_wear_merge():
    a, b = WearModel(), WearModel()
    a.record_write(4096, False, True)
    b.record_write(4096, False, True)
    m = a.merge(b)
    assert m.erase_ops == pytest.approx(2 * a.erase_ops)
    assert m.page_writes == 2 * a.page_writes


def test_netcounters():
    n = NetCounters()
    n.record(100, "x")
    n.record(50)
    assert n.messages == 2 and n.bytes_sent == 150
    assert n.by_kind == {"x": 100}


def test_latency_recorder_stats():
    r = LatencyRecorder("upd")
    for i, lat in enumerate([0.001, 0.002, 0.003, 0.004]):
        r.record(completion_time=(i + 1) * 0.5, latency=lat)
    assert len(r) == 4
    assert r.mean() == pytest.approx(0.0025)
    assert r.percentile(0) == 0.001
    assert r.percentile(100) == 0.004


def test_latency_recorder_validation_and_empty():
    r = LatencyRecorder()
    assert r.mean() == 0.0 and r.percentile(50) == 0.0 and len(r) == 0
    with pytest.raises(ValueError):
        r.record(1.0, -0.1)


def test_iops_series_buckets():
    r = LatencyRecorder("x")
    for t in [0.1, 0.2, 1.5, 1.6, 1.7]:
        r.record(t, 0.001)
    s = r.iops_series(bucket=1.0, horizon=2.0)
    assert s.times == [1.0, 2.0]
    assert s.values == [2.0, 3.0]
    assert s.mean() == pytest.approx(2.5)


def test_residency_tracker_means():
    t = ResidencyTracker()
    for append, buffer, recycle in ((100e-6, 1.0, 300e-6), (300e-6, 3.0, 500e-6)):
        t.record_append("data_log", append)
        t.record_buffer("data_log", buffer)
        t.record_recycle("data_log", recycle)
    a, b, r = t.mean_us("data_log")
    assert a == pytest.approx(200.0)
    assert b == pytest.approx(2e6)
    assert r == pytest.approx(400.0)
    assert t.samples("data_log") == 2
    assert t.mean_us("delta_log") == (0.0, 0.0, 0.0)
    assert t.total_time_us() == pytest.approx(200 + 2e6 + 400)


def test_residency_unknown_layer_rejected():
    t = ResidencyTracker()
    for record in (t.record_append, t.record_buffer, t.record_recycle):
        with pytest.raises(KeyError):
            record("bogus", 0.0)


def test_lifespan_ratios_inverse_of_erases():
    wa, wb = WearModel(), WearModel()
    for _ in range(10):
        wa.record_write(4096, False, True)
    wb.record_write(4096, False, True)
    ratios = LifespanResult(
        erases={"heavy": wa.erase_ops, "light": wb.erase_ops},
        page_writes={"heavy": 10, "light": 1},
    ).relative_lifespan()
    assert ratios["heavy"] == pytest.approx(1.0)
    assert ratios["light"] == pytest.approx(10.0)


def test_endurance_years_scales_with_wear():
    w = WearModel()
    w.record_write(1 << 30, sequential=True, overwrite=True)
    y1 = endurance_years(w, device_bytes=400 * 10**9)
    w.record_write(1 << 30, sequential=True, overwrite=True)
    y2 = endurance_years(w, device_bytes=400 * 10**9)
    assert y2 == pytest.approx(y1 / 2)
    assert endurance_years(WearModel(), device_bytes=1) == float("inf")


def test_format_table_alignment_and_validation():
    out = format_table(["a", "bb"], [[1, 2.5], [30000, 0.001]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "30,000" in out
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


def test_format_series():
    out = format_series({"m1": [1, 2], "m2": [3, 4]}, x=[10, 20], x_name="clients")
    assert "clients" in out and "m1" in out and "m2" in out
    assert out.splitlines()[-1].split("|")[0].strip() == "20"


def test_percentiles_batch_matches_singles():
    r = LatencyRecorder("x")
    for i in range(1, 101):
        r.record(float(i), i / 1000.0)
    batch = r.percentiles((50.0, 95.0, 99.0))
    assert batch == [r.percentile(50), r.percentile(95), r.percentile(99)]
    assert batch[0] <= batch[1] <= batch[2]
    assert r.percentile(0) == 0.001 and r.percentile(100) == 0.1


def test_percentiles_empty_and_validation():
    r = LatencyRecorder("x")
    assert r.percentiles((50.0, 99.0)) == [0.0, 0.0]
    r.record(1.0, 0.5)
    with pytest.raises(ValueError):
        r.percentiles((101.0,))
    with pytest.raises(ValueError):
        r.percentiles((-1.0,))


def test_latency_summary_digest():
    r = LatencyRecorder("x")
    assert r.summary()["count"] == 0.0
    for lat in (0.001, 0.002, 0.003, 0.010):
        r.record(1.0, lat)
    s = r.summary()
    assert s["count"] == 4.0
    assert s["mean"] == pytest.approx(0.004)
    assert s["p50"] <= s["p95"] <= s["p99"]
    assert s["p99"] == 0.010
