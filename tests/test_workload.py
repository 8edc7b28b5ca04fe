"""Tests for the open-loop workload subsystem (arrivals + generator)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import AllOf, Simulator
from repro.traces import TraceReplayer
from repro.traces.synth import TraceRecord
from repro.update import make_strategy_factory
from repro.workload import (
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    OpenLoopGenerator,
    PoissonArrivals,
    WorkloadSpec,
)

K, M, BLOCK = 4, 2, 2048


def build(seed=0, **flags):
    params = dict(unit_bytes=8 * 1024, flush_age=0.01, flush_interval=0.005)
    params.update(flags)
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=seed,
                      client_overhead_s=0.0),
        make_strategy_factory("tsue", **params),
    )
    inode = 5
    cluster.register_sparse_file(inode, 2 * K * BLOCK)
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client, inode


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def records(n, size=64, span=K * BLOCK):
    rng = np.random.default_rng(42)
    return [
        TraceRecord(int(rng.integers(0, span - size)), size) for _ in range(n)
    ]


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
def test_closed_loop_gap_is_zero():
    rng = np.random.default_rng(0)
    assert ClosedLoop().next_gap(3.0, rng) == 0.0


def test_poisson_mean_gap_matches_rate():
    rng = np.random.default_rng(1)
    arr = PoissonArrivals(rate=2000.0)
    gaps = [arr.next_gap(0.0, rng) for _ in range(5000)]
    assert np.mean(gaps) == pytest.approx(1 / 2000.0, rel=0.1)
    assert min(gaps) >= 0


def test_poisson_rejects_bad_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(rate=0.0)


def test_onoff_mixes_dense_bursts_and_silences():
    rng = np.random.default_rng(2)
    arr = OnOffArrivals(burst_rate=1000.0, on_s=0.01, off_s=0.5)
    now, gaps = 0.0, []
    for _ in range(400):
        g = arr.next_gap(now, rng)
        gaps.append(g)
        now += g
    gaps = np.array(gaps)
    # Intra-burst gaps cluster near 1ms; OFF windows inject much longer ones.
    assert np.median(gaps) < 0.01
    assert gaps.max() > 0.1


def test_onoff_never_returns_negative_gap_after_stall():
    """A caller that stalls (e.g. on iodepth backpressure) can outrun the
    stored ON window; the sampler must resume from the caller's clock, not
    hand back negative gaps that silently erase the OFF silences."""
    rng = np.random.default_rng(4)
    arr = OnOffArrivals(burst_rate=1000.0, on_s=0.01, off_s=0.02)
    arr.next_gap(0.0, rng)
    now = 1.0  # stalled a full second past every stored window
    for _ in range(200):
        g = arr.next_gap(now, rng)
        assert g >= 0.0
        now += g + (0.05 if rng.random() < 0.1 else 0.0)  # occasional stalls


def test_onoff_validation():
    with pytest.raises(ValueError):
        OnOffArrivals(burst_rate=0.0, on_s=1.0, off_s=1.0)
    with pytest.raises(ValueError):
        OnOffArrivals(burst_rate=1.0, on_s=1.0, off_s=-0.1)


def test_diurnal_rate_ramps_to_peak_mid_period():
    arr = DiurnalArrivals(low=100.0, peak=4000.0, period=1.0)
    assert arr.rate(0.0) == pytest.approx(100.0)
    assert arr.rate(0.5) == pytest.approx(4000.0)
    rng = np.random.default_rng(3)
    now, times = 0.0, []
    while now < 1.0:
        now += arr.next_gap(now, rng)
        times.append(now)
    times = np.array(times)
    trough = np.sum(times < 0.25)
    crest = np.sum((times >= 0.25) & (times < 0.75))
    assert crest > 3 * trough  # most arrivals land around the peak


def test_diurnal_validation():
    with pytest.raises(ValueError):
        DiurnalArrivals(low=0.0, peak=10.0, period=1.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(low=5.0, peak=1.0, period=1.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(low=1.0, peak=2.0, period=0.0)


# ----------------------------------------------------------------------
# spec / generator validation
# ----------------------------------------------------------------------
def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(iodepth=0)
    with pytest.raises(ValueError):
        WorkloadSpec(read_fraction=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(n_requests=-1)


def test_generator_requires_tenants_with_records():
    sim, cluster, client, inode = build()
    with pytest.raises(ValueError):
        OpenLoopGenerator(client, [], np.random.default_rng(0))
    with pytest.raises(ValueError):
        OpenLoopGenerator(
            client, [(inode, [])], np.random.default_rng(0),
            WorkloadSpec(n_requests=5),
        )
    cluster.stop()


# ----------------------------------------------------------------------
# pipelining (the acceptance-criterion overlap test)
# ----------------------------------------------------------------------
def test_iodepth_overlaps_inflight_updates():
    """Open-loop replay at iodepth > 1 keeps several updates in flight."""
    sim, cluster, client, inode = build()
    gen = OpenLoopGenerator(
        client,
        [(inode, records(30))],
        np.random.default_rng(7),
        WorkloadSpec(arrivals=ClosedLoop(), n_requests=30, iodepth=6),
    )
    done = run_to(sim, sim.process(gen.run()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert done == 30 and gen.completed == 30
    # In-flight updates genuinely overlapped, within the iodepth bound.
    assert 1 < client.peak_inflight_updates <= 6
    assert cluster.stripe_consistent(inode, 0)
    assert cluster.stripe_consistent(inode, 1)


def test_iodepth_one_never_overlaps():
    sim, cluster, client, inode = build()
    gen = OpenLoopGenerator(
        client,
        [(inode, records(15))],
        np.random.default_rng(8),
        WorkloadSpec(arrivals=ClosedLoop(), n_requests=15, iodepth=1),
    )
    run_to(sim, sim.process(gen.run()))
    cluster.stop()
    assert client.peak_inflight_updates == 1


def test_submit_update_pipelines_on_the_client():
    sim, cluster, client, inode = build()

    def two():
        a = client.submit_update(inode, 0, np.full(64, 1, dtype=np.uint8))
        b = client.submit_update(inode, 4096, np.full(64, 2, dtype=np.uint8))
        yield AllOf(sim, [a, b])

    run_to(sim, sim.process(two()))
    cluster.stop()
    assert client.peak_inflight_updates == 2
    assert len(client.update_latency) == 2


# ----------------------------------------------------------------------
# read/update mix and tenant sharding
# ----------------------------------------------------------------------
def test_read_fraction_splits_ops():
    sim, cluster, client, inode = build()
    gen = OpenLoopGenerator(
        client,
        [(inode, records(40))],
        np.random.default_rng(9),
        WorkloadSpec(arrivals=ClosedLoop(), n_requests=40, iodepth=4,
                     read_fraction=0.5),
    )
    run_to(sim, sim.process(gen.run()))
    cluster.stop()
    assert gen.completed > 0 and gen.reads_completed > 0
    assert gen.completed + gen.reads_completed == 40
    assert len(client.read_latency) == gen.reads_completed


def test_all_reads_touch_no_parity():
    sim, cluster, client, inode = build()
    gen = OpenLoopGenerator(
        client,
        [(inode, records(10))],
        np.random.default_rng(10),
        WorkloadSpec(arrivals=ClosedLoop(), n_requests=10, read_fraction=1.0),
    )
    run_to(sim, sim.process(gen.run()))
    cluster.stop()
    assert gen.reads_completed == 10 and gen.completed == 0
    assert cluster.total_ops().overwrite_ops == 0


def test_multi_tenant_sharding_touches_every_file():
    sim, cluster, client, _ = build()
    tenants = []
    for t in range(3):
        inode = 50 + t
        cluster.register_sparse_file(inode, 2 * K * BLOCK)
        tenants.append((inode, records(20)))
    gen = OpenLoopGenerator(
        client, tenants, np.random.default_rng(11),
        WorkloadSpec(arrivals=ClosedLoop(), n_requests=45, iodepth=4),
    )
    run_to(sim, sim.process(gen.run()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert gen.completed == 45
    assert all(c > 0 for c in gen._cursors)  # every tenant drew requests
    for inode, _ in tenants:
        assert cluster.stripe_consistent(inode, 0)
        assert cluster.stripe_consistent(inode, 1)


# ----------------------------------------------------------------------
# closed-loop replayer compatibility
# ----------------------------------------------------------------------
def test_trace_replayer_is_closed_loop_generator():
    sim, cluster, client, inode = build()
    recs = records(12)
    rep = TraceReplayer(client, inode, recs, np.random.default_rng(12))
    assert isinstance(rep, OpenLoopGenerator)
    done = run_to(sim, sim.process(rep.run()))
    cluster.stop()
    assert done == 12 and rep.completed == 12
    assert len(client.update_latency) == 12
    assert client.peak_inflight_updates == 1  # strictly one outstanding update


def test_trace_replayer_payload_stream_unchanged():
    """The refactor must keep the historical one-draw-per-record RNG order
    (the harness shadow verifier re-derives payloads from a fresh stream)."""
    sim, cluster, client, inode = build()
    recs = [TraceRecord(0, 16), TraceRecord(100, 32), TraceRecord(50, 8)]
    rep = TraceReplayer(client, inode, recs, np.random.default_rng(99))
    run_to(sim, sim.process(rep.run()))
    run_to(sim, sim.process(drain_all(cluster)))

    fresh = np.random.default_rng(99)
    def rd(off, n):
        return (yield from client.read(inode, off, n))

    for rec in recs:
        expect = fresh.integers(0, 256, rec.size, dtype=np.uint8)
        got = run_to(sim, sim.process(rd(rec.offset, rec.size)))
        assert np.array_equal(got, expect)
    cluster.stop()
