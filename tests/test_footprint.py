"""Host-memory footprint follows use (docs/dataplane.md, "Footprint follows use").

Four per-entity structures the ``scale_out`` tier instantiates thousands of
times — ``SampleBuffer``, ``TwoLevelIndex``, ``FileMeta``'s written
map and TSUE's log pools — must cost O(1) bytes while empty and behave
exactly like the plain references below as they grow.  The ``tracemalloc``
ceilings are the part that keeps a later constructor from quietly
provisioning again.  A log pool builds its units on its first append, and
nothing that only reads it may build them.

On the byte plane a block holds only its written hull and a recycled TSUE
unit holds only what a reader can reach; the last section pins both, and a
crash cell pins the reply cache, which keeps only replies not yet delivered.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.experiment as hx
from repro.cluster import Cluster, ClusterConfig
from repro.devices import SSD
from repro.fs.blockstore import BlockStore
from repro.fs.mds import PAGE, FileMeta
from repro.harness.experiment import (
    ExperimentConfig, build_cluster, drain_all, make_trace, run_experiment,
)
from repro.logstruct import TwoLevelIndex
from repro.logstruct.states import UnitState
from repro.metrics.latency import LatencyRecorder, SampleBuffer
from repro.sim import Simulator
from repro.tsue.engine import DATA, DELTA, PARITY, TSUEConfig, TSUEEngine
from repro.update import make_strategy_factory
from repro.workload import run_scenario, scenario_config


def traced(build):
    """(result, bytes still allocated by ``build()``), per ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# SampleBuffer against a plain list
# ----------------------------------------------------------------------
SIZES = (0, 1, 15, 16, 17, 4095, 4096, 4097, 8193)
WAYS = ("append", "extend_list", "extend_buffer")


def grow(buf, ref, way, n, rng):
    vals = [rng.uniform(-1e3, 1e3) for _ in range(n)]
    if way == "append":
        for v in vals:
            buf.append(v)
    elif way == "extend_list":
        buf.extend(vals)
    else:
        buf.extend(SampleBuffer(vals))
    ref.extend(vals)


def assert_same(buf, ref):
    assert len(buf) == len(ref)
    assert bool(buf) is bool(ref)
    assert list(buf) == ref
    arr = buf.to_array()
    assert arr.dtype == np.float64 and arr.tolist() == ref
    if ref:
        arr[0] += 1.0  # a copy: the buffer keeps its samples
        assert buf[0] == ref[0]


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("n", SIZES)
def test_sample_buffer_at_each_growth_boundary(n, way):
    rng = random.Random(n)
    buf, ref = SampleBuffer(), []
    grow(buf, ref, way, n, rng)
    assert_same(buf, ref)
    grow(buf, ref, "append", 1, rng)
    assert_same(buf, ref)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(WAYS), st.sampled_from(SIZES) | st.integers(0, 4200)),
        max_size=5,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_buffer_matches_a_list(steps, seed):
    rng = random.Random(seed)
    buf, ref = SampleBuffer(), []
    assert_same(buf, ref)
    for way, n in steps:
        grow(buf, ref, way, n, rng)
        assert_same(buf, ref)


# ----------------------------------------------------------------------
# FileMeta: the page-level written map
# ----------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 40 * PAGE), st.integers(0, 6 * PAGE)),
        max_size=60,
    )
)
@settings(max_examples=200, deadline=None)
def test_written_map_agrees_with_a_set_of_pages(ops):
    meta = FileMeta(inode=1, size=64 * PAGE)
    pages = set()
    for mark, offset, length in ops:
        touched = range(offset // PAGE, (offset + max(length, 1) - 1) // PAGE + 1)
        assert meta.is_update(offset, length) == all(p in pages for p in touched)
        if mark:
            meta.mark_written(offset, length)
            pages.update(touched)
    for p in range(48):
        assert meta.is_update(p * PAGE, 1) == (p in pages)


def test_registering_a_terabyte_file_is_constant_work():
    cluster = Cluster(
        Simulator(),
        ClusterConfig(n_osds=8, k=4, m=2, block_size=1024, seed=1),
        make_strategy_factory("fo"),
    )
    size = 1 << 40  # 2**28 pages: one boxed int each would be ~8 GiB
    _, held = traced(lambda: cluster.register_sparse_file(7, size))
    assert held < 1024
    meta = cluster.mds.files[7]
    assert meta.written_pages.intervals() == [(0, size // PAGE)]
    assert meta.is_update(size - 1, 1) and meta.is_update(0, size)
    assert not meta.is_update(size, 1)


# ----------------------------------------------------------------------
# tracemalloc ceilings
# ----------------------------------------------------------------------
def test_an_empty_index_stays_small():
    idx, held = traced(TwoLevelIndex)
    assert held < 1024
    assert "anything" not in idx


def test_a_recorder_of_five_samples_stays_small():
    def five():
        rec = LatencyRecorder("client")
        for i in range(5):
            rec.record(1e-3 * i, 1e-4)
        return rec

    rec, held = traced(five)
    assert held < 1024
    assert len(rec) == 5


# What an idle scale-out cluster may hold, traced: it measures 7.4 MB with
# log units built on first append (14.6 MB with 6,144 units and 3,072
# deques built at construction, 49.6 MB with the first three structures
# provisioning too).  Ceiling: 1.2x.
IDLE_SCALE_OUT_BUDGET = 8.9e6


def test_idle_scale_out_cluster_fits_its_budget():
    """The ``ghost_scaleout_tsue`` geometry — 256 OSDs, 1024 clients, their
    files and traces — before a single request is issued."""
    cfg = scenario_config(1, 1024, 5, "tsue", "ssd", ghost_dataplane=True, n_osds=256)

    def build():
        cluster = build_cluster(cfg)
        traces = []
        for i in range(cfg.n_clients):
            cluster.add_client(f"client{i}")
            cluster.register_sparse_file(1000 + i, cfg.file_size)
            traces.append(make_trace(cfg, cluster.rng.get(f"trace{i}.0")))
        return cluster, traces

    (cluster, traces), held = traced(build)
    assert len(cluster.osds) == 256 and len(cluster.clients) == 1024
    assert held < IDLE_SCALE_OUT_BUDGET


# ----------------------------------------------------------------------
# TSUE's log pools: units on first append
# ----------------------------------------------------------------------
def _pools(engine):
    return engine.data_pools + engine.delta_pools + engine.parity_pools


def _tsue_cluster(**params):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=4, m=2, block_size=2048, seed=0),
        make_strategy_factory("tsue", **params),
    )
    cluster.register_sparse_file(5, 8 * 2048)
    return sim, cluster


# One engine that never appended, traced: 4.6 KB — twelve slotted pools and
# the engine's own maps — against 32.2 KB with two units per pool and a
# deque per pool built at construction.  Ceiling: 1.25x.
NEVER_APPENDED_ENGINE_BUDGET = 5800


def test_an_engine_that_never_appended_stays_small():
    _, cluster = _tsue_cluster()
    osd = cluster.osds[0]
    TSUEEngine(osd, TSUEConfig())  # first-use caches (the shared zone names)
    engine, held = traced(lambda: TSUEEngine(osd, TSUEConfig()))
    assert held < NEVER_APPENDED_ENGINE_BUDGET, held
    assert all(pool.units == [] for pool in _pools(engine))
    # The modelled reservation is arithmetic: 12 pools x 2 units x 16 MiB.
    assert engine.log_memory_bytes() == engine.peak_log_memory_bytes() == 12 * 2 * 16 * 2**20


def test_reading_a_pool_builds_no_unit():
    """Every path that only reads a pool — the flush tick with its elastic
    shrink, ``drain_layer``'s flush, the scrubber's ``stripe_pending``,
    ``read_overlay`` and the per-layer stats — leaves an idle pool unbuilt."""
    sim, cluster = _tsue_cluster(flush_age=0.02, flush_interval=0.01)
    cluster.start()
    sim.run(until=1.0)  # 100 flush ticks, 5 of them shrink ticks
    engines = [osd.strategy.engine for osd in cluster.osds]
    for engine in engines:
        assert engine.read_overlay((5, 0, 0), 0, 64) is None
        assert not engine.stripe_pending(5, 0) and not engine.stripe_pending(5, 1)
        assert engine.peak_log_memory_bytes() == 12 * 2 * 16 * 2**20
        assert engine.pending_recycles() == 0
        for pool in _pools(engine):
            assert pool.flush_active(sim.now) is None and pool.shrink() == 0
            assert not pool.has_pending_recycle() and pool.total_seals == 0
    sim.drive(sim.process(drain_all(cluster)))
    cluster.stop()
    assert all(pool.units == [] for engine in engines for pool in _pools(engine))


def test_a_run_builds_only_the_pools_it_appends_to(monkeypatch):
    kept = []
    build = hx.build_cluster
    monkeypatch.setattr(hx, "build_cluster", lambda cfg: kept.append(build(cfg)) or kept[-1])
    assert run_scenario("steady", n_clients=2, requests_per_client=30).consistent
    (cluster,) = kept
    pools = [pool for osd in cluster.osds for pool in _pools(osd.strategy.engine)]
    built = [pool for pool in pools if pool.units]
    assert 0 < len(built) < len(pools)
    assert all(pool.total_seals > 0 for pool in built)  # drained: all appends sealed


# ----------------------------------------------------------------------
# the byte plane: written hulls and released log units
# ----------------------------------------------------------------------
def test_a_block_written_in_one_page_holds_one_page():
    sim = Simulator()
    store = BlockStore(sim, SSD(sim), 64 * 1024)

    def write():
        sim.process(store.write_range("b", 40_000, np.ones(8, dtype=np.uint8)))
        sim.run()
        return store

    _, held = traced(write)
    assert held < 4096 + 1024  # one page of hull, not 64 KiB of block
    blk = store.peek("b")
    assert blk.size == 64 * 1024 and int(blk.sum()) == 8


def _recycled_units(engine):
    for layer, pools in (
        (DATA, engine.data_pools),
        (DELTA, engine.delta_pools),
        (PARITY, engine.parity_pools),
    ):
        for pool in pools:
            for unit in pool.units:
                if unit.state is UnitState.RECYCLED and unit.used:
                    yield layer, unit


def _assert_released(engines):
    """Every recycled unit dropped its raw entries; DeltaLog and ParityLog
    units their index too, while each DataLog unit's index still serves
    ``read_overlay``.  Returns the recycled units seen per layer."""
    seen = {}
    for engine in engines:
        for layer, unit in _recycled_units(engine):
            seen[layer] = seen.get(layer, 0) + 1
            assert unit.entries == []
            if layer != DATA:
                assert unit.index.block_count == 0
                continue
            assert unit.index.block_count > 0
            for key in unit.index.blocks():
                for seg in unit.index.segments(key):
                    frags = engine.read_overlay(key, seg.offset, seg.data.size)
                    assert frags and sum(f.size for _, f in frags) == seg.data.size
    return seen


def test_recycled_delta_and_parity_units_hold_nothing(monkeypatch):
    kept = []
    build = hx.build_cluster
    monkeypatch.setattr(hx, "build_cluster", lambda cfg: kept.append(build(cfg)) or kept[-1])
    assert run_scenario("steady", n_clients=2, requests_per_client=30).consistent
    (cluster,) = kept
    seen = _assert_released(osd.strategy.engine for osd in cluster.osds)
    assert set(seen) == {DATA, DELTA, PARITY}


def test_raw_entry_copies_are_released_too():
    """O1/O2 off: the units keep a raw copy of every append for the
    recycler; once recycled, the copies go."""
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=4, m=2, block_size=2048, seed=0),
        make_strategy_factory(
            "tsue", unit_bytes=8 * 1024, flush_age=0.01, flush_interval=0.005,
            use_locality_data=False, use_locality_parity=False,
        ),
    )
    cluster.register_sparse_file(5, 8 * 2048)
    client = cluster.add_client("c0")
    cluster.start()

    def work():
        for i in range(24):
            yield from client.update(5, (i * 700) % (8 * 2048 - 64), np.full(64, i, dtype=np.uint8))
        yield from drain_all(cluster)

    sim.drive(sim.process(work()))
    cluster.stop()
    seen = _assert_released(osd.strategy.engine for osd in cluster.osds)
    assert set(seen) == {DATA, DELTA, PARITY}
    assert cluster.stripe_consistent(5, 0) and cluster.stripe_consistent(5, 1)


# Peak traced heap of a 2 x 40 Ali Fig. 5 cell (RS(6,2), 64 KiB blocks,
# verify on): 10.7 MB with written hulls and released log units, 20.6 MB
# with dense blocks and recycled units kept whole.  Ceiling: 1.2x.
ALI_CELL_PEAK_BUDGET = 12.9e6


def test_ali_cell_peak_heap_fits_its_budget():
    cfg = ExperimentConfig(method="tsue", trace="ali", n_clients=2,
                           updates_per_client=40, verify=True, seed=1)
    tracemalloc.start()
    try:
        res = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.consistent is True
    assert peak < ALI_CELL_PEAK_BUDGET, peak


# Peak traced heap of a 2 x 60 ``rebuild_under_load`` cell (byte plane,
# 20 % reads, one crash, rebuild, restore, scrub): 6.9 MB when a delivered
# reply frees its reply-cache entry, 11.6 MB when each host kept its last
# 128 replies per peer, payloads included.  Ceiling: 1.2x.
CRASH_CELL_PEAK_BUDGET = 8.3e6


def test_crash_cell_peak_heap_fits_its_budget():
    tracemalloc.start()
    try:
        res = run_scenario("rebuild_under_load", n_clients=2, requests_per_client=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.consistent is True
    assert peak < CRASH_CELL_PEAK_BUDGET, peak
