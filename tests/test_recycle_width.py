"""Recycle width follows demand (docs/dataplane.md): how many jobs a layer
runs at once is invisible to content and visible only to time."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.sim.events import AllOf
from repro.tsue.engine import BACKGROUND_WIDTH, DATA, DELTA, PARITY
from repro.update import make_strategy_factory

K, M, BLOCK = 4, 2, 2048
INODE, STRIPES = 5, 2
LAYERS = (DATA, DELTA, PARITY)


def build(device_kind="ssd", stripes=STRIPES, **flags):
    params = dict(unit_bytes=2048, flush_age=0.005, flush_interval=0.002)
    params.update(flags)
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=0,
                      client_overhead_s=0.0, device_kind=device_kind),
        make_strategy_factory("tsue", **params),
    )
    cluster.register_sparse_file(INODE, stripes * K * BLOCK)
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def engines(cluster):
    return [osd.strategy.engine for osd in cluster.osds]


def widths(eng):
    return {layer: eng._width(layer) for layer in LAYERS}


def drain_phase(cluster, phase):
    sim = cluster.sim
    return AllOf(sim, [sim.process(o.strategy.drain(phase)) for o in cluster.osds])


# ----------------------------------------------------------------------
# content: byte-identical stores at any width
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.integers(0, STRIPES * K - 1),  # data block
            st.integers(0, BLOCK - 1),        # offset in block
            st.integers(1, 400),              # size
            st.integers(0, 2**31 - 1),        # payload seed
        ),
        st.sampled_from(LAYERS),              # seal that layer, cluster-wide
    ),
    min_size=1,
    max_size=30,
)


def _final_stores(ops, flags, blocked_at):
    """Run the stream, drain, return every data and parity block's bytes.
    ``blocked_at(sim)`` is the engines' demand signal for this run."""
    sim, cluster, client = build(**flags)
    for eng in engines(cluster):
        eng._blocked = lambda layer: blocked_at(sim)

    def stream():
        for op in ops:
            if isinstance(op, str):
                for eng in engines(cluster):
                    for pool in eng._layer_pools(op):
                        pool.flush_active(sim.now)
                continue
            block, off, size, seed = op
            size = min(size, BLOCK - off)
            data = np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)
            yield from client.update(INODE, block * BLOCK + off, data)

    run_to(sim, sim.process(stream()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert all(cluster.stripe_consistent(INODE, s) for s in range(STRIPES))
    out = []
    for s in range(STRIPES):
        names = cluster.placement(INODE, s)
        for idx in range(K + M):
            blk = cluster.osd_by_name(names[idx]).store.peek((INODE, s, idx))
            out.append(bytes(BLOCK) if blk is None else blk.tobytes())
    return out


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=ops_strategy,
    o1=st.booleans(), o2=st.booleans(), o5=st.booleans(),
    switch_at=st.floats(0.0, 4e-3),
)
def test_final_bytes_do_not_depend_on_recycle_width(ops, o1, o2, o5, switch_at):
    flags = dict(use_locality_data=o1, use_locality_parity=o2, use_delta_log=o5)
    background = _final_stores(ops, flags, lambda sim: False)
    demand = _final_stores(ops, flags, lambda sim: True)
    switched = _final_stores(ops, flags, lambda sim: sim.now >= switch_at)
    assert background == demand == switched


# ----------------------------------------------------------------------
# demand transitions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("device_kind, channels", [("ssd", 4), ("hdd", 2)])
def test_demand_width_is_the_device_channel_count(device_kind, channels):
    sim, cluster, client = build(device_kind=device_kind)
    eng = engines(cluster)[0]
    assert eng.osd.device.profile.channels == channels
    assert widths(eng) == BACKGROUND_WIDTH
    eng._blocked = lambda layer: True
    assert widths(eng) == {layer: max(BACKGROUND_WIDTH[layer], channels) for layer in LAYERS}
    cluster.stop()


def test_parity_drain_waiter_widens_paritylog_only_until_idle():
    sim, cluster, client = build(flush_age=10.0, flush_interval=5.0)
    rng = np.random.default_rng(2)

    def many():
        for block in range(STRIPES * K):
            yield from client.update(
                INODE, block * BLOCK + 128, rng.integers(0, 256, 256, dtype=np.uint8)
            )

    run_to(sim, sim.process(many()))
    run_to(sim, drain_phase(cluster, 0))
    run_to(sim, drain_phase(cluster, 1))
    eng = next(e for e in engines(cluster) if any(p.active and p.active.used for p in e.parity_pools))
    assert widths(eng) == BACKGROUND_WIDTH
    waiter = sim.process(eng.drain_layer(PARITY))
    while not eng._idle_waiters.get(PARITY):
        sim.step()
    assert widths(eng) == {DATA: 2, DELTA: 1, PARITY: 4}
    run_to(sim, waiter)
    assert eng._pending[PARITY] == 0 and widths(eng) == BACKGROUND_WIDTH
    assert eng.admitted_demand > 0
    cluster.stop()


def test_parked_deltalog_appender_widens_deltalog_only_until_woken():
    sim, cluster, client = build(
        min_units=1, max_units=1, n_pools=1, flush_age=10.0, flush_interval=5.0
    )
    eng = cluster.osd_by_name(cluster.placement(INODE, 0)[K]).strategy.engine
    seen = []
    wait_space = eng._wait_space

    def spy(layer, pool):
        ev = wait_space(layer, pool)
        seen.append((layer, widths(eng)))
        return ev

    eng._wait_space = spy

    def appender():
        for i in range(8):  # 512 B + header each: the fourth fills the unit
            delta = np.full(512, i + 1, dtype=np.uint8)
            yield from eng.append_deltalog((INODE, i % STRIPES, i % K), [(0, delta)], True)

    run_to(sim, sim.process(appender()))
    assert seen and all(layer == DELTA for layer, _ in seen)
    assert all(w == {DATA: 2, DELTA: 4, PARITY: 1} for _, w in seen)
    assert not eng._space_waiters.get(DELTA) and widths(eng) == BACKGROUND_WIDTH
    run_to(sim, sim.process(drain_all(cluster)))  # the injected deltas recycle out
    cluster.stop()
    assert eng.pending_recycles() == 0 and eng.admitted_demand > 0


def _peak_jobs_in_flight(**flags):
    """Per (osd, layer): the most job bodies alive at once before the drain
    and over the whole run — counted by the bodies, not the engine's books."""
    stripes = 24  # several blocks of every layer on every OSD
    sim, cluster, client = build(stripes=stripes, **flags)
    live, peak = {}, {}

    def counting(eng, layer, body):
        def job(*args):
            key = (eng.osd.name, layer)
            live[key] = live.get(key, 0) + 1
            assert live[key] <= eng._width(layer)
            peak[key] = max(peak.get(key, 0), live[key])
            try:
                yield from body(*args)
            finally:
                live[key] -= 1

        return job

    for eng in engines(cluster):
        eng._recycle_data_block = counting(eng, DATA, eng._recycle_data_block)
        eng._recycle_delta_stripe = counting(eng, DELTA, eng._recycle_delta_stripe)
        eng._recycle_parity_block = counting(eng, PARITY, eng._recycle_parity_block)
    rng = np.random.default_rng(4)

    def many():
        for _ in range(240):
            off = int(rng.integers(0, stripes * K * BLOCK - 300))
            yield from client.update(INODE, off, rng.integers(0, 256, 300, dtype=np.uint8))

    run_to(sim, sim.process(many()))
    steady = dict(peak)
    assert all(e.admitted_demand == 0 for e in engines(cluster))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    return steady, peak


def test_never_more_jobs_in_flight_than_the_width():
    # Units that seal by size while the stream runs: nobody waits, so the
    # recycler stays at background width.
    steady, peak = _peak_jobs_in_flight()
    assert {layer for _, layer in steady} == set(LAYERS)
    assert all(n <= BACKGROUND_WIDTH[layer] for (_, layer), n in steady.items())
    assert all(n <= 4 for n in peak.values())
    # Units that only the drain seals: every layer recycles under a waiter,
    # up to the SSD's four channels and no further.
    steady, peak = _peak_jobs_in_flight(
        unit_bytes=64 * 1024, flush_age=10.0, flush_interval=5.0
    )
    assert not steady
    for layer in LAYERS:
        widest = max(n for (_, lay), n in peak.items() if lay == layer)
        assert BACKGROUND_WIDTH[layer] < widest <= 4


# ----------------------------------------------------------------------
# time: a drain runs at device width
# ----------------------------------------------------------------------
def test_paritylog_drain_of_n_blocks_takes_n_over_channels_rmw_times():
    sim, cluster, client = build(unit_bytes=64 * 1024, flush_age=10.0, flush_interval=5.0)
    eng = engines(cluster)[0]
    dev = eng.osd.device
    n, size = 10, 1024
    rmw = dev.service_time("read", size, False) + dev.service_time("write", size, False)

    def drain():
        for i in range(n):  # n parity blocks, one segment each
            delta = np.full(size, i + 1, dtype=np.uint8)
            yield from eng.append_paritylog((INODE, i, K), [(0, delta)])
        t0 = sim.now
        yield from eng.drain_layer(PARITY)
        return sim.now - t0

    elapsed = run_to(sim, sim.process(drain()))
    cluster.stop()
    # The seal itself admits one job, an instant before the waiter registers.
    assert (eng.admitted_background, eng.admitted_demand) == (1, n - 1)
    assert elapsed == pytest.approx(math.ceil(n / dev.profile.channels) * rmw, rel=0.02)
    assert elapsed < n * rmw / 2
