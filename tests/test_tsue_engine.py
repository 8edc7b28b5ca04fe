"""Unit/integration tests for the TSUE engine internals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.tsue.engine import DATA, DELTA, PARITY, TSUEConfig
from repro.update import make_strategy_factory

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


def test_config_validation():
    with pytest.raises(ValueError):
        TSUEConfig(replicas=0)
    with pytest.raises(ValueError):
        TSUEConfig(n_pools=0)


def test_config_pool_kwargs_o3_off_forces_single_unit():
    cfg = TSUEConfig(use_log_pool=False, min_units=2, max_units=8)
    kw = cfg.pool_kwargs("overwrite", keep_raw=False)
    assert kw["min_units"] == kw["max_units"] == 1


def test_front_end_appends_before_parity_updates():
    """The ack path must not touch data or parity blocks."""
    sim, cluster, client, inode = build(flush_age=10.0, flush_interval=5.0)

    def one():
        yield from client.update(inode, 0, np.full(100, 7, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    # No overwrites anywhere yet: only sequential log writes happened.
    assert cluster.total_ops().overwrite_ops == 0
    assert cluster.total_ops().write_ops > 0
    # But the data is readable (log overlay).
    def rd():
        return (yield from client.read(inode, 0, 100))

    got = run_to(sim, sim.process(rd()))
    assert np.all(got == 7)
    cluster.stop()


def test_replica_forward_costs_network():
    sim, cluster, client, inode = build()

    def one():
        yield from client.update(inode, 0, np.full(64, 1, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    kinds = cluster.fabric.counters.by_kind
    assert any(k.startswith("tsue_replica") for k in kinds)
    cluster.stop()


def test_three_replicas_forward_twice():
    sim, cluster, client, inode = build(replicas=3)

    def one():
        yield from client.update(inode, 0, np.full(64, 1, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    from repro.fs.messages import MSG_OVERHEAD

    # Two replica forwards, each charged payload + protocol overhead.
    assert cluster.fabric.counters.by_kind.get("tsue_replica", 0) == 2 * (64 + MSG_OVERHEAD)
    cluster.stop()


def test_pipeline_layers_all_exercised():
    sim, cluster, client, inode = build()
    rng = np.random.default_rng(1)

    def many():
        for _ in range(30):
            off = int(rng.integers(0, K * BLOCK - 64))
            yield from client.update(inode, off, rng.integers(0, 256, 64, dtype=np.uint8))

    run_to(sim, sim.process(many()))
    run_to(sim, sim.process(drain_all(cluster)))
    samples = {DATA: 0, DELTA: 0, PARITY: 0}
    for osd in cluster.osds:
        for layer in samples:
            samples[layer] += osd.strategy.engine.residency.samples(layer)
    cluster.stop()
    assert samples[DATA] > 0 and samples[DELTA] > 0 and samples[PARITY] > 0


def test_delta_log_off_goes_straight_to_parity_log():
    sim, cluster, client, inode = build(use_delta_log=False)

    def one():
        yield from client.update(inode, 0, np.full(64, 3, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    run_to(sim, sim.process(drain_all(cluster)))
    for osd in cluster.osds:
        assert osd.strategy.engine.residency.samples(DELTA) == 0
    cluster.stop()
    assert cluster.stripe_consistent(inode, 0)


def test_m1_code_skips_delta_log():
    """With a single parity block there is no second DeltaLog host."""
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=4, m=1, block_size=BLOCK, seed=2,
                      client_overhead_s=0.0),
        make_strategy_factory("tsue", unit_bytes=8 * 1024, flush_age=0.01,
                              flush_interval=0.005),
    )
    inode = 6
    cluster.register_sparse_file(inode, 4 * BLOCK)
    client = cluster.add_client("c0")
    cluster.start()

    def one():
        yield from client.update(inode, 100, np.full(64, 9, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert cluster.stripe_consistent(inode, 0)


def test_backpressure_blocks_then_recovers():
    """A tiny pool quota forces append waits but never deadlocks."""
    sim, cluster, client, inode = build(
        unit_bytes=2 * 1024, min_units=1, max_units=1, n_pools=1
    )
    rng = np.random.default_rng(3)

    def many():
        for _ in range(40):
            off = int(rng.integers(0, K * BLOCK - 256))
            yield from client.update(
                inode, off, rng.integers(0, 256, 256, dtype=np.uint8)
            )

    run_to(sim, sim.process(many()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert cluster.stripe_consistent(inode, 0)
    assert cluster.stripe_consistent(inode, 1)


def test_read_cache_hit_skips_device():
    sim, cluster, client, inode = build(flush_age=10.0, flush_interval=5.0)

    def scenario():
        yield from client.update(inode, 50, np.full(32, 4, dtype=np.uint8))
        before = cluster.total_ops().read_ops
        got = yield from client.read(inode, 50, 32)
        after = cluster.total_ops().read_ops
        return before, after, got

    before, after, got = run_to(sim, sim.process(scenario()))
    cluster.stop()
    assert np.all(got == 4)
    assert after == before  # full overlay hit: no device read


def test_partial_read_overlays_log_on_disk_data():
    sim, cluster, client, inode = build(flush_age=10.0, flush_interval=5.0)

    def scenario():
        yield from client.update(inode, 100, np.full(16, 8, dtype=np.uint8))
        got = yield from client.read(inode, 96, 24)
        return got

    got = run_to(sim, sim.process(scenario()))
    cluster.stop()
    assert list(got[:4]) == [0, 0, 0, 0]
    assert np.all(got[4:20] == 8)
    assert list(got[20:]) == [0, 0, 0, 0]


def test_residency_append_recorded_on_front_end():
    sim, cluster, client, inode = build()

    def one():
        yield from client.update(inode, 0, np.full(64, 2, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    total = sum(
        osd.strategy.engine.residency.mean_us(DATA)[0] for osd in cluster.osds
    )
    cluster.stop()
    assert total > 0


def test_engine_memory_accounting():
    sim, cluster, client, inode = build()
    engine = cluster.osds[0].strategy.engine
    assert engine.log_memory_bytes() > 0
    assert engine.peak_log_memory_bytes() >= engine.log_memory_bytes()
    cluster.stop()


def test_stop_is_idempotent_and_halts_flush():
    sim, cluster, client, inode = build()
    cluster.stop()
    cluster.stop()
    sim.run()  # no runaway flush timers keep the heap alive forever


def test_recycle_job_failure_unblocks_backpressure():
    """Regression: a crashing recycle job must not wedge the pool.

    Before the fix, a job that raised left state["left"] undecremented, so
    the unit never finished recycling, _notify_space never fired, and every
    appender waiting in _pool_append deadlocked forever.
    """
    sim, cluster, client, inode = build(
        unit_bytes=2 * 1024, min_units=1, max_units=1, n_pools=1
    )
    for osd in cluster.osds:
        eng = osd.strategy.engine

        def boom(key, pieces):
            raise RuntimeError("injected recycle failure")
            yield  # pragma: no cover - generator-ness only

        eng._recycle_data_block = boom

    rng = np.random.default_rng(5)

    def many():
        for _ in range(40):
            off = int(rng.integers(0, K * BLOCK - 256))
            yield from client.update(
                inode, off, rng.integers(0, 256, 256, dtype=np.uint8)
            )
        return "done"

    p = sim.process(many())
    # The injected error surfaces out of the kernel (via sim._crash) ...
    with pytest.raises(RuntimeError, match="injected recycle failure"):
        while not p.fired and sim.peek() != float("inf"):
            sim.step()
    # ... and the front end still drains: backpressure waiters were woken,
    # so the full update stream completes despite every data recycle failing.
    while not p.fired and sim.peek() != float("inf"):
        try:
            sim.step()
        except RuntimeError as err:
            if "injected recycle failure" not in str(err):
                raise
    assert p.fired and p.value == "done"
    assert all(
        osd.strategy.engine.pending_recycles() == 0 for osd in cluster.osds
    )
    cluster.stop()


def _force_width(cluster, blocked):
    """Pin every engine's demand signal: ``False`` recycles at background
    width whoever waits, ``True`` at device width even when nobody does."""
    for osd in cluster.osds:
        osd.strategy.engine._blocked = lambda layer: blocked


@pytest.mark.parametrize("blocked", [False, True])
def test_single_unit_pools_drain_at_either_width(blocked):
    """The layered deadlock-freedom floor: with O3 off every pool is one
    exclusive unit, so each layer's appenders wait on that layer's recycle
    while its jobs wait on the next layer's appends — on every OSD at once.
    The pipeline must still drain, at background and at demand width."""
    sim, cluster, client, inode = build(use_log_pool=False, unit_bytes=4 * 1024)
    _force_width(cluster, blocked)
    rng = np.random.default_rng(11)
    shadow = np.zeros(2 * K * BLOCK, dtype=np.uint8)

    def many():  # every block of both stripes: every OSD appends and recycles
        for _ in range(6):
            for off in range(0, shadow.size, 512):
                data = rng.integers(0, 256, 512, dtype=np.uint8)
                yield from client.update(inode, off, data)
                shadow[off : off + 512] = data

    run_to(sim, sim.process(many()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    admitted = [
        (osd.strategy.engine.admitted_background, osd.strategy.engine.admitted_demand)
        for osd in cluster.osds
    ]
    assert all((b == 0) if blocked else (d == 0) for b, d in admitted)
    assert all(cluster.stripe_consistent(inode, s) for s in range(2))
    for s in range(2):
        names = cluster.placement(inode, s)
        for j in range(K):
            lo = (s * K + j) * BLOCK
            got = cluster.osd_by_name(names[j]).store.peek((inode, s, j))
            assert np.array_equal(got, shadow[lo : lo + BLOCK])


def test_same_block_recycles_in_seal_order_at_demand_width():
    """One block, one job at a time, in seal order.  Two sealed units hold
    the same range of one block; the older unit's job reaches that range
    second (it has another segment first), so run side by side — which the
    demand width allows — the stale bytes would land last."""
    sim, cluster, client, inode = build(flush_age=10.0, flush_interval=5.0)
    key = (inode, 0, 0)
    primary = cluster.osd_by_name(cluster.osd_of_block(*key))
    eng = primary.strategy.engine
    pool = eng._pool_for(eng.data_pools, key)
    eng.stop()  # seal both units before either recycles

    def two_units():
        yield from client.update(inode, 0, np.full(256, 1, dtype=np.uint8))
        yield from client.update(inode, 1024, np.full(256, 2, dtype=np.uint8))
        pool.flush_active(sim.now)
        yield from client.update(inode, 1024, np.full(256, 3, dtype=np.uint8))
        pool.flush_active(sim.now)

    run_to(sim, sim.process(two_units()))
    assert [job[0] for job in eng._ready[DATA]] == [key, key]
    drain = sim.process(drain_all(cluster))
    while not eng._idle_waiters[DATA]:
        sim.step()
    assert eng._width(DATA) == primary.device.profile.channels == 4
    eng.start()
    run_to(sim, drain)
    cluster.stop()
    assert eng.admitted_demand >= 2 and eng.admitted_background == 0
    block = primary.store.peek(key)
    assert np.all(block[1024:1280] == 3) and np.all(block[:256] == 1)
    assert cluster.stripe_consistent(inode, 0)


def test_append_zone_precomputed_per_pool():
    sim, cluster, client, inode = build(n_pools=3)
    eng = cluster.osds[0].strategy.engine
    for prefix, pools in (
        ("dlog", eng.data_pools),
        ("xlog", eng.delta_pools),
        ("plog", eng.parity_pools),
    ):
        for i, pool in enumerate(pools):
            assert eng._pool_zone[id(pool)] == f"{prefix}{i}"
    cluster.stop()


# ----------------------------------------------------------------------
# the ack rule is a durability rule: ack == max(local persist, replica
# round trips), never before either
# ----------------------------------------------------------------------
def _spy_submits(osd, log):
    """Record (zone, issue instant, completion instant) of every write the
    OSD's device is handed — awaited or not."""
    dev = osd.device
    orig = dev.submit_write

    def submit_write(nbytes, zone="data", *args, **kwargs):
        done = orig(nbytes, zone, *args, **kwargs)
        log.append((zone, osd.sim.now, done))
        return done

    dev.submit_write = submit_write


def _ack_instants(replicas, slow_factor=1.0, extra_latency=0.0):
    """One update through ``on_update`` on an idle toy cluster: the instants
    of the local persist, each replica's persist, each replica's reply
    reaching the primary, and the ack."""
    sim, cluster, client, inode = build(
        replicas=replicas, flush_age=10.0, flush_interval=5.0
    )
    key = (inode, 0, 0)
    primary = cluster.osd_by_name(cluster.osd_of_block(*key))
    neighbours = [
        cluster.osd_by_name(cluster.ring_neighbor(primary.name, r))
        for r in range(1, replicas)
    ]
    local, remote, replies = [], [], []
    _spy_submits(primary, local)
    for osd in neighbours:
        _spy_submits(osd, remote)
        if extra_latency:
            cluster.fabric.degrade_link(osd.name, extra_latency=extra_latency)
    if slow_factor != 1.0:
        primary.device.degrade(slow_factor)
    rpc = primary.rpc

    def spy_rpc(dst, kind, payload, nbytes=0):
        reply = yield from rpc(dst, kind, payload, nbytes=nbytes)
        replies.append(sim.now)
        return reply

    primary.rpc = spy_rpc

    def one():
        yield from primary.strategy.on_update(key, 0, np.full(512, 3, dtype=np.uint8))
        return sim.now

    ack = run_to(sim, sim.process(one()))
    cluster.stop()
    assert [zone[:4] for zone, _, _ in local] == ["dlog"]
    assert [zone for zone, _, _ in remote] == ["dlog_rep"] * (replicas - 1)
    assert local[0][1] == 0.0  # issued on entry, before any forward
    return ack, local[0][2], [done for _, _, done in remote], replies


@pytest.mark.parametrize("replicas", [1, 2, 3])
def test_ack_instant_is_max_of_local_persist_and_replica_replies(replicas):
    ack, persisted, remote, replies = _ack_instants(replicas)
    assert len(replies) == len(remote) == replicas - 1
    assert ack == max([persisted] + replies)  # the same float
    if replicas == 1:
        assert ack == persisted
    else:
        # Healthy geometry: the round trip outlasts the local persist, and
        # every reply left its replica after that replica's persist.
        assert ack == max(replies) > persisted
        assert all(r > p for r, p in zip(sorted(replies), sorted(remote)))


@given(
    replicas=st.sampled_from([2, 3]),
    slow_factor=st.floats(1.0, 40.0),
    extra_latency=st.floats(0.0, 2e-3),
)
@settings(max_examples=30, deadline=None)
def test_ack_never_precedes_a_persist_and_tracks_the_slower(
    replicas, slow_factor, extra_latency
):
    ack, persisted, remote, replies = _ack_instants(
        replicas, slow_factor=slow_factor, extra_latency=extra_latency
    )
    assert ack >= persisted and all(ack >= p for p in remote)
    assert ack == max([persisted] + replies)
    # Whichever side is slower sets the ack — a fail-slow primary is not
    # hidden behind a fast replica, nor a slow link behind a fast SSD.
    assert (ack == persisted) == (persisted >= max(replies))


def test_full_pool_delays_the_submit_not_just_the_ack():
    sim, cluster, client, inode = build(
        unit_bytes=2 * 1024, min_units=1, max_units=1, n_pools=1
    )
    key = (inode, 0, 0)
    primary = cluster.osd_by_name(cluster.osd_of_block(*key))
    submits = []
    _spy_submits(primary, submits)
    rows = []

    def many():
        for i in range(24):
            entered = sim.now
            yield from primary.strategy.on_update(
                key, 0, np.full(256, i, dtype=np.uint8)
            )
            issued, persisted = next(
                (t, done) for zone, t, done in submits
                if zone == "dlog0" and t >= entered
            )
            rows.append((entered, issued, persisted, sim.now))

    run_to(sim, sim.process(many()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert all(e <= i < p <= ack for e, i, p, ack in rows)
    # The pool filled at least once, and then the persist was not even
    # issued until a recycle freed space.
    assert any(issued > entered for entered, issued, _, _ in rows)
    assert cluster.stripe_consistent(inode, 0)


def test_primary_crash_between_submit_and_ack_is_retried_and_drains_clean():
    from repro.recovery import fail_osd, recover_node, scrub

    sim, cluster, client, inode = build()
    primary = cluster.osd_by_name(cluster.osd_of_block(inode, 0, 0))
    submits = []
    _spy_submits(primary, submits)
    payload = np.full(300, 0xA5, dtype=np.uint8)
    p = sim.process(client.update(inode, 10, payload))
    while not submits:
        sim.step()
    # Persist issued, replica forward in flight, nothing acked: crash here.
    assert submits[0][2] > sim.now and not p.fired
    fail_osd(cluster, primary.name, mode="crash")
    res = recover_node(cluster, primary.name, repair=True)
    assert res.correct
    run_to(sim, p)
    assert client.update_retries == 1
    # The submitted-but-unacked command was charged once; the retry is a
    # second command, not a second charge of the first.
    assert len([s for s in submits if s[0].startswith("dlog")]) == 2

    def rd():
        return (yield from client.read(inode, 10, 300))

    assert np.array_equal(run_to(sim, sim.process(rd())), payload)
    run_to(sim, sim.process(drain_all(cluster)))
    targets = [(inode, 0), (inode, 1)]
    assert all(cluster.stripe_consistent(*t) for t in targets)
    report = run_to(sim, sim.process(scrub(cluster, targets)))
    cluster.stop()
    assert report.clean and report.stripes_checked == 2
