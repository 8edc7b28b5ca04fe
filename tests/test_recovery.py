"""Tests for node failure and recovery."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.recovery import recover_node
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 4, 2, 2048


def build(method="fo", **params):
    sim = Simulator()
    if method == "tsue" and not params:
        params = dict(unit_bytes=8 * 1024, flush_age=0.01, flush_interval=0.005)
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=7,
                      client_overhead_s=0.0),
        make_strategy_factory(method, **params),
    )
    return sim, cluster


def load_files(cluster, n_files=3, stripes=2):
    """Install ``n_files`` random files; returns ``{inode: content}``."""
    rng = np.random.default_rng(11)
    files = {}
    for i in range(n_files):
        files[500 + i] = rng.integers(0, 256, stripes * K * BLOCK, dtype=np.uint8)
        cluster.instant_load_file(500 + i, files[500 + i])
    return files


def test_recovery_rebuilds_exact_bytes():
    sim, cluster = build("fo")
    load_files(cluster)
    cluster.start()
    victim = max(cluster.osds, key=lambda o: len(o.store)).name
    store = cluster.osd_by_name(victim).store
    before = {k: store.peek(k).copy() for k in store}
    res = recover_node(cluster, victim)
    cluster.stop()
    assert res.blocks_recovered == len(before)
    assert res.bytes_recovered == len(before) * BLOCK
    assert res.bandwidth_mbps > 0
    # Restore moved the rebuilt blocks back to the (replacement) victim;
    # the rebuilder keeps no stale staging copies that could poison its
    # own truth capture if it failed later.
    rebuilder = cluster.osd_by_name(cluster.replica_of(victim))
    for key, expect in before.items():
        assert np.array_equal(cluster.osd_by_name(victim).store.peek(key), expect)
        assert rebuilder.store.peek(key) is None


def test_recovery_handles_parity_blocks_too(assert_holds):
    sim, cluster = build("fo")
    files = load_files(cluster, n_files=2)
    cluster.start()
    # Find a victim hosting at least one parity block.
    victim = None
    for osd in cluster.osds:
        if any(b >= K for (_, _, b) in osd.store):
            victim = osd.name
            break
    assert victim is not None
    recover_node(cluster, victim)
    cluster.stop()
    assert_holds(cluster, victim, files)


def test_recovery_drains_pending_logs_first(assert_holds):
    """With PL, updates before the failure leave parity logs that must be
    recycled before reconstruction (§2.3.2) — drain time is nonzero and
    recovery still produces correct bytes."""
    sim, cluster = build("pl")
    files = load_files(cluster, n_files=2, stripes=1)
    client = cluster.add_client("c0")
    cluster.start()

    def updates():
        rng = np.random.default_rng(3)
        for _ in range(25):
            off = int(rng.integers(0, K * BLOCK - 128))
            payload = rng.integers(0, 256, 128, dtype=np.uint8)
            files[500][off : off + 128] = payload
            yield from client.update(500, off, payload)

    p = sim.process(updates())
    while not p.fired and sim.peek() != float("inf"):
        sim.step()
    victim = cluster.placement(500, 0)[0]
    res = recover_node(cluster, victim)
    cluster.stop()
    assert_holds(cluster, victim, files)
    assert res.drain_seconds > 0


def test_tsue_recovery_after_updates(assert_holds):
    sim, cluster = build("tsue")
    files = load_files(cluster, n_files=2, stripes=1)
    client = cluster.add_client("c0")
    cluster.start()

    def updates():
        rng = np.random.default_rng(5)
        for _ in range(25):
            off = int(rng.integers(0, K * BLOCK - 128))
            payload = rng.integers(0, 256, 128, dtype=np.uint8)
            files[501][off : off + 128] = payload
            yield from client.update(501, off, payload)

    p = sim.process(updates())
    while not p.fired and sim.peek() != float("inf"):
        sim.step()
    victim = cluster.placement(501, 0)[2]
    recover_node(cluster, victim)
    cluster.stop()
    assert_holds(cluster, victim, files)


def test_recovery_of_empty_node_is_trivial():
    sim, cluster = build("fo")
    cluster.start()
    res = recover_node(cluster, "osd0")
    cluster.stop()
    assert res.blocks_recovered == 0
    assert len(cluster.osd_by_name("osd0").store) == 0
    assert res.bandwidth_mbps == 0.0


def test_recovery_result_arithmetic():
    from repro.recovery import RecoveryResult

    r = RecoveryResult("osd0", 10, 10 * (1 << 20), 1.0, 1.0)
    assert r.total_seconds == 2.0
    assert r.bandwidth_mbps == pytest.approx(5.0)
