"""White-box tests of strategy-specific mechanisms."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.logstruct.index import TwoLevelIndex
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 4, 2, 2048


def build(method, **params):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=21,
                      client_overhead_s=0.0),
        make_strategy_factory(method, **params),
    )
    inode = 50
    cluster.register_sparse_file(inode, 2 * K * BLOCK)
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client, inode


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def drive(sim, client, inode, n, size=256, seed=1):
    rng = np.random.default_rng(seed)

    def driver():
        for _ in range(n):
            off = int(rng.integers(0, 2 * K * BLOCK - size))
            yield from client.update(inode, off, rng.integers(0, 256, size, dtype=np.uint8))

    run_to(sim, sim.process(driver()))


# ----------------------------------------------------------------------
# PARIX
# ----------------------------------------------------------------------
def test_parix_first_vs_repeat_classification():
    sim, cluster, client, inode = build("parix")

    def scenario():
        p = np.full(128, 1, dtype=np.uint8)
        yield from client.update(inode, 0, p)      # first
        yield from client.update(inode, 0, p)      # repeat (covered)
        yield from client.update(inode, 64, p)     # extends beyond: first
        yield from client.update(inode, 64, p)     # now covered

    run_to(sim, sim.process(scenario()))
    data_osd = cluster.osd_by_name(cluster.placement(inode, 0)[0])
    s = data_osd.strategy
    cluster.stop()
    assert s.first_updates == 2
    assert s.repeat_updates == 2


def test_parix_first_update_costs_extra_network():
    sim, cluster, client, inode = build("parix")

    def one(off):
        def go():
            t0 = sim.now
            yield from client.update(inode, off, np.full(128, 3, dtype=np.uint8))
            return sim.now - t0

        return run_to(sim, sim.process(go()))

    t_first = one(0)
    t_repeat = one(0)
    cluster.stop()
    assert t_first > 1.3 * t_repeat  # read-old + serialized extra hop


def test_parix_threshold_triggers_compaction():
    sim, cluster, client, inode = build("parix", recycle_threshold_bytes=4096)
    drive(sim, client, inode, 40, size=512)
    total = sum(o.strategy.threshold_recycles for o in cluster.osds)
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert total > 0
    for s in range(2):
        assert cluster.stripe_consistent(inode, s)


def test_parix_orig_refresh_survives_compaction():
    """After a mid-run compaction, repeats still produce correct parity."""
    sim, cluster, client, inode = build("parix", recycle_threshold_bytes=2048)

    def scenario():
        for v in range(1, 8):
            yield from client.update(inode, 100, np.full(600, v, dtype=np.uint8))

    run_to(sim, sim.process(scenario()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert cluster.stripe_consistent(inode, 0)
    blk = cluster.osd_by_name(cluster.placement(inode, 0)[0]).store.peek((inode, 0, 0))
    assert np.all(blk[100:700] == 7)


def _insert_orig_uncovered_bitmap(self, key, offset, data):
    """The per-byte bitmap original-insert PARIX shipped before it moved to
    IntervalSet — kept here as the reference the property test compares."""
    covered = self.orig_index.lookup_partial(key, offset, int(data.size))
    have = np.zeros(int(data.size), dtype=bool)
    for a, frag in covered:
        have[a - offset : a - offset + frag.size] = True
    idx = np.flatnonzero(~have)
    if idx.size == 0:
        return
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    for s_i, e_i in zip(starts, ends):
        lo, hi = int(idx[s_i]), int(idx[e_i]) + 1
        self.orig_index.insert(key, offset + lo, data[lo:hi])
        self.orig_bytes += hi - lo


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 96), st.integers(1, 40)), max_size=12))
def test_parix_original_insert_matches_bitmap_reference(ranges):
    """First-wins originals: same fragments, same order, same byte count."""
    from repro.update.parix import PARIXStrategy

    def fresh():
        return SimpleNamespace(orig_index=TwoLevelIndex("overwrite"), orig_bytes=0)

    got, want = fresh(), fresh()
    for version, (offset, length) in enumerate(ranges, 1):
        data = np.full(length, version, dtype=np.uint8)
        PARIXStrategy._insert_orig_uncovered(got, "blk", offset, data)
        _insert_orig_uncovered_bitmap(want, "blk", offset, data)
        assert got.orig_bytes == want.orig_bytes
        segs, ref = got.orig_index.segments("blk"), want.orig_index.segments("blk")
        assert [(s.offset, s.data.tolist()) for s in segs] == [
            (s.offset, s.data.tolist()) for s in ref
        ]


# ----------------------------------------------------------------------
# PLR
# ----------------------------------------------------------------------
def test_plr_reserved_region_recycles_synchronously():
    sim, cluster, client, inode = build("plr", reserve_bytes=1024)
    drive(sim, client, inode, 30, size=512)
    recycles = sum(o.strategy.sync_recycles for o in cluster.osds)
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert recycles > 0
    assert cluster.stripe_consistent(inode, 0)


def test_plr_appends_are_random_writes():
    sim, cluster, client, inode = build("plr", reserve_bytes=1 << 20)
    before = cluster.total_ops().write_ops_rand
    drive(sim, client, inode, 10)
    after = cluster.total_ops().write_ops_rand
    cluster.stop()
    # Data RMW (1 random write) + m random log appends per update.
    assert after - before >= 10 * (1 + M)


@pytest.mark.xfail(strict=True, reason=(
    "known PLR ledger race: concurrent _h_append calls on one parity block "
    "read region_used before their write and claim the same region offset "
    "(docs/dataplane.md, 'The PLR ledger race')"))
@pytest.mark.parametrize("during_recycle", [False, True],
                         ids=["same-instant", "during-recycle"])
def test_plr_concurrent_appends_claim_distinct_region_space(during_recycle):
    from repro.logstruct.unit import ENTRY_HEADER_BYTES

    sim, cluster, client, inode = build("plr")
    pkey = (inode, 0, K)
    osd = cluster.osd_by_name(cluster.placement(inode, 0)[K])
    strat = osd.strategy
    offsets = []
    submit_write = osd.device.submit_write

    def spy(nbytes, zone="data", offset=0, **kwargs):
        if zone == f"plr:{pkey}":
            offsets.append(offset)
        return submit_write(nbytes, zone, offset, **kwargs)

    osd.device.submit_write = spy
    entry = ENTRY_HEADER_BYTES + 64

    def append():
        msg = SimpleNamespace(payload={
            "pkey": pkey, "entries": [(0, np.ones(64, dtype=np.uint8))]})
        yield from strat._h_append(msg)

    if during_recycle:
        # Fill the region so the next append recycles it synchronously.
        while strat.region_used.get(pkey, 0) + entry <= strat.reserve_bytes:
            run_to(sim, sim.process(append()))
        recycles = strat.sync_recycles
        first = sim.process(append())
        while strat.sync_recycles == recycles:
            sim.step()
        offsets.clear()
        second = sim.process(append())  # lands while the recycle runs
    else:
        first, second = sim.process(append()), sim.process(append())
    run_to(sim, first)
    run_to(sim, second)
    cluster.stop()
    # Two entries logged since the region was last empty: both must be
    # accounted for, at distinct offsets.
    assert strat.region_used[pkey] == 2 * entry  # reads 96, not 192
    assert len(set(offsets)) == 2


# ----------------------------------------------------------------------
# CoRD
# ----------------------------------------------------------------------
def test_cord_buffer_recycles_when_full():
    sim, cluster, client, inode = build("cord", buffer_bytes=2048)
    drive(sim, client, inode, 40, size=512)
    recycles = sum(o.strategy.sync_recycles for o in cluster.osds)
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert recycles > 0
    for s in range(2):
        assert cluster.stripe_consistent(inode, s)


def test_cord_collector_is_first_parity_osd():
    sim, cluster, client, inode = build("cord")

    def one():
        yield from client.update(inode, 0, np.full(64, 5, dtype=np.uint8))

    run_to(sim, sim.process(one()))
    collector = cluster.osd_by_name(cluster.placement(inode, 0)[K])
    cluster.stop()
    assert collector.strategy.buf_used > 0


def test_cord_network_cheaper_than_fo_at_m_ge_2():
    traffic = {}
    for method in ("fo", "cord"):
        sim, cluster, client, inode = build(method)
        drive(sim, client, inode, 30)
        run_to(sim, sim.process(drain_all(cluster)))
        traffic[method] = cluster.total_net().bytes_sent
        cluster.stop()
    # CoRD sends one delta to the collector vs FO's m parity fan-outs.
    assert traffic["cord"] < traffic["fo"]


# ----------------------------------------------------------------------
# PL / FL
# ----------------------------------------------------------------------
def test_pl_logs_without_recycling_until_drain():
    """PL's recycle is indefinitely delayed (§5.2): every parity delta stays
    in the log, and parity stays stale, until a drain folds them in."""
    sim, cluster, client, inode = build("pl")
    drive(sim, client, inode, 20, size=512)
    # Every in-place write so far is a data-block piece of an update (one
    # that straddles two blocks is two pieces); each piece logged M deltas
    # and no parity block has been rewritten.
    pieces = cluster.total_ops().overwrite_ops
    logged = sum(o.strategy.log_bytes for o in cluster.osds)
    entries = sum(len(v) for o in cluster.osds for v in o.strategy.log_entries.values())
    assert logged == 20 * M * 512 and entries == M * pieces
    assert not all(cluster.stripe_consistent(inode, s) for s in range(2))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert sum(o.strategy.log_bytes for o in cluster.osds) == 0
    for s in range(2):
        assert cluster.stripe_consistent(inode, s)


def test_fl_threshold_recycle_and_read_overlay():
    sim, cluster, client, inode = build("fl", recycle_threshold_bytes=4096)
    drive(sim, client, inode, 30, size=512)

    def rd():
        return (yield from client.read(inode, 0, 64))

    run_to(sim, sim.process(rd()))  # served with overlay, must not crash
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    for s in range(2):
        assert cluster.stripe_consistent(inode, s)


def test_fl_log_bounded_by_threshold():
    sim, cluster, client, inode = build("fl", recycle_threshold_bytes=2048)
    drive(sim, client, inode, 40, size=512)
    pending = max(o.strategy.log_bytes for o in cluster.osds)
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert pending <= 2048 + 512
