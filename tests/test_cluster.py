"""Tests for cluster assembly and placement."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig, placement
from repro.sim import Simulator
from repro.update import make_strategy_factory


def make_cluster(**kw):
    defaults = dict(n_osds=8, k=4, m=2, block_size=1024, seed=5)
    defaults.update(kw)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(**defaults), make_strategy_factory("fo"))
    return sim, cluster


def test_placement_distinct_osds_per_stripe():
    for stripe in range(20):
        idx = placement(16, 10, inode=3, stripe=stripe)
        assert len(set(idx)) == 10
        assert all(0 <= i < 16 for i in idx)


def test_placement_rotates_across_stripes():
    starts = {placement(16, 8, 1, s)[0] for s in range(50)}
    assert len(starts) > 4  # parity load spreads


def test_placement_width_validation():
    with pytest.raises(ValueError):
        placement(4, 5, 0, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_osds=4, k=4, m=2)
    with pytest.raises(ValueError):
        ClusterConfig(device_kind="tape")


def test_cluster_builds_nodes_and_routes():
    sim, cluster = make_cluster()
    assert len(cluster.osds) == 8
    assert cluster.mds.name == "mds"
    names = cluster.placement(7, 0)
    assert len(names) == 6
    assert cluster.osd_of_block(7, 0, 2) == names[2]


def test_replica_of_is_ring_successor():
    sim, cluster = make_cluster()
    assert cluster.replica_of("osd0") == "osd1"
    assert cluster.replica_of("osd7") == "osd0"


def test_joiner_has_ring_neighbours_before_commit():
    """A provisioned OSD outside the ring gets the neighbours it will have
    once appended — it serves flipped stripes before ``commit_ring``."""
    sim, cluster = make_cluster()
    joiner = cluster.add_osd().name
    assert joiner == "osd8" and joiner not in cluster.ring
    before = (
        cluster.replica_of(joiner),
        [cluster.ring_neighbor(joiner, r) for r in range(1, 10)],
    )
    assert before == ("osd0", [f"osd{i}" for i in range(8)] + ["osd8"])
    assert cluster.replica_of("osd7") == "osd0"  # members: the live ring
    cluster.commit_ring(cluster.ring + [joiner])
    after = (
        cluster.replica_of(joiner),
        [cluster.ring_neighbor(joiner, r) for r in range(1, 10)],
    )
    assert after == before
    assert cluster.replica_of("osd7") == joiner
    with pytest.raises(KeyError):
        cluster.ring_neighbor("osd99", 1)


def test_joining_hosts_boot_iff_the_cluster_is_live():
    """Whether a joiner boots is cluster state set by ``start()`` /
    ``stop()`` — not a scan over every OSD on every join."""
    sim, cluster = make_cluster()
    early = cluster.add_client("c0")
    assert not early.running  # added before start(): waits for it
    cluster.start()
    assert early.running
    assert cluster.add_client("c1").running  # added after start(): boots
    joiner = cluster.add_osd()  # a live join boots its OSD
    assert joiner.running
    cluster.stop()
    assert not joiner.running
    assert not cluster.add_client("c2").running
    assert not cluster.add_osd().running


def test_instant_load_and_stripe_consistency():
    sim, cluster = make_cluster()
    data = np.arange(2 * 4 * 1024, dtype=np.uint8).astype(np.uint8)  # 2 stripes
    cluster.instant_load_file(42, data)
    assert cluster.stripe_consistent(42, 0)
    assert cluster.stripe_consistent(42, 1)
    # Corrupt one parity block: consistency must fail.
    names = cluster.placement(42, 0)
    osd = cluster.osd_by_name(names[4])
    osd.store.fold_xor((42, 0, 4), 0, np.array([0xFF], dtype=np.uint8))
    assert not cluster.stripe_consistent(42, 0)


def test_instant_load_size_validation():
    sim, cluster = make_cluster()
    with pytest.raises(ValueError):
        cluster.instant_load_file(1, np.zeros(100, dtype=np.uint8))


def test_sparse_file_is_consistent_by_linearity():
    sim, cluster = make_cluster()
    cluster.register_sparse_file(9, 4 * 1024 * 3)  # 3 stripes
    # All-zero data encodes to all-zero parity: consistent without bytes.
    assert cluster.stripe_consistent(9, 0)
    assert 9 in cluster.mds.files
    with pytest.raises(ValueError):
        cluster.register_sparse_file(10, 100)


def test_counter_aggregation_spans_all_osds():
    sim, cluster = make_cluster()

    def one_write(osd):
        yield from osd.store.write_range((1, 0, 0), 0, np.ones(8, dtype=np.uint8))

    for osd in cluster.osds[:3]:
        sim.process(one_write(osd))
    sim.run()
    assert cluster.total_ops().write_ops == 3
    assert cluster.total_wear().erase_ops > 0


def test_mds_classifies_first_write_vs_update():
    sim, cluster = make_cluster()
    meta = cluster.mds.register_file(5, 8192)
    assert meta.is_update(0, 100)
    fresh = cluster.mds.files[5]
    # A brand-new file region beyond the registered size is not yet written.
    assert not fresh.is_update(1 << 20, 10)


# ----------------------------------------------------------------------
# host wiring: one shared routing table, O(1) per join
# ----------------------------------------------------------------------
def _all_hosts(cluster):
    return [cluster.mds, *cluster.osds, *cluster.clients]


def test_every_host_shares_the_one_routing_table():
    sim, cluster = make_cluster()
    table = cluster.mds.peers
    assert set(table) == {"mds", *(o.name for o in cluster.osds)}
    cluster.add_client("c0")
    joined = cluster.add_osd()
    cluster.add_client("c1")
    for host in _all_hosts(cluster):
        assert host.peers is table, host.name
    # The table is shared by reference, so joiners appeared in it for
    # everyone wired before them without anyone being re-connected.
    assert {"c0", "c1", joined.name} <= set(table)
    assert all(table[h.name] is h for h in _all_hosts(cluster))


def test_join_connects_only_the_joiner(monkeypatch):
    from repro.fs.messages import RpcHost

    sim, cluster = make_cluster()
    calls = []
    connect = RpcHost.connect

    def counting(self, peers):
        calls.append(self.name)
        return connect(self, peers)

    monkeypatch.setattr(RpcHost, "connect", counting)
    cluster.add_client("c0")
    joined = cluster.add_osd()
    assert calls == ["c0", joined.name]


def test_late_client_and_later_osd_reach_each_other(declare):
    sim, cluster = make_cluster()
    cluster.start()
    client = cluster.add_client("late")  # after start(): started on join
    osd = cluster.add_osd()              # joins after the client was wired
    assert client.running and osd.running

    declare("ping", lambda sender: 8)

    def pong(host):
        def handler(sender):
            yield 0.0
            return {"from": host.name, "to": sender}
        return handler

    client.register("ping", pong(client))
    osd.register("ping", pong(osd))

    def both_ways():
        there = yield from client.rpc(osd.name, "ping", (client.name,))
        back = yield from osd.rpc("late", "ping", (osd.name,))
        return there, back

    p = sim.process(both_ways())
    assert sim.run_until_fired(p)
    assert p.value == (
        {"from": osd.name, "to": "late"},
        {"from": "late", "to": osd.name},
    )


def test_stripe_consistency_reads_never_written_members_as_zeros():
    sim, cluster = make_cluster()
    cluster.register_sparse_file(9, 4 * 1024 * 3)
    names = cluster.placement(9, 1)
    blk = np.full(1024, 7, dtype=np.uint8)
    cluster.osd_by_name(names[2]).store.install((9, 1, 2), blk)
    # One written data block against never-written parity: inconsistent.
    assert not cluster.stripe_consistent(9, 1)
    zero = np.zeros(1024, dtype=np.uint8)
    parity = cluster.codec.encode([blk if j == 2 else zero for j in range(4)])
    cluster.osd_by_name(names[4]).store.install((9, 1, 4), parity[0])
    assert not cluster.stripe_consistent(9, 1)  # second parity still missing
    cluster.osd_by_name(names[5]).store.install((9, 1, 5), parity[1])
    assert cluster.stripe_consistent(9, 1)
    # The stand-in for missing members is one shared block no gate may
    # write to.
    assert not cluster._zero_block.flags.writeable
    assert cluster._zero_block.size == 1024 and not cluster._zero_block.any()
