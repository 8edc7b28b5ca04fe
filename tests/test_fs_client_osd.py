"""Tests for the client write/read paths and OSD serving."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 4, 2, 1024


def build(method="fo"):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=3,
                      client_overhead_s=0.0),
        make_strategy_factory(method),
    )
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def test_create_registers_at_mds():
    sim, cluster, client = build()
    run_to(sim, sim.process(client.create(9, 4096)))
    assert 9 in cluster.mds.files
    assert cluster.mds.files[9].size == 4096


def test_create_duplicate_inode_fails():
    sim, cluster, client = build()

    def go():
        yield from client.create(9, 4096)
        try:
            yield from client.create(9, 4096)
        except ValueError:
            return "dup"

    assert run_to(sim, sim.process(go())) == "dup"


def test_full_stripe_write_distributes_and_encodes():
    sim, cluster, client = build()
    data = np.random.default_rng(0).integers(0, 256, K * BLOCK, dtype=np.uint8)
    run_to(sim, sim.process(client.write(5, 0, data)))
    names = cluster.placement(5, 0)
    for j in range(K):
        blk = cluster.osd_by_name(names[j]).store.peek((5, 0, j))
        assert np.array_equal(blk, data[j * BLOCK : (j + 1) * BLOCK])
    assert cluster.stripe_consistent(5, 0)


def test_partial_stripe_write_rejected():
    sim, cluster, client = build()

    def go():
        yield from client.write(5, 0, np.zeros(100, dtype=np.uint8))

    sim.process(go())
    with pytest.raises(ValueError, match="whole stripes"):
        sim.run()


def test_multi_stripe_write_and_read():
    sim, cluster, client = build()
    data = np.random.default_rng(1).integers(0, 256, 3 * K * BLOCK, dtype=np.uint8)
    run_to(sim, sim.process(client.write(6, 0, data)))

    def rd():
        return (yield from client.read(6, 1500, 4000))

    got = run_to(sim, sim.process(rd()))
    assert np.array_equal(got, data[1500:5500])
    assert len(client.read_latency) == 1


def test_read_of_sparse_region_returns_zeros():
    sim, cluster, client = build()
    cluster.register_sparse_file(7, K * BLOCK)

    def rd():
        return (yield from client.read(7, 100, 64))

    got = run_to(sim, sim.process(rd()))
    assert np.all(got == 0)


def test_update_latency_recorded_per_call():
    sim, cluster, client = build()
    cluster.register_sparse_file(8, K * BLOCK)

    def go():
        for _ in range(3):
            yield from client.update(8, 0, np.ones(64, dtype=np.uint8))

    run_to(sim, sim.process(go()))
    assert len(client.update_latency) == 3
    assert cluster.osd_by_name(cluster.placement(8, 0)[0]).updates_served == 3


def test_multi_extent_update_resends_only_the_lost_frame():
    """One request frame of a three-extent update is dropped: ``rpc``
    resends that one frame; the op is not retried whole."""
    sim, cluster, client = build()
    data = np.random.default_rng(1).integers(0, 256, K * BLOCK, dtype=np.uint8)
    cluster.instant_load_file(5, data)
    patch = np.full(2 * BLOCK + 64, 9, dtype=np.uint8)  # blocks 0, 1, 2
    cluster.fabric.degrade_link("c0", loss_every=3)  # drops the 3rd frame

    def go():
        yield from client.update(5, 0, patch)
        cluster.fabric.heal_link("c0")
        return (yield from client.read(5, 0, patch.size))

    got = run_to(sim, sim.process(go()))
    assert np.array_equal(got, patch)
    assert cluster.fabric.dropped_requests == 1
    assert client.retransmits == 1 and client.update_retries == 0
    assert sum(osd.updates_served for osd in cluster.osds) == 3


def test_mds_heartbeat_failure_detection():
    sim, cluster, client = build()

    def hb(osd):
        yield from osd.rpc("mds", "heartbeat", (osd.name,))

    for osd in cluster.osds[:4]:
        sim.process(hb(osd))
    sim.run(until=0.5)
    failed = cluster.mds.failed_osds()
    assert set(failed) == {o.name for o in cluster.osds[4:]}
    # Advance past the timeout: everyone is failed now.
    sim.run(until=10.0)
    assert len(cluster.mds.failed_osds()) == 8
