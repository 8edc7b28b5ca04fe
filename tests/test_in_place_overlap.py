"""The in-place family's synchronous stage: issue is not wait.

FO / PL / PLR / CoRD forward the delta, and PARIX ships the new bytes,
as soon as they exist — before the data-block overwrite lands — and ack
at ``max(overwrite landed, last forward reply)``.  The stripe lock still
covers read -> overwrite (and, for PARIX, the ship barrier), and a crash
of the data OSD with the forward already on the wire heals like any
other.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 4, 2, 2048
INODE = 5
METHODS = ("fo", "pl", "plr", "cord", "parix")
# The methods whose lock ends when the overwrite lands; PARIX also holds
# it through the speculative ship's barrier.
XOR_FORWARD = ("fo", "pl", "plr", "cord")
DETECT_S = 4 * 0.002  # the registry's heartbeat timeout


def build(method):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=0,
                      client_overhead_s=0.0),
        make_strategy_factory(method),
    )
    cluster.register_sparse_file(INODE, 2 * K * BLOCK)
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


class Spy:
    """Instants on the data OSD: block reads issued, block writes issued
    and landed, forward RPCs issued and replied."""

    def __init__(self, osd):
        self.reads, self.writes, self.issued, self.replies = [], [], [], []
        dev, sim, zone = osd.device, osd.sim, osd.store.ZONE
        submit_read, submit_write, rpc = dev.submit_read, dev.submit_write, osd.rpc

        def spy_read(nbytes, z="data", *args, **kwargs):
            done = submit_read(nbytes, z, *args, **kwargs)
            if z == zone:
                self.reads.append(sim.now)
            return done

        def spy_write(nbytes, z="data", *args, **kwargs):
            done = submit_write(nbytes, z, *args, **kwargs)
            if z == zone:
                self.writes.append((sim.now, done))
            return done

        def spy_rpc(dst, kind, payload, nbytes=0):
            self.issued.append(sim.now)
            reply = yield from rpc(dst, kind, payload, nbytes=nbytes)
            self.replies.append(sim.now)
            return reply

        dev.submit_read, dev.submit_write, osd.rpc = spy_read, spy_write, spy_rpc


def _one_update(method, slow_device=1.0, link_latency=0.0):
    """One update through ``on_update`` on an idle cluster: the spy and
    the ack instant."""
    sim, cluster, _client = build(method)
    key = (INODE, 0, 0)
    primary = cluster.osd_by_name(cluster.osd_of_block(*key))
    spy = Spy(primary)
    if slow_device != 1.0:
        primary.device.degrade(slow_device)
    if link_latency:
        for _p, name in primary.strategy.parity_targets(key):
            cluster.fabric.degrade_link(name, extra_latency=link_latency)

    def one():
        yield from primary.strategy.on_update(key, 0, np.full(512, 7, dtype=np.uint8))
        return sim.now

    ack = run_to(sim, sim.process(one()))
    cluster.stop()
    [(write_issued, landed)] = spy.writes
    return spy, write_issued, landed, ack


@pytest.mark.parametrize("method", METHODS)
def test_fail_slow_data_device_sets_the_ack(method):
    spy, write_issued, landed, ack = _one_update(method, slow_device=40.0)
    # The last forward was issued no later than the overwrite, so it
    # overlapped it; the overwrite dominates and is the ack.
    assert spy.issued[-1] <= write_issued
    assert ack == max([landed] + spy.replies) == landed > max(spy.replies)


@pytest.mark.parametrize("method", METHODS)
def test_slow_parity_link_sets_the_ack(method):
    spy, write_issued, landed, ack = _one_update(method, link_latency=2e-3)
    assert spy.issued[-1] <= write_issued
    assert ack == max([landed] + spy.replies) == max(spy.replies) > landed
    # The forward ran while the overwrite was in flight, not after it.
    assert spy.issued[-1] < landed


@pytest.mark.parametrize("method", METHODS)
def test_next_same_stripe_update_reads_after_the_overwrite(method):
    """The lock scope is unchanged: read -> overwrite (PARIX: through its
    ship barrier) stays exclusive per stripe."""
    sim, cluster, _client = build(method)
    key = (INODE, 0, 0)
    primary = cluster.osd_by_name(cluster.osd_of_block(*key))
    spy = Spy(primary)
    for _p, name in primary.strategy.parity_targets(key):
        cluster.fabric.degrade_link(name, extra_latency=2e-3)
    acks = []

    def one(offset, fill):
        yield from primary.strategy.on_update(
            key, offset, np.full(256, fill, dtype=np.uint8)
        )
        acks.append(sim.now)

    # Disjoint ranges of one block, so both are PARIX first touches that
    # read their originals too.
    procs = [sim.process(one(0, 1)), sim.process(one(1024, 2))]
    for proc in procs:
        run_to(sim, proc)
    cluster.stop()
    (_, first_landed), _second = spy.writes
    assert len(spy.reads) == 2
    assert spy.reads[1] >= first_landed
    if method in XOR_FORWARD:
        # Released the instant the overwrite landed, not at the ack.
        assert spy.reads[1] == first_landed < acks[0]
    else:
        assert spy.reads[1] >= acks[0]


@pytest.mark.parametrize("method", METHODS)
def test_crash_between_forward_and_overwrite_heals(method):
    """The forward outlives its sender and lands during failure detection;
    the rebuild then reconstructs the block from parity that holds the
    client's delta, and the retry (delta 0) leaves it there.

    Recovery starts after the scenario registry's detection window (four
    missed 2 ms heartbeats), as in every fault row.  Started at the crash
    instant instead, recovery would repair parity before a forward still
    on the wire lands — a race the serial path had too, for a crash after
    its overwrite landed.
    """
    from repro.recovery import fail_osd, recover_node, scrub

    sim, cluster, client = build(method)
    primary = cluster.osd_by_name(cluster.osd_of_block(INODE, 0, 0))
    spy = Spy(primary)
    payload = np.full(300, 0xA5, dtype=np.uint8)
    p = sim.process(client.update(INODE, 10, payload))
    while not (spy.writes and len(spy.issued) > len(spy.replies)):
        sim.step()
    # A forward is on its way and the overwrite has not landed: crash.
    assert spy.writes[0][1] > sim.now and not p.fired
    fail_osd(cluster, primary.name, mode="crash")

    def detect():
        yield sim.timeout(DETECT_S)

    run_to(sim, sim.process(detect()))
    assert len(spy.replies) == len(spy.issued)
    res = recover_node(cluster, primary.name, repair=True)
    # The rebuild decodes parity that already holds the client's delta, so
    # it differs from the victim's torn pre-crash bytes in exactly the
    # updated block.
    assert res.mismatched == [(INODE, 0, 0)]
    run_to(sim, p)
    assert client.update_retries == 1

    def rd():
        return (yield from client.read(INODE, 10, 300))

    assert np.array_equal(run_to(sim, sim.process(rd())), payload)
    run_to(sim, sim.process(drain_all(cluster)))
    targets = [(INODE, 0), (INODE, 1)]
    assert all(cluster.stripe_consistent(*t) for t in targets)
    report = run_to(sim, sim.process(scrub(cluster, targets)))
    cluster.stop()
    assert report.clean and report.stripes_checked == 2
    assert np.array_equal(
        cluster.osd_by_name(cluster.osd_of_block(INODE, 0, 0))
        .store.peek((INODE, 0, 0))[10:310],
        payload,
    )
