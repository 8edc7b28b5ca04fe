"""Persisted once per node (docs/dataplane.md): a parity delta hits flash
once on each DeltaLog holder — the DeltaLog copy is the durable record, the
ParityLog entries folded from it stay in memory there — and exactly as
before everywhere else.  Pinned by counting device writes per OSD."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.logstruct.states import UnitState
from repro.logstruct.unit import ENTRY_HEADER_BYTES
from repro.sim import Simulator
from repro.tsue.engine import BACKGROUND_WIDTH, DATA, DELTA, PARITY
from repro.update import make_strategy_factory

K, BLOCK, INODE = 4, 2048, 5
# Three disjoint extents of one data block: three deltas, three folded
# entries per parity block.
PIECES = [(0, 200), (512, 100), (1500, 300)]
PAYLOAD = sum(size for _, size in PIECES)


def build(m, **flags):
    params = dict(unit_bytes=64 * 1024, flush_age=10.0, flush_interval=5.0)
    params.update(flags)
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=m, block_size=BLOCK, seed=0,
                      client_overhead_s=0.0),
        make_strategy_factory("tsue", **params),
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


def engine(cluster, name):
    return cluster.osd_by_name(name).strategy.engine


def seq_writes(cluster):
    return {o.name: o.device.counters.write_ops_seq for o in cluster.osds}


def writes_since(cluster, before):
    return {
        name: n - before[name] for name, n in seq_writes(cluster).items() if n != before[name]
    }


def recycle_one_data_block(sim, cluster):
    """One DataLog recycle job of three pieces on block (INODE, 0, 0),
    run directly: the log writes it causes downstream are the only
    sequential writes in the cluster."""
    names = cluster.placement(INODE, 0)
    rng = np.random.default_rng(1)
    pieces = [(off, rng.integers(1, 256, size, dtype=np.uint8)) for off, size in PIECES]
    job = engine(cluster, names[0])._recycle_data_block((INODE, 0, 0), pieces)
    run_to(sim, sim.process(job))
    return names


@pytest.mark.parametrize("m", [2, 4])
def test_a_parity_delta_is_written_once_on_each_deltalog_holder(m):
    sim, cluster, client = build(m)
    before = seq_writes(cluster)
    names = recycle_one_data_block(sim, cluster)
    holders = names[K : K + 2]
    # One tsue_delta message of three entries: one sequential write on each
    # of the two holders, nothing anywhere else.
    assert writes_since(cluster, before) == {h: 1 for h in holders}

    before = seq_writes(cluster)
    run_to(sim, sim.process(engine(cluster, holders[0]).drain_layer(DELTA)))
    # The fold lands three entries on every parity OSD: none is written on
    # ranks 0 and 1, one write per entry on every other rank.
    assert writes_since(cluster, before) == {name: len(PIECES) for name in names[K + 2 :]}
    for rank, name in enumerate(names[K:]):
        eng = engine(cluster, name)
        covered, persisted = (PAYLOAD, 0) if rank < 2 else (0, PAYLOAD)
        assert (eng.parity_bytes_covered, eng.parity_bytes_persisted) == (covered, persisted)
        # Covered or persisted, the entries sit in the same ParityLog pool
        # (a pool that took no append has no units yet).
        assert sum(p.active.used for p in eng.parity_pools if p.active) == PAYLOAD + len(PIECES) * ENTRY_HEADER_BYTES
        assert eng.residency.samples(PARITY) == 1

    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert cluster.stripe_consistent(INODE, 0)


@pytest.mark.parametrize(
    "m, flags",
    [(2, dict(use_delta_log=False)), (4, dict(use_delta_log=False)), (1, {})],
    ids=["o5-off-m2", "o5-off-m4", "m1"],
)
def test_paritylog_without_a_deltalog_copy_is_persisted_per_entry(m, flags):
    sim, cluster, client = build(m, **flags)
    before = seq_writes(cluster)
    names = recycle_one_data_block(sim, cluster)
    # Straight from the DataLog recycler to every ParityLog: the write is the
    # only local record — one per entry on every parity OSD, as at PR 23.
    assert writes_since(cluster, before) == {name: len(PIECES) for name in names[K:]}
    for name in names[K:]:
        eng = engine(cluster, name)
        assert (eng.parity_bytes_covered, eng.parity_bytes_persisted) == (0, PAYLOAD)
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert cluster.stripe_consistent(INODE, 0)


def test_folded_entries_may_reach_rank_1_before_its_own_copy_is_durable():
    """The rule's one window, and the sentence its safety rests on: while a
    fail-slow rank 1 is still persisting a delta whose fold it has already
    received, the update is still in the DataLog (unit not RECYCLED) and was
    written to the DataLog's ring replica."""
    size = 256
    # Units of one entry each, so every unit seals by size on the next append.
    sim, cluster, client = build(2, n_pools=1, unit_bytes=size + ENTRY_HEADER_BYTES)
    names = cluster.placement(INODE, 0)
    rank1 = engine(cluster, names[K + 1])
    rank1.osd.device.degrade(50.0)
    # Updates alternate between data blocks 0 and 1 (one DataLog job per
    # block at a time: only another block's delta can seal the DeltaLog unit
    # while rank 1 still persists this one).  Every update has its own
    # in-block offset, which names it at every hop.
    def block_of(off):
        return (off // size) % 2

    def data_pool(off):
        return engine(cluster, names[block_of(off)]).data_pools[0]

    replica_writes = set()  # offsets made durable on a DataLog ring replica
    persisting = set()      # offsets whose xlog_rep write on rank 1 is in flight
    windows = []

    def spy_replica(inner):
        def append(key, offset, payload):
            yield from inner(key, offset, payload)
            replica_writes.add(offset)
        return append

    def spy_delta(key, entries, primary, inner=rank1.append_deltalog):
        assert not primary
        offsets = {off for off, _ in entries}
        persisting.update(offsets)
        yield from inner(key, entries, primary)
        persisting.difference_update(offsets)

    def spy_parity(pkey, entries, inner=rank1.append_paritylog):
        yield from inner(pkey, entries)
        for off, _ in entries:
            if off in persisting:
                key = (INODE, 0, block_of(off))
                unit = next(
                    u for u in data_pool(off).units
                    if any(s.offset == off for s in u.index.segments(key))
                )
                windows.append((off, unit.state, off in replica_writes))

    # ``tsue_replica`` and ``tsue_parity`` are served by the engine's
    # appends themselves: the spies replace the registered handlers.
    for j in (0, 1):
        replica = engine(cluster, cluster.replica_of(names[j]))
        assert replica is not rank1
        replica.osd.handlers["tsue_replica"] = spy_replica(replica.append_replica_datalog)
    rank1.append_deltalog = spy_delta
    rank1.osd.handlers["tsue_parity"] = spy_parity

    def stream():
        for i in range(8):
            yield from client.update(
                INODE, (i % 2) * BLOCK + i * size, np.full(size, i + 1, dtype=np.uint8)
            )

    run_to(sim, sim.process(stream()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    assert windows, "the fold never overtook rank 1's persist: the test is vacuous"
    # Still RECYCLING: the DataLog job waits on both tsue_delta acks (AllOf).
    assert all(state is UnitState.RECYCLING and replicated for _, state, replicated in windows)
    assert rank1.parity_bytes_persisted == 0 and rank1.parity_bytes_covered > 0
    assert cluster.stripe_consistent(INODE, 0)


def _spy_wait_space(eng, seen):
    wait_space = eng._wait_space

    def spy(layer, pool):
        ev = wait_space(layer, pool)
        seen.append((
            layer,
            {lay: eng._width(lay) for lay in (DATA, DELTA, PARITY)},
            {lay: set(eng._busy.get(lay, ())) for lay in (DATA, DELTA, PARITY)},
        ))
        return ev

    eng._wait_space = spy


def test_a_full_paritylog_parks_the_deltalog_runner_and_widens_paritylog_only():
    """The primary's own share is appended by the DeltaLog runner itself, so
    a full ParityLog parks *that runner* in ``_pool_append`` — a PARITY space
    waiter like any handler's, nothing new in the wait graph."""
    size = 256
    # O3 off: one unit per pool, here of one entry.
    sim, cluster, client = build(
        2, n_pools=1, use_log_pool=False, unit_bytes=size + ENTRY_HEADER_BYTES
    )
    eng = engine(cluster, cluster.placement(INODE, 0)[K])
    channels = eng.osd.device.profile.channels
    seen = []
    _spy_wait_space(eng, seen)

    def two_folds():
        for i in range(2):
            delta = np.full(size, i + 1, dtype=np.uint8)
            yield from eng.append_deltalog((INODE, 0, 0), [(i * size, delta)], True)
            eng.delta_pools[0].flush_active(sim.now)  # seal with no drain waiter
            while eng._pending[DELTA]:
                yield sim.timeout(1e-5)

    run_to(sim, sim.process(two_folds()))
    # The second fold found the one-entry unit full, sealed it and parked
    # until its recycle freed the unit.
    assert seen == [(
        PARITY,
        {**BACKGROUND_WIDTH, PARITY: channels},
        {DATA: set(), DELTA: {(INODE, 0)}, PARITY: {(INODE, 0, K)}},
    )]
    assert not eng._space_waiters.get(PARITY)
    assert {lay: eng._width(lay) for lay in BACKGROUND_WIDTH} == BACKGROUND_WIDTH
    assert (eng.parity_bytes_covered, eng.parity_bytes_persisted) == (2 * size, 0)
    run_to(sim, sim.process(drain_all(cluster)))  # the injected deltas recycle out
    cluster.stop()
    assert all(engine(cluster, o.name).pending_recycles() == 0 for o in cluster.osds)


@pytest.mark.parametrize("blocked", [False, True])
def test_the_pipeline_drains_behind_parked_deltalog_runners_at_either_width(blocked):
    """The layered wait graph (data -> delta -> parity -> device) has gained
    no edge: with every OSD appending through single one-entry units the
    pipeline drains at background and at demand width."""
    size = 256
    sim, cluster, client = build(
        2, n_pools=1, use_log_pool=False, unit_bytes=size + ENTRY_HEADER_BYTES
    )
    seen = []
    for osd in cluster.osds:
        osd.strategy.engine._blocked = lambda layer: blocked
        _spy_wait_space(osd.strategy.engine, seen)

    def stream():
        for i in range(4 * K):  # every data block of both stripes, twice
            block, rnd = i % (2 * K), i // (2 * K)
            yield from client.update(
                INODE, block * BLOCK + rnd * size, np.full(size, i + 1, dtype=np.uint8)
            )

    run_to(sim, sim.process(stream()))
    run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    # DeltaLog runners did park on their own ParityLog along the way.
    assert any(layer == PARITY and busy[DELTA] for layer, _, busy in seen)
    engines = [osd.strategy.engine for osd in cluster.osds]
    assert all(e.pending_recycles() == 0 for e in engines)
    assert all(e.admitted_background + e.admitted_demand > 0 for e in engines)
    assert cluster.stripe_consistent(INODE, 0) and cluster.stripe_consistent(INODE, 1)
