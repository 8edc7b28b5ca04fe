"""Property test: the full TSUE pipeline preserves consistency for
arbitrary update sequences (hypothesis-driven, small cluster)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 3, 2, 512
FILE = 2 * K * BLOCK

updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=FILE - 1),   # offset
        st.integers(min_value=1, max_value=300),        # size
        st.integers(min_value=0, max_value=255),        # fill byte
    ),
    min_size=1,
    max_size=25,
)


def _run(method, updates, m=M):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=max(6, K + m), k=K, m=m, block_size=BLOCK, seed=3,
                      client_overhead_s=0.0),
        make_strategy_factory(method)
        if method != "tsue"
        else make_strategy_factory(
            "tsue", unit_bytes=2048, flush_age=0.005, flush_interval=0.002
        ),
    )
    cluster.register_sparse_file(1, FILE)
    client = cluster.add_client("c0")
    cluster.start()
    shadow = np.zeros(FILE, dtype=np.uint8)

    def driver():
        for off, size, fill in updates:
            size = min(size, FILE - off)
            payload = np.full(size, fill, dtype=np.uint8)
            yield from client.update(1, off, payload)
            shadow[off : off + size] = fill

    p = sim.process(driver())
    while not p.fired and sim.peek() != float("inf"):
        sim.step()
    p.value
    d = sim.process(drain_all(cluster))
    while not d.fired and sim.peek() != float("inf"):
        sim.step()
    d.value
    cluster.stop()
    return cluster, shadow


def _check(cluster, shadow):
    for s in range(2):
        names = cluster.placement(1, s)
        for j in range(K):
            lo = (s * K + j) * BLOCK
            blk = cluster.osd_by_name(names[j]).store.peek((1, s, j))
            if blk is None:
                blk = np.zeros(BLOCK, dtype=np.uint8)
            assert np.array_equal(blk, shadow[lo : lo + BLOCK])
        assert cluster.stripe_consistent(1, s)


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates_strategy, st.sampled_from([2, 3, 4]))
def test_tsue_pipeline_consistency_property(updates, m):
    # m > 2: ParityLog hosts covered by a DeltaLog copy (ranks 0, 1) and
    # persisting ones (ranks >= 2) in one stripe.
    cluster, shadow = _run("tsue", updates, m)
    _check(cluster, shadow)


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates_strategy)
def test_parix_pipeline_consistency_property(updates):
    cluster, shadow = _run("parix", updates)
    _check(cluster, shadow)


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(updates_strategy)
def test_cord_pipeline_consistency_property(updates):
    cluster, shadow = _run("cord", updates)
    _check(cluster, shadow)
