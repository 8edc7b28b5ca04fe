"""Tests for TSUE's ablation configurations (the Fig. 7 variants)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.update import make_strategy_factory

K, M, BLOCK = 4, 2, 2048


def build(m=M, **flags):
    params = dict(unit_bytes=8 * 1024, flush_age=0.01, flush_interval=0.005)
    params.update(flags)
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=m, block_size=BLOCK, seed=17,
                      client_overhead_s=0.0),
        make_strategy_factory("tsue", **params),
    )
    cluster.register_sparse_file(3, 2 * K * BLOCK)
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def drive_and_drain(sim, cluster, client, n=40, seed=5):
    rng = np.random.default_rng(seed)

    def driver():
        for _ in range(n):
            off = int(rng.integers(0, 2 * K * BLOCK - 256))
            yield from client.update(3, off, rng.integers(0, 256, 256, dtype=np.uint8))

    run_to(sim, sim.process(driver()))
    run_to(sim, sim.process(drain_all(cluster)))


VARIANTS = [
    dict(use_locality_data=False, use_locality_parity=False,
         use_log_pool=False, n_pools=1, use_delta_log=False),  # baseline
    dict(use_locality_data=True, use_locality_parity=False,
         use_log_pool=False, n_pools=1, use_delta_log=False),  # O1
    dict(use_locality_data=True, use_locality_parity=True,
         use_log_pool=False, n_pools=1, use_delta_log=False),  # O2
    dict(use_locality_data=True, use_locality_parity=True,
         use_log_pool=True, n_pools=1, use_delta_log=False),   # O3
    dict(use_locality_data=True, use_locality_parity=True,
         use_log_pool=True, n_pools=4, use_delta_log=False),   # O4
    dict(use_locality_data=True, use_locality_parity=True,
         use_log_pool=True, n_pools=4, use_delta_log=True),    # O5
]


@pytest.mark.parametrize("flags", VARIANTS)
def test_every_fig7_variant_is_byte_correct(flags):
    # m > 2 with O5 on: covered (ranks 0, 1) and persisted (ranks >= 2)
    # ParityLog hosts in one stripe.  A loop, not a parameter: test ids stay.
    for m in (2, 3, 4):
        sim, cluster, client = build(m=m, **flags)
        drive_and_drain(sim, cluster, client)
        cluster.stop()
        for s in range(2):
            assert cluster.stripe_consistent(3, s), (m, s)


def test_no_locality_variant_does_more_device_work():
    ops = {}
    for merging in (False, True):
        sim, cluster, client = build(
            use_locality_data=merging, use_locality_parity=merging
        )
        drive_and_drain(sim, cluster, client, n=60, seed=9)
        ops[merging] = cluster.total_ops().rw_ops
        cluster.stop()
    assert ops[True] < ops[False]


def test_single_unit_pool_serializes_appends_behind_recycle():
    """O3-off means one unit per pool: appends back-pressure during
    recycling, but the pipeline still completes and stays correct."""
    sim, cluster, client = build(
        use_log_pool=False, n_pools=1, unit_bytes=2 * 1024
    )
    drive_and_drain(sim, cluster, client, n=50, seed=11)
    cluster.stop()
    for s in range(2):
        assert cluster.stripe_consistent(3, s)


def test_delta_log_reduces_parity_messages():
    """Eq. 5 combining means fewer (and combined) tsue_parity transfers."""
    bytes_by = {}
    for delta_on in (False, True):
        sim, cluster, client = build(use_delta_log=delta_on)
        drive_and_drain(sim, cluster, client, n=60, seed=13)
        kinds = cluster.fabric.counters.by_kind
        bytes_by[delta_on] = sum(
            v for k, v in kinds.items() if k == "tsue_parity"
        )
        cluster.stop()
    # With the DeltaLog, parity-log traffic is combined across blocks.
    assert bytes_by[True] <= bytes_by[False]
