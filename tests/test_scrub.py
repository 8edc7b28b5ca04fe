"""Tests for the parity scrubber."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.recovery import scrub
from repro.sim import Simulator
from repro.update import STRATEGIES, make_strategy_factory

K, M, BLOCK = 4, 2, 1024


def build(method="fo"):
    sim = Simulator()
    params = {}
    if method == "tsue":
        params = dict(unit_bytes=8 * 1024, flush_age=0.01, flush_interval=0.005)
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=31,
                      client_overhead_s=0.0),
        make_strategy_factory(method, **params),
    )
    rng = np.random.default_rng(2)
    cluster.instant_load_file(900, rng.integers(0, 256, 2 * K * BLOCK, dtype=np.uint8))
    cluster.start()
    return sim, cluster


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def test_clean_stripes_scrub_clean():
    sim, cluster = build()
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0), (900, 1)])))
    cluster.stop()
    assert report.clean
    assert report.stripes_checked == 2
    assert report.bytes_read == 2 * (K + M) * BLOCK
    assert report.seconds > 0  # reads were really costed


def test_scrub_detects_injected_corruption():
    sim, cluster = build()
    names = cluster.placement(900, 1)
    victim = cluster.osd_by_name(names[K])  # first parity block
    victim.store.fold_xor((900, 1, K), 7, np.array([0xFF], dtype=np.uint8))
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0), (900, 1)])))
    cluster.stop()
    assert report.mismatches == [(900, 1)]


def test_scrub_detects_data_corruption_too():
    sim, cluster = build()
    names = cluster.placement(900, 0)
    cluster.osd_by_name(names[1]).store.fold_xor(
        (900, 0, 1), 0, np.array([1], dtype=np.uint8)
    )
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0)])))
    cluster.stop()
    assert not report.clean


@pytest.mark.parametrize("method", sorted(STRATEGIES))
def test_scrub_skips_stripes_with_pending_logs_mid_drain(method):
    """The pin ledger is exact: at every kernel step of a drain, a stripe
    whose parity lags is reported pending by some member's
    ``stripe_pending``.  A recycle that pops its log entries and then
    patches across yields must keep the stripe pending until its parity
    writes land.  The reader is a live rebalance's settle poll, which
    copies a stripe only once no member reports it pending; PL and FL hold
    the whole update in their logs until this drain."""
    sim, cluster = build(method)
    client = cluster.add_client("c0")
    run_to(sim, sim.process(client.update(900, 0, np.full(64, 9, dtype=np.uint8))))
    members = [cluster.osd_by_name(n).strategy for n in cluster.placement(900, 0)]

    def pending():
        return any(strategy.stripe_pending(900, 0) for strategy in members)

    if method in ("pl", "fl"):
        assert pending()
    drain = sim.process(drain_all(cluster))
    steps = 0
    while not drain.fired:
        sim.step()
        steps += 1
        assert cluster.stripe_consistent(900, 0) or pending(), f"step {steps}"
    assert not pending()
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0)])))
    cluster.stop()
    assert report.clean and report.stripes_checked == 1


def test_force_scrub_reports_parity_lag_as_mismatch():
    """A scrub checks what the blocks hold now: before a drain, PL's
    parity lags its data and the stripe reads as a mismatch."""
    sim, cluster = build("pl")
    client = cluster.add_client("c0")

    def upd():
        yield from client.update(900, 0, np.full(64, 9, dtype=np.uint8))

    run_to(sim, sim.process(upd()))
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0)])))
    cluster.stop()
    # The data block moved ahead of parity: the scrub sees the lag.
    assert report.mismatches == [(900, 0)]


def test_tsue_scrub_after_drain_is_clean():
    sim, cluster = build("tsue")
    client = cluster.add_client("c0")
    rng = np.random.default_rng(6)

    def updates():
        for _ in range(20):
            off = int(rng.integers(0, 2 * K * BLOCK - 128))
            yield from client.update(900, off, rng.integers(0, 256, 128, dtype=np.uint8))

    run_to(sim, sim.process(updates()))
    run_to(sim, sim.process(drain_all(cluster)))
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0), (900, 1)])))
    cluster.stop()
    assert report.clean and report.stripes_checked == 2
