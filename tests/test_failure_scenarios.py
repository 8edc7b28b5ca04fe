"""Failure injection, crash/lock semantics, and the failure scenario axis."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.fs.messages import HostDownError
from repro.harness.experiment import drain_all
from repro.recovery import (
    fail_osd,
    recover_node,
    restore_osd,
    scrub,
    watch_and_recover,
)
from repro.recovery.rebalance import _stripe_has_pending
from repro.recovery.recovery import _repair_stripes
from repro.sim import Simulator
from repro.update import make_strategy_factory
from repro.workload import METHODS, SCENARIOS, PostRecoveryScrubError, run_scenario

K, M, BLOCK = 4, 2, 2048
SMOKE = dict(n_clients=2, requests_per_client=40)


def build(method="fo", n_osds=8, seed=13, **params):
    sim = Simulator()
    if method == "tsue" and not params:
        params = dict(unit_bytes=8 * 1024, flush_age=0.01, flush_interval=0.005)
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=n_osds, k=K, m=M, block_size=BLOCK, seed=seed,
                      client_overhead_s=0.0),
        make_strategy_factory(method, **params),
    )
    return sim, cluster


def run_to(sim, proc, horizon=120.0):
    while not proc.fired and sim.peek() != float("inf") and sim.now < horizon:
        sim.step()
    assert proc.fired
    return proc.value


def load(cluster, inode=600, stripes=2, seed=1):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, stripes * K * BLOCK, dtype=np.uint8)
    cluster.instant_load_file(inode, data)
    return data


# ----------------------------------------------------------------------
# crash semantics: locks, mailboxes, transports
# ----------------------------------------------------------------------
def test_crashed_osd_releases_stripe_locks_mid_rmw():
    """Satellite regression: an OSD killed while a handler holds (or waits
    on) a per-stripe KeyedLock must not wedge later same-stripe writers."""
    sim, cluster = build("fo")
    load(cluster)
    client = cluster.add_client("c0")
    cluster.start()
    victim_name = cluster.placement(600, 0)[0]
    victim = cluster.osd_by_name(victim_name)

    payload = np.full(256, 7, dtype=np.uint8)
    # Two pipelined same-block updates: one holds the stripe lock mid-RMW,
    # the other queues on it — both states must be reclaimed by the crash.
    p1 = sim.process(client.update(600, 64, payload))
    p2 = sim.process(client.update(600, 64, payload))
    while victim.stripe_locks.keys_held == 0 and sim.peek() != float("inf"):
        sim.step()
    assert victim.stripe_locks.keys_held > 0
    fail_osd(cluster, victim_name, mode="crash")
    sim.run(until=sim.now + 0.01)
    assert victim.stripe_locks.keys_held == 0
    assert victim.stripe_locks.queue_len((600, 0)) == 0
    # The interrupted updates surface the failure to their callers, who
    # fence until recovery; recover the node, then the same stripe is
    # writable again (no wedged lock).
    res = recover_node(cluster, victim_name, repair=True)
    assert res.failed_osd == victim_name
    run_to(sim, p1)
    run_to(sim, p2)
    p3 = sim.process(client.update(600, 64, np.full(256, 9, dtype=np.uint8)))
    run_to(sim, p3)
    run_to(sim, sim.process(drain_all(cluster)))
    assert cluster.stripe_consistent(600, 0)
    cluster.stop()


def test_rpc_to_crashed_host_fails_fast():
    sim, cluster = build("fo")
    load(cluster)
    client = cluster.add_client("c0")
    cluster.start()
    victim = cluster.placement(600, 0)[0]
    fail_osd(cluster, victim, mode="crash")

    def call():
        try:
            yield from client.rpc(victim, "read", ((600, 0, 0), 0, 8))
        except HostDownError as e:
            return f"down:{e.host}"

    assert run_to(sim, sim.process(call())) == f"down:{victim}"
    cluster.stop()


def test_rpc_to_stopped_host_blocks_until_restart():
    sim, cluster = build("fo")
    data = load(cluster)
    client = cluster.add_client("c0")
    cluster.start()
    victim = cluster.placement(600, 0)[0]
    fail_osd(cluster, victim, mode="stop")

    def call():
        return (yield from client.rpc(victim, "read", ((600, 0, 0), 0, 16)))

    p = sim.process(call())
    sim.run(until=0.05)
    assert not p.fired  # blocked on the transient outage
    restore_osd(cluster, victim)
    got = run_to(sim, p)
    cluster.stop()
    assert np.array_equal(got, data[:16])


# ----------------------------------------------------------------------
# scrub: per-stripe pending scope + skip reporting (satellite)
# ----------------------------------------------------------------------
def test_scrub_pending_check_is_per_stripe():
    """One stripe's pending parity log must not make a clean stripe read
    as pending (the old check was cluster-global): the rebalance settle
    poll would wait on it, and a scrub checks it."""
    sim, cluster = build("pl", seed=31)
    load(cluster, inode=900)
    client = cluster.add_client("c0")
    cluster.start()

    def upd():
        yield from client.update(900, 0, np.full(64, 9, dtype=np.uint8))

    run_to(sim, sim.process(upd()))
    assert _stripe_has_pending(cluster, 900, 0)
    assert not _stripe_has_pending(cluster, 900, 1)
    report = run_to(sim, sim.process(scrub(cluster, [(900, 0), (900, 1)])))
    # Stripe 0's parity lags its pending delta; stripe 1 is clean.
    assert report.mismatches == [(900, 0)]
    assert report.stripes_checked == 2 and not report.skipped
    run_to(sim, sim.process(drain_all(cluster)))
    assert not _stripe_has_pending(cluster, 900, 0)
    report2 = run_to(sim, sim.process(scrub(cluster, [(900, 0), (900, 1)])))
    cluster.stop()
    assert report2.stripes_checked == 2 and report2.clean


def test_scrub_skips_stripes_with_down_member():
    sim, cluster = build("fo", seed=31)
    load(cluster, inode=900)
    cluster.start()
    victim = cluster.placement(900, 0)[0]
    fail_osd(cluster, victim, mode="stop")
    targets = [(900, 0), (900, 1)]
    report = run_to(sim, sim.process(scrub(cluster, targets)))
    down_strips = [
        (i, s) for i, s in targets if victim in cluster.placement(i, s)
    ]
    assert (900, 0) in report.skipped
    assert report.skipped == down_strips
    restore_osd(cluster, victim)
    report2 = run_to(sim, sim.process(scrub(cluster, targets)))
    cluster.stop()
    assert report2.stripes_checked == 2 and report2.clean


# ----------------------------------------------------------------------
# recovery: restore, repair, mismatch reporting (satellites)
# ----------------------------------------------------------------------
def test_recovery_restores_victim_for_normal_reads(assert_holds):
    """Satellite regression: rebuilt blocks must be findable through
    placement — not stranded on the rebuilder while placement still maps
    the keys to the (dead) victim."""
    sim, cluster = build("fo")
    data = load(cluster)
    client = cluster.add_client("c0")
    cluster.start()
    victim = cluster.placement(600, 0)[1]
    fail_osd(cluster, victim, mode="crash")
    recover_node(cluster, victim, repair=True)
    assert_holds(cluster, victim, {600: data})
    assert cluster.osd_by_name(victim).running
    assert victim not in cluster.down_osds

    def rd():
        return (yield from client.read(600, BLOCK + 100, 64))

    got = run_to(sim, sim.process(rd()))
    cluster.stop()
    assert np.array_equal(got, data[BLOCK + 100 : BLOCK + 164])
    # The victim itself holds its rebuilt block again.
    assert cluster.osd_by_name(victim).store.peek((600, 0, 1)) is not None


def test_recovery_reports_mismatched_keys():
    """A corrupted survivor poisons the decode: exactly the block rebuilt
    from it differs from the file's bytes, at the corrupted offset (a
    verified run's oracle names that block and offset)."""
    sim, cluster = build("fo")
    data = load(cluster, stripes=1)
    cluster.start()
    names = cluster.placement(600, 0)
    victim = names[3]
    # Corrupt one of the k lowest-indexed survivors recovery will decode
    # from (memory corruption invisible to the drain).
    saboteur = cluster.osd_by_name(names[0])
    saboteur.store.fold_xor((600, 0, 0), 11, np.array([0xFF], dtype=np.uint8))
    recover_node(cluster, victim)
    cluster.stop()
    rebuilt = cluster.osd_by_name(victim).store.peek((600, 0, 3))
    assert np.flatnonzero(rebuilt != data[3 * BLOCK : 4 * BLOCK]).tolist() == [11]


def test_repair_pass_rewrites_torn_parity():
    sim, cluster = build("fo")
    load(cluster, stripes=2)
    cluster.start()
    names = cluster.placement(600, 1)
    # Tear stripe 1: parity 0 loses a delta (simulated by corrupting it).
    cluster.osd_by_name(names[K]).store.fold_xor(
        (600, 1, K), 5, np.array([0x5A], dtype=np.uint8)
    )
    assert not cluster.stripe_consistent(600, 1)
    repaired = run_to(sim, sim.process(_repair_stripes(cluster, names[0])))
    cluster.stop()
    assert repaired == 1
    assert cluster.stripe_consistent(600, 1)


def test_watch_and_recover_handles_sequential_failures(assert_holds):
    """Satellite regression: the watcher must keep recovering, not return
    after the first rebuild."""
    sim, cluster = build("fo")
    data = load(cluster, stripes=3)
    cluster.start()
    for osd in cluster.osds:
        osd.start_heartbeat(interval=0.2)
    stop = sim.event()
    watcher = sim.process(watch_and_recover(cluster, check_interval=0.3, stop=stop))
    names = cluster.placement(600, 0)
    first, second = names[0], names[2]
    sim.call_at(1.0, lambda: fail_osd(cluster, first))
    sim.call_at(1.2, lambda: fail_osd(cluster, second))
    while cluster.down_osds != set() or sim.now < 1.3:
        if sim.peek() == float("inf") or sim.now > 60.0:
            break
        sim.step()
    assert not cluster.down_osds
    stop.succeed()
    results = run_to(sim, watcher)
    cluster.stop()
    assert [r.failed_osd for r in results] == [first, second]
    for name in (first, second):
        assert_holds(cluster, name, {600: data})


# ----------------------------------------------------------------------
# degraded reads: byte-correct while an OSD is down (satellite, per method)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_degraded_reads_byte_correct_while_osd_down(method):
    sim, cluster = build(method)
    load(cluster)
    client = cluster.add_client("c0")
    cluster.start()
    rng = np.random.default_rng(8)

    def updates():
        for _ in range(12):
            off = int(rng.integers(0, 2 * K * BLOCK - 200))
            yield from client.update(
                600, off, rng.integers(0, 256, 200, dtype=np.uint8)
            )

    run_to(sim, sim.process(updates()))
    # §2.3.2: drain before relying on parity (degraded reads decode
    # through it).
    run_to(sim, sim.process(drain_all(cluster)))

    victim = cluster.placement(600, 0)[1]
    span = (BLOCK + 100, 64)  # inside the victim's data block

    def rd():
        return (yield from client.read(600, *span))

    expect = run_to(sim, sim.process(rd()))
    fail_osd(cluster, victim, mode="stop")
    degraded = run_to(sim, sim.process(rd()))
    assert victim in cluster.down_osds  # still down while we read
    assert np.array_equal(degraded, expect)
    assert client.degraded_reads > 0
    restore_osd(cluster, victim)
    cluster.stop()


# ----------------------------------------------------------------------
# the scenario axis end to end (tentpole acceptance)
# ----------------------------------------------------------------------
def test_failure_scenarios_registered():
    assert {"degraded_read", "rebuild_under_load", "double_fault"} <= set(SCENARIOS)
    assert SCENARIOS["rebuild_under_load"].recovery
    assert SCENARIOS["double_fault"].recovery
    assert not SCENARIOS["degraded_read"].recovery


@pytest.mark.parametrize("method", METHODS)
def test_rebuild_under_load_all_methods(method, monkeypatch):
    """The acceptance bar: every method survives a crash + rebuild under
    live foreground load — consistent drain, clean forced post-recovery
    scrub (run_scenario raises otherwise), and a full recovery section.
    The scrub is the drain verdict: the uncosted gate checks no stripe."""
    checked = []
    monkeypatch.setattr(Cluster, "stripe_consistent", lambda *a: checked.append(a))
    res = run_scenario("rebuild_under_load", method=method, **SMOKE)
    assert checked == []
    assert res.consistent
    rec = res.recovery
    assert rec is not None
    assert rec["failures"] == 1 and rec["recoveries"] == 1
    assert rec["scrub_clean"] is True and rec["scrub_stripes"] == 16
    assert rec["recovery_mbps"] > 0
    assert rec["downtime_s"] > 0
    # The outage decomposes: detection (4 heartbeats of 2 ms) + the three
    # recovery terms, with no remainder.
    assert rec["detect_s"] == pytest.approx(0.008, abs=1e-9)
    assert rec["downtime_s"] == pytest.approx(
        rec["detect_s"] + rec["drain_s"] + rec["rebuild_s"] + rec["repair_s"],
        abs=1e-9,
    )
    assert res.updates + res.reads == SMOKE["n_clients"] * SMOKE["requests_per_client"]


def test_parity_corrupted_after_the_drain_fails_the_fault_run(monkeypatch):
    """The scrub that replaced a fault run's drain gate still runs after
    the drain: one parity byte flipped between the two fails the run."""
    import repro.harness.experiment as hx

    real = hx.scrub

    def corrupt_then_scrub(cluster, targets):
        k = cluster.config.k  # the first parity block of the first stripe that has one
        parity = ((cluster.osd_by_name(cluster.placement(i, s)[k]).store, (i, s, k))
                  for i, s in targets)
        store, key = next((store, key) for store, key in parity if key in store)
        store.fold_xor(key, 0, np.ones(1, dtype=np.uint8))
        return (yield from real(cluster, targets))

    monkeypatch.setattr(hx, "scrub", corrupt_then_scrub)
    with pytest.raises(PostRecoveryScrubError, match=r"found 1 bad / 0 unscrubbable"):
        run_scenario("rebuild_under_load", **SMOKE)


def test_double_fault_recovers_both():
    res = run_scenario("double_fault", **SMOKE)
    rec = res.recovery
    assert rec["failures"] == 2 and rec["recoveries"] == 2
    assert rec["scrub_clean"] is True


def test_double_fault_cord_seed_24_does_not_leak_the_cord_lock():
    """The second crash interrupts a CoRD collect handler queued on its
    OSD's cord lock.  The lock must not be granted to that dead handler:
    it would never release it, and the stripes would stay fenced for 60 s."""
    res = run_scenario("double_fault", seed=24, method="cord")
    rec = res.recovery
    assert rec["failures"] == 2 and rec["recoveries"] == 2
    assert rec["scrub_clean"] is True


def test_degraded_read_scenario_transient_outage():
    res = run_scenario("degraded_read", **SMOKE)
    rec = res.recovery
    assert rec["failures"] == 1 and rec["recoveries"] == 0  # transient: no rebuild
    assert rec["downtime_s"] > 0 and rec["detect_s"] == 0.0
    assert rec["scrub_clean"] is True
    assert res.reads > 0


def test_failure_scenario_results_serialize():
    import json

    res = run_scenario("rebuild_under_load", **SMOKE)
    payload = res.to_dict()
    assert "recovery" in payload
    doc = json.loads(json.dumps(payload))
    assert doc["recovery"]["recovery_mbps"] >= 0
    assert "recovery" in res.render()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_scenario_rebuild_smoke(capsys):
    from repro.cli import main

    rc = main(["scenario", "rebuild_under_load", "--method", "tsue",
               "--clients", "2", "--requests", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scenario=rebuild_under_load" in out
    assert "recovery" in out and "consistent : True" in out


def test_cli_bench_recovery_rows(tmp_path, capsys):
    import json

    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--scenarios", "steady", "rebuild_under_load",
               "--methods", "tsue", "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-method recovery rows (rebuild_under_load)" in out
    payload = json.loads(path.read_text())
    row = payload["recovery"]["tsue"]
    assert row["consistent"] is True
    assert row["recovery"]["scrub_clean"] is True
    assert row["recovery"]["recovery_mbps"] > 0


def test_cli_bench_recovery_none_skips(tmp_path):
    import json

    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--scenarios", "steady", "--methods", "tsue",
               "--json", str(path)])
    assert rc == 0
    assert "recovery" not in json.loads(path.read_text())
