"""The live-change fault plane: fail-slow devices, degraded/lossy links,
rolling restarts and elastic membership (join/decommission rebalance)."""

import json

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.devices import SSD
from repro.net import NET_25GBE, Fabric, LinkLossError
from repro.recovery import (
    StripeMigrationError,
    fail_osd,
    rebalance_join,
    rebalance_leave,
)
from repro.harness.experiment import drain_all
from repro.sim import Simulator
from repro.update import make_strategy_factory
from repro.workload import (
    ELASTIC_SCENARIOS,
    METHODS,
    SCENARIOS,
    FaultEvent,
    FaultInjector,
    primary_victim,
    run_scenario,
    secondary_victim,
)

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
# FaultEvent validation (satellite: mode is fail-only; field scoping)
# ----------------------------------------------------------------------
def test_fault_event_mode_only_valid_on_fail():
    with pytest.raises(ValueError, match="only meaningful on 'fail'"):
        FaultEvent(at=0.0, action="slow", victim="osd0", mode="crash", factor=2.0)
    with pytest.raises(ValueError, match="only meaningful on 'fail'"):
        FaultEvent(at=0.0, action="restore", victim="osd0", mode="stop")
    # fail without a mode normalizes to crash; bad modes are rejected.
    assert FaultEvent(at=0.0, action="fail", victim="osd0").mode == "crash"
    with pytest.raises(ValueError, match="unknown failure mode"):
        FaultEvent(at=0.0, action="fail", victim="osd0", mode="maim")


def test_fault_event_field_scoping():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultEvent(at=0.0, action="warp", victim="osd0")
    with pytest.raises(ValueError, match="takes no victim"):
        FaultEvent(at=0.0, action="join", victim="osd0")
    with pytest.raises(ValueError, match="requires a victim"):
        FaultEvent(at=0.0, action="slow", factor=2.0)
    with pytest.raises(ValueError, match="factor must be > 0"):
        FaultEvent(at=0.0, action="slow", victim="osd0", factor=0.0)
    with pytest.raises(ValueError, match="only meaningful on slow"):
        FaultEvent(at=0.0, action="fail", victim="osd0", factor=2.0)
    with pytest.raises(ValueError, match="slow_link"):
        FaultEvent(at=0.0, action="slow", victim="osd0", factor=2.0, loss_every=3)
    with pytest.raises(ValueError, match="duration > 0"):
        FaultEvent(at=0.0, action="restart", victim="osd0")
    with pytest.raises(ValueError, match="restart events"):
        FaultEvent(at=0.0, action="fail", victim="osd0", duration=1.0)


def test_injector_timeline_records_failure_mode():
    """Satellite: the timeline carries the fail mode so tests and metrics
    can tell crash from stop without re-reading the schedule."""
    sim, cluster = build("fo")
    load(cluster)
    cluster.start()
    victim = cluster.placement(600, 0)[0]
    inj = FaultInjector(cluster, [600], [
        FaultEvent(at=0.001, action="fail", victim=primary_victim, mode="stop"),
        FaultEvent(at=0.002, action="restore", victim=primary_victim),
    ])
    run_to(sim, sim.process(inj.run()))
    cluster.stop()
    (t1, a1, n1, d1), (t2, a2, n2, d2) = inj.timeline
    assert (a1, n1, d1) == ("fail", victim, "stop")
    assert (a2, n2, d2) == ("restore", victim, "")
    assert t1 == pytest.approx(0.001) and t2 == pytest.approx(0.002)


def test_equal_time_events_fire_in_declared_order():
    """Satellite: sorting the schedule is stable, so two events at the
    same instant fire in declaration order."""
    sim, cluster = build("fo")
    load(cluster)
    cluster.start()
    a, b = cluster.ring[0], cluster.ring[1]
    inj = FaultInjector(cluster, [600], [
        FaultEvent(at=0.001, action="slow", victim=a, factor=2.0),
        FaultEvent(at=0.001, action="slow", victim=b, factor=3.0),
        FaultEvent(at=0.002, action="heal", victim=a),
        FaultEvent(at=0.002, action="heal", victim=b),
    ])
    run_to(sim, sim.process(inj.run()))
    cluster.stop()
    assert [(act, name) for _t, act, name, _d in inj.timeline] == [
        ("slow", a), ("slow", b), ("heal", a), ("heal", b),
    ]


def test_secondary_victim_raises_when_no_candidate():
    class TinyCluster:
        def placement(self, inode, stripe):
            return ["osd0", "osd1"]

        def replica_of(self, name):
            return "osd1"

    with pytest.raises(RuntimeError, match="no eligible secondary victim"):
        secondary_victim(TinyCluster(), [600])


def test_victims_resolve_lazily_against_the_live_cluster():
    """Satellite: pickers run at fire time — a membership change between
    scheduling and firing changes who gets hit."""
    sim, cluster = build("fo")
    load(cluster)
    cluster.start()
    before = primary_victim(cluster, [600])
    inj = FaultInjector(cluster, [600], [
        FaultEvent(at=0.002, action="slow", victim=primary_victim, factor=2.0),
        FaultEvent(at=0.003, action="heal", victim=primary_victim),
    ])
    rotated = list(cluster.ring[1:]) + [cluster.ring[0]]
    sim.call_at(0.001, lambda: cluster.commit_ring(rotated))
    run_to(sim, sim.process(inj.run()))
    cluster.stop()
    after = cluster.placement(600, 0)[0]
    assert after != before  # the rotation really moved the primary
    assert inj.timeline[0][2] == after


# ----------------------------------------------------------------------
# fail-slow devices
# ----------------------------------------------------------------------
def test_device_degrade_scales_service_time_and_heals():
    sim = Simulator()
    ssd = SSD(sim)
    base = ssd.service_time("write", 4096, sequential=True)
    ssd.degrade(6.0)
    assert ssd.service_time("write", 4096, sequential=True) == base * 6.0
    ssd.heal()
    assert ssd.service_time("write", 4096, sequential=True) == base
    with pytest.raises(ValueError):
        ssd.degrade(0.0)


# ----------------------------------------------------------------------
# fabric degradation + egress loss
# ----------------------------------------------------------------------
def test_degrade_link_scales_bw_and_adds_latency():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", bw_factor=0.5, extra_latency=1e-4)

    def proc():
        yield fab.transfer("a", "b", 1 << 20)
        return sim.now

    p = sim.process(proc())
    sim.run()
    wire = ((1 << 20) + NET_25GBE.header_bytes) / NET_25GBE.bandwidth
    # tx serialisation doubles (half bandwidth); rx leg is untouched.
    assert p.value == pytest.approx(3 * wire + NET_25GBE.base_latency + 1e-4)


def test_heal_link_restores_profile_speed():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", bw_factor=0.25)
    assert fab.link_state("a") is not None
    fab.heal_link("a")
    fab.heal_link("a")  # idempotent
    assert fab.link_state("a") is None

    def proc():
        yield fab.transfer("a", "b", 1 << 20)
        return sim.now

    p = sim.process(proc())
    sim.run()
    wire = ((1 << 20) + NET_25GBE.header_bytes) / NET_25GBE.bandwidth
    assert p.value == pytest.approx(2 * wire + NET_25GBE.base_latency)


def test_degrade_link_validation():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    with pytest.raises(KeyError):
        fab.degrade_link("ghost", bw_factor=0.5)
    with pytest.raises(ValueError):
        fab.degrade_link("a", bw_factor=0.0)
    with pytest.raises(ValueError):
        fab.degrade_link("a", extra_latency=-1.0)
    with pytest.raises(ValueError):
        fab.degrade_link("a", loss_every=-1)


def test_lossy_link_drops_every_nth_egress_message():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", loss_every=2)
    outcomes = []

    def one(kind):
        try:
            yield fab.transfer("a", "b", 4096, kind=kind)
            outcomes.append("ok")
        except LinkLossError as exc:
            assert exc.endpoint == "a"
            outcomes.append("dropped")

    def proc():
        for _ in range(4):
            yield from one("req")

    run_to(sim, sim.process(proc()))
    assert outcomes == ["ok", "dropped", "ok", "dropped"]
    assert fab.dropped_total == 2
    assert fab.link_state("a").dropped == 2


def test_egress_loss_exempts_reply_and_err_frames():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", loss_every=1)  # would drop every countable message

    def proc():
        yield fab.transfer("a", "b", 64, kind="read.reply", reply=True)
        yield fab.transfer("a", "b", 64, kind="update.err", reply=True)
        return "delivered"

    p = sim.process(proc())
    sim.run()
    assert p.value == "delivered"
    assert fab.dropped_total == 0


def test_transfer_counters_record_on_completion():
    """Satellite: traffic counters move at delivery, not at issue — an
    in-flight transfer contributes nothing yet."""
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")

    def proc():
        yield fab.transfer("a", "b", 1 << 20, kind="delta")

    p = sim.process(proc())
    wire = ((1 << 20) + NET_25GBE.header_bytes) / NET_25GBE.bandwidth
    # Past the tx leg and switch latency, mid rx-deserialisation.
    sim.run(until=wire + NET_25GBE.base_latency + wire / 2)
    assert not p.fired
    assert fab.counters.messages == 0 and fab.counters.bytes_sent == 0
    assert fab.nics["a"].counters.bytes_sent == 0
    sim.run()
    assert p.fired
    assert fab.counters.messages == 1 and fab.counters.bytes_sent == 1 << 20
    assert fab.nics["a"].counters.bytes_sent == 1 << 20


def test_dropped_transfer_counts_no_bytes():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", loss_every=1)

    def proc():
        try:
            yield fab.transfer("a", "b", 4096, kind="req")
        except LinkLossError:
            return "dropped"

    p = sim.process(proc())
    sim.run()
    assert p.value == "dropped"
    assert fab.counters.messages == 0 and fab.counters.bytes_sent == 0
    assert fab.dropped_total == 1


# ----------------------------------------------------------------------
# elastic membership: provision, join, decommission
# ----------------------------------------------------------------------
def test_add_osd_provisions_outside_the_ring():
    sim, cluster = build("fo")
    cluster.start()
    osd = cluster.add_osd()
    assert osd.name == "osd8"
    assert osd.running
    assert osd.name not in cluster.ring
    assert len(cluster.ring) == 8  # placement unchanged until commit
    cluster.stop()


def test_join_rebalances_and_preserves_data():
    sim, cluster = build("fo")
    data = load(cluster, stripes=4)
    client = cluster.add_client("c0")
    cluster.start()
    osd = cluster.add_osd()
    result = run_to(sim, sim.process(rebalance_join(cluster, osd.name)))
    assert osd.name in cluster.ring and len(cluster.ring) == 9
    assert result.kind == "join" and result.osd == osd.name
    assert result.stripes_migrated > 0
    assert result.blocks_moved > 0
    assert result.bytes_moved == result.blocks_moved * BLOCK
    assert result.t_end > result.t_start
    for s in range(4):
        assert cluster.stripe_consistent(600, s)
    # Every key lives exactly at its (new) placement — stale copies pruned.
    for s in range(4):
        names = cluster.placement(600, s)
        for b in range(K + M):
            for other in cluster.osds:
                blk = other.store.peek((600, s, b))
                if other.name == names[b]:
                    assert blk is not None
                else:
                    assert blk is None
    # Reads decode byte-correct through the new membership.

    def rd():
        return (yield from client.read(600, 100, 256))

    got = run_to(sim, sim.process(rd()))
    cluster.stop()
    assert np.array_equal(got, data[100:356])


def test_decommission_moves_placement_and_stops_node():
    sim, cluster = build("fo")
    data = load(cluster, stripes=4)
    client = cluster.add_client("c0")
    cluster.start()
    victim = cluster.placement(600, 0)[0]
    result = run_to(sim, sim.process(rebalance_leave(cluster, victim)))
    assert result.kind == "decommission"
    assert victim not in cluster.ring and len(cluster.ring) == 7
    victim_osd = cluster.osd_by_name(victim)
    assert not victim_osd.running
    assert len(victim_osd.store) == 0  # fully copied away, then pruned
    for s in range(4):
        assert cluster.stripe_consistent(600, s)

    def rd():
        return (yield from client.read(600, 3 * BLOCK - 64, 128))

    got = run_to(sim, sim.process(rd()))
    cluster.stop()
    assert np.array_equal(got, data[3 * BLOCK - 64 : 3 * BLOCK + 64])


def test_rebalance_guards():
    sim, cluster = build("fo")
    load(cluster)
    cluster.start()
    # Join of an existing member / leave of a non-member are caller bugs.
    with pytest.raises(ValueError, match="already a ring member"):
        next(rebalance_join(cluster, cluster.ring[0]))
    with pytest.raises(ValueError, match="not a ring member"):
        next(rebalance_leave(cluster, "ghost"))
    # A down member must be recovered before it can be decommissioned.
    victim = cluster.ring[0]
    fail_osd(cluster, victim, mode="stop")
    with pytest.raises(StripeMigrationError, match="while it is down"):
        next(rebalance_leave(cluster, victim))
    cluster.stop()


def test_decommission_below_min_ring_refused():
    sim, cluster = build("fo", n_osds=6)  # exactly k+m members
    load(cluster)
    cluster.start()
    with pytest.raises(StripeMigrationError, match="below k\\+m"):
        next(rebalance_leave(cluster, cluster.ring[0]))
    cluster.stop()


# ----------------------------------------------------------------------
# the live-change scenario axis end to end (tentpole acceptance)
# ----------------------------------------------------------------------
def test_elastic_scenarios_registered():
    assert set(ELASTIC_SCENARIOS) <= set(SCENARIOS)
    for name in ELASTIC_SCENARIOS:
        scenario = SCENARIOS[name]
        assert scenario.faults
        assert not scenario.recovery  # heal by schedule, no watcher


@pytest.mark.parametrize("method", METHODS)
def test_scale_in_live_all_methods(method):
    """The acceptance bar for migration: every method survives a live
    decommission — consistent drain, clean forced scrub, full elastic
    section, no lost foreground ops."""
    res = run_scenario("scale_in_live", method=method, **SMOKE)
    assert res.consistent
    e = res.elastic
    assert e is not None
    assert e["decommissions"] == 1 and e["migrations"] == 1
    assert e["stripes_migrated"] > 0 and e["migration_mb"] > 0
    assert e["time_to_rebalance_s"] > 0
    assert e["ring_size"] == 7
    assert res.recovery["scrub_clean"] is True
    assert res.updates + res.reads == SMOKE["n_clients"] * SMOKE["requests_per_client"]


@pytest.mark.parametrize("method", METHODS)
def test_scale_out_live_all_methods(method):
    """The same bar for a live join: the joiner serves flipped stripes
    (and, for tsue, forwards replicas) before it is a ring member."""
    res = run_scenario("scale_out_live", method=method, **SMOKE)
    assert res.consistent
    e = res.elastic
    assert e["joins"] == 1 and e["migrations"] == 1
    assert e["stripes_migrated"] > 0 and e["migration_mb"] > 0
    assert e["ring_size"] == 9
    assert res.recovery["scrub_clean"] is True
    assert res.updates + res.reads == SMOKE["n_clients"] * SMOKE["requests_per_client"]


@pytest.mark.parametrize("name, seed", [
    ("scale_out_live", 3), ("scale_out_live", 15), ("scale_out_live", 19),
    ("scale_out_live", 30), ("scale_in_live", 25), ("scale_in_live", 33),
    ("scale_in_live", 34), ("scale_in_live", 40), ("throttled_rebalance", 4),
    ("throttled_rebalance", 8), ("throttled_rebalance", 34),
])
def test_parix_live_migration_passes_its_gates(name, seed):
    """The seeds where a PARIX parity member still held the fenced stripe
    pending when ``drain_all`` returned (a background recycle's patch jobs
    outlive it); the rebalance's settle step waits them out before the
    pre-copy gate."""
    assert run_scenario(name, seed=seed, method="parix").consistent


def test_scale_out_live_migrates_onto_joiner():
    res = run_scenario("scale_out_live", **SMOKE)
    e = res.elastic
    assert e["joins"] == 1 and e["ring_size"] == 9
    assert e["stripes_migrated"] > 0 and e["blocks_moved"] > 0
    assert e["rebalance_copy_s"] > 0
    assert res.recovery["scrub_clean"] is True


def test_throttled_join_on_tsue():
    """A joiner has ring neighbours before ``commit_ring``: under the
    per-stripe protocol it takes updates on flipped stripes while still
    outside the ring, and tsue's front end asks for its replica target."""
    sim, cluster = build("tsue")
    load(cluster, stripes=4)
    client = cluster.add_client("c0")
    cluster.start()
    injector = FaultInjector(
        cluster, [600],
        [FaultEvent(at=0.001, action="join", rebalance_mbps=96.0)],
    )
    joined = sim.process(injector.run())
    rng = np.random.default_rng(5)

    def work():
        for off in rng.integers(0, 4 * K * BLOCK - 64, size=60):
            yield from client.update(600, int(off), np.full(64, 7, dtype=np.uint8))
        yield joined
        yield from drain_all(cluster)

    run_to(sim, sim.process(work()))
    cluster.stop()
    (result,) = injector.migrations
    assert result.kind == "join" and result.throttle_mbps == 96.0
    assert "osd8" in cluster.ring
    assert cluster.osd_by_name("osd8").updates_served > 0
    assert all(cluster.stripe_consistent(600, s) for s in range(4))


def test_fail_slow_amplifies_the_tail():
    res = run_scenario("fail_slow", **SMOKE)
    e = res.elastic
    assert e["slow_events"] == 1 and e["heals"] == 1
    assert e["degraded_s"] > 0
    assert e["straggler_p99_us"] > e["healthy_p99_us"]
    assert e["straggler_amplification"] > 1.0
    assert res.recovery["failures"] == 0  # nothing ever went down


def test_congested_fabric_drops_and_retries():
    res = run_scenario("congested_fabric", **SMOKE)
    e = res.elastic
    assert e["slow_link_events"] == 2 and e["heals"] == 2
    assert e["link_drops"] > 0
    assert e["retransmits"] > 0  # dropped requests resent by rpc ...
    assert res.recovery["update_retries"] == 0  # ... not retried whole
    assert e["straggler_amplification"] > 1.0


def test_rolling_restart_counts_and_dips():
    res = run_scenario("rolling_restart", **SMOKE)
    e = res.elastic
    assert e["restarts"] == 3
    assert res.recovery["failures"] == 3  # restart windows count as outages
    assert res.recovery["recoveries"] == 0  # self-healing, no rebuild
    assert e["change_window_s"] > 0
    assert 0 < e["change_dip"] < 1.0  # foreground visibly dips


def test_elastic_results_serialize():
    res = run_scenario("fail_slow", **SMOKE)
    payload = json.loads(json.dumps(res.to_dict()))
    assert payload["elastic"]["slow_events"] == 1.0
    assert "elastic" in res.render() and "straggler" in res.render()


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_bench_elastic_rows(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--scenarios", "steady", "fail_slow", "--methods", "tsue",
               "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-method live-change rows (fail_slow)" in out
    payload = json.loads(path.read_text())
    assert set(payload["elastic"]) == {"fail_slow"}
    row = payload["elastic"]["fail_slow"]["tsue"]
    assert row["consistent"] is True
    assert row["elastic"]["slow_events"] == 1.0
    # The sweep cell is the registry cell (simulated once), under both keys.
    assert row == payload["scenarios"]["fail_slow"]
    assert payload["perf"]["fail_slow/tsue"]["wall_s"] > 0


def test_cli_bench_elastic_none_skips(tmp_path):
    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--scenarios", "steady", "--methods", "tsue",
               "--json", str(path)])
    assert rc == 0
    # No sweep scenario selected: only the registry section (and its perf).
    assert set(json.loads(path.read_text())) == {"bench", "scenarios", "perf"}


def test_cli_bench_unknown_elastic_scenario_fails_fast(capsys):
    from repro.cli import main

    rc = main(["bench", "--scenarios", "fail_slow", "bogus"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the at-most-once fault plane: loss scopes, direction accounting,
# QoS-throttled rebalance (satellites + tentpole acceptance)
# ----------------------------------------------------------------------
def test_degrade_link_loss_scope_validation():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    with pytest.raises(ValueError, match="loss_scope"):
        fab.degrade_link("a", loss_every=2, loss_scope="everything")
    with pytest.raises(KeyError):
        fab.degrade_link("ghost", loss_every=2, loss_scope="all")


def test_fault_event_loss_scope_and_throttle_scoping():
    """Satellite: strict FaultEvent field validation for the new knobs."""
    # loss_scope: only meaningful on slow_link, only the two known values.
    with pytest.raises(ValueError, match="loss_scope"):
        FaultEvent(at=0.0, action="slow_link", victim="osd0", factor=2.0,
                   loss_every=2, loss_scope="sometimes")
    with pytest.raises(ValueError, match="slow_link"):
        FaultEvent(at=0.0, action="slow", victim="osd0", factor=2.0,
                   loss_scope="all")
    with pytest.raises(ValueError, match="slow_link"):
        FaultEvent(at=0.0, action="fail", victim="osd0", loss_scope="all")
    # rebalance_mbps: only on the membership actions, never negative.
    with pytest.raises(ValueError, match="rebalance_mbps"):
        FaultEvent(at=0.0, action="slow", victim="osd0", factor=2.0,
                   rebalance_mbps=64.0)
    with pytest.raises(ValueError, match="rebalance_mbps"):
        FaultEvent(at=0.0, action="join", rebalance_mbps=-1.0)
    # The valid combinations construct cleanly.
    ok = FaultEvent(at=0.0, action="slow_link", victim="osd0", factor=2.0,
                    loss_every=3, loss_scope="all")
    assert ok.loss_scope == "all"
    assert FaultEvent(at=0.0, action="join", rebalance_mbps=64.0).rebalance_mbps == 64.0
    assert FaultEvent(at=0.0, action="decommission", victim="osd0",
                      rebalance_mbps=96.0).rebalance_mbps == 96.0


def test_loss_scope_all_drops_replies_with_direction_accounting():
    """Satellite: scope=\"all\" covers reply/err frames, and drops are
    accounted per direction and folded into fabric totals on heal."""
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", loss_every=1, loss_scope="all")
    outcomes = []

    def one(kind):
        try:
            yield fab.transfer("a", "b", 256, kind=kind, reply=kind != "req")
            outcomes.append("ok")
        except LinkLossError:
            outcomes.append("dropped")

    def proc():
        yield from one("req")
        yield from one("read.reply")
        yield from one("update.err")

    run_to(sim, sim.process(proc()))
    assert outcomes == ["dropped", "dropped", "dropped"]
    assert fab.link_state("a").dropped_requests == 1
    assert fab.link_state("a").dropped_replies == 2
    assert fab.link_state("a").dropped == 3
    assert (fab.dropped_requests, fab.dropped_replies) == (1, 2)
    fab.heal_link("a")  # folds the per-link counters into the fabric
    assert (fab.dropped_requests, fab.dropped_replies) == (1, 2)
    assert fab.dropped_total == 3


def test_redegrading_a_link_keeps_its_drop_counters():
    """``degrade_link`` on an already-degraded endpoint replaces the link
    state; the drops of the replaced window stay in the fabric totals."""
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")

    def lose(kind):
        with pytest.raises(LinkLossError):
            yield fab.transfer("a", "b", 64, kind=kind, reply=kind != "req")

    def proc():
        fab.degrade_link("a", loss_every=1, loss_scope="all")
        yield from lose("req")
        yield from lose("read.reply")
        fab.degrade_link("a", bw_factor=0.5, loss_every=1, loss_scope="all")
        assert fab.link_state("a").dropped == 0  # a fresh window
        yield from lose("req")
        fab.heal_link("a")

    run_to(sim, sim.process(proc()))
    assert (fab.dropped_requests, fab.dropped_replies) == (2, 1)
    assert fab.dropped_total == 3


def test_default_scope_still_exempts_replies():
    """The historical contract is the default: requests-only loss leaves
    every reply/err frame alone (and off the countable-message stream)."""
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", loss_every=1)  # loss_scope="requests"

    def proc():
        yield fab.transfer("a", "b", 64, kind="read.reply", reply=True)
        yield fab.transfer("a", "b", 64, kind="update.err", reply=True)
        return "delivered"

    p = sim.process(proc())
    sim.run()
    assert p.value == "delivered"
    assert fab.dropped_replies == 0


def test_retransmitted_transfer_bytes_count_at_completion():
    """Satellite: a dropped frame moves no counters; only the successful
    retransmission counts — and exactly once, at delivery time."""
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    fab.degrade_link("a", loss_every=2, loss_scope="all")

    def proc():
        yield fab.transfer("a", "b", 1024, kind="d")   # 1st: delivered
        try:
            yield fab.transfer("a", "b", 2048, kind="d")  # 2nd: dropped
        except LinkLossError:
            yield fab.transfer("a", "b", 2048, kind="d")  # retransmit

    p = sim.process(proc())
    sim.run()
    assert p.fired
    assert fab.counters.messages == 2          # only delivered frames
    assert fab.counters.bytes_sent == 1024 + 2048  # retransmit counted once
    assert fab.link_state("a").dropped == 1


@pytest.mark.parametrize("method", METHODS)
def test_lossy_drained_state_matches_lossless(method):
    """The retry-safety property: with loss on OSD egress AND reply frames,
    every method drains to the byte-identical state of a lossless run fed
    the same RNG draws.  Fails on the pre-at-most-once transport (reply
    loss either double-applied deltas or was simply unsupported)."""
    def run(lossy):
        sim, cluster = build(method)
        data = load(cluster, stripes=2)
        client = cluster.add_client("c0")
        cluster.start()
        victim = cluster.placement(600, 0)[0]
        if lossy:
            cluster.fabric.degrade_link(victim, bw_factor=0.5, loss_every=3,
                                        loss_scope="all")
            cluster.fabric.degrade_link("c0", bw_factor=0.5, loss_every=4,
                                        loss_scope="all")
        rng = np.random.default_rng(99)
        offsets = rng.integers(0, 2 * K * BLOCK - 64, size=24)
        payloads = rng.integers(0, 256, size=(24, 64), dtype=np.uint8)

        def work():
            # One client, sequential ops: a total order, so loss can delay
            # but never reorder — the drained bytes must match exactly.
            for off, buf in zip(offsets, payloads):
                yield from client.update(600, int(off), buf)
            if lossy:
                cluster.fabric.heal_link(victim)
                cluster.fabric.heal_link("c0")
            yield from drain_all(cluster)

        run_to(sim, sim.process(work()), horizon=240.0)
        cluster.stop()
        state = {
            osd.name: {
                key: osd.store.peek(key).tobytes()
                for key in sorted(osd.store)
            }
            for osd in cluster.osds
        }
        dropped = cluster.fabric.dropped_total
        return state, dropped

    lossless, d0 = run(lossy=False)
    lossy, d1 = run(lossy=True)
    assert d0 == 0 and d1 > 0  # the lossy run really did lose frames
    assert lossy == lossless


def test_lossy_cluster_all_methods_smoke():
    """The scenario gate for one method (the full seven-method sweep runs
    in the bench): consistent drain, clean scrub, live delivery metrics."""
    res = run_scenario("lossy_cluster", method="tsue", **SMOKE)
    assert res.consistent
    assert res.recovery["scrub_clean"] is True
    e = res.elastic
    assert e["slow_link_events"] == 2 and e["heals"] == 2
    assert e["retransmits"] > 0
    assert e["duplicates_suppressed"] > 0
    assert e["cached_reply_hits"] > 0
    assert e["link_drop_replies"] > 0
    assert e["link_drops"] == e["link_drop_requests"] + e["link_drop_replies"]
    assert res.updates + res.reads == SMOKE["n_clients"] * SMOKE["requests_per_client"]


def test_throttled_rebalance_softens_the_change_dip():
    """Same decommission, same migration plan, same per-stripe protocol:
    the token bucket only stretches the copy.  Both runs keep most of the
    foreground rate inside the change window — the property the per-stripe
    protocol is kept for (a whole-ring fence read 0.02-0.37 here)."""
    base = run_scenario("scale_in_live", method="tsue", **SMOKE)
    qos = run_scenario("throttled_rebalance", method="tsue", **SMOKE)
    assert qos.consistent and qos.recovery["scrub_clean"] is True
    b, q = base.elastic, qos.elastic
    assert q["stripes_migrated"] == b["stripes_migrated"]  # equal volume
    assert q["rebalance_throttle_mbps"] == 96.0
    assert q["rebalance_throttle_wait_s"] > 0
    assert 0.0 < q["throttle_utilization"] < 2.0
    assert b["rebalance_throttle_mbps"] == b["rebalance_throttle_wait_s"] == 0.0
    assert q["rebalance_copy_s"] > b["rebalance_copy_s"]
    assert b["change_dip"] > 0.5 and q["change_dip"] > 0.5


# ----------------------------------------------------------------------
# drains under live traffic (the rebalance drains per stripe while every
# other stripe keeps updating — regressions here corrupt parity silently)
# ----------------------------------------------------------------------
def test_plr_live_drain_keeps_delta_appended_mid_recycle():
    """A parity delta that lands while a drain is mid-recycle must start a
    fresh ledger and be applied by the next pass.  Fails on a recycle that
    zeroes the region counters *after* its device yields — stranding the
    mid-flight delta invisibly in the index forever."""

    sim, cluster = build("plr")
    load(cluster, stripes=1)
    cluster.start()
    parity = cluster.osd_by_name(cluster.placement(600, 0)[K])
    strat = parity.strategy
    pkey = (600, 0, K)
    d1 = np.full(64, 3, dtype=np.uint8)
    d2 = np.full(64, 5, dtype=np.uint8)
    p0 = parity.store.peek(pkey).copy()

    def append(offset, pdelta):
        yield from strat._h_append(pkey, [(offset, pdelta)])

    run_to(sim, sim.process(append(0, d1)))
    # Race a second append against a live drain of the first: its region
    # write (96 B) completes inside the recycle's chunk read+write window.
    p_rec = sim.process(strat.drain(0))
    p_app = sim.process(append(128, d2))
    run_to(sim, p_rec)
    run_to(sim, p_app)
    # The mid-recycle delta is pending again — visibly, so gates skip it.
    assert strat.region_used.get(pkey, 0) > 0
    assert strat.stripe_pending(600, 0)
    run_to(sim, sim.process(drain_all(cluster)))
    assert pkey not in list(strat.log_index.blocks())
    assert strat.region_used.get(pkey, 0) == 0
    expect = p0.copy()
    expect[0:64] ^= d1
    expect[128:192] ^= d2
    assert np.array_equal(parity.store.peek(pkey), expect)


def test_plr_live_drain_sweeps_stranded_entries():
    """An index entry under a zeroed ledger (what an append racing a
    zero-after-yield recycle leaves behind) keeps the stripe visibly
    pending, and the next drain sweeps it into the parity chunk."""

    sim, cluster = build("plr")
    load(cluster, stripes=1)
    cluster.start()
    parity = cluster.osd_by_name(cluster.placement(600, 0)[K])
    strat = parity.strategy
    pkey = (600, 0, K)
    d1 = np.full(64, 3, dtype=np.uint8)
    d2 = np.full(64, 5, dtype=np.uint8)
    p0 = parity.store.peek(pkey).copy()

    def append(offset, pdelta):
        yield from strat._h_append(pkey, [(offset, pdelta)])

    run_to(sim, sim.process(append(0, d1)))
    run_to(sim, sim.process(drain_all(cluster)))  # applies d1, ledger zeroed
    # Manufacture the race outcome: entry in the index, ledger reads zero.
    strat.log_index.insert(pkey, 128, d2)
    assert strat.stripe_pending(600, 0)
    run_to(sim, sim.process(drain_all(cluster)))
    assert pkey not in list(strat.log_index.blocks())
    assert not strat.stripe_pending(600, 0)
    expect = p0.copy()
    expect[0:64] ^= d1
    expect[128:192] ^= d2
    assert np.array_equal(parity.store.peek(pkey), expect)


def test_qos_rebalance_skips_wholesale_on_rebuilt():
    """The final commit is placement-neutral (every moved stripe already
    routes through its override, installed against a fenced + drained
    stripe), so it must NOT fire the wholesale on_rebuilt() reset: unfenced
    stripes keep updating through the copy windows, and the reset would wipe
    their live pending state (PARIX deltas, for one) mid-flow.  Throttled
    or not."""
    def run(mbps):
        sim, cluster = build("parix", n_osds=8)
        load(cluster, stripes=2)
        cluster.start()
        calls = []
        for osd in cluster.osds:
            osd.strategy.on_rebuilt = (
                lambda name=osd.name: calls.append(name)
            )
        victim = cluster.placement(600, 0)[0]
        res = run_to(
            sim, sim.process(rebalance_leave(cluster, victim, rebalance_mbps=mbps))
        )
        assert res.stripes_migrated > 0
        return calls

    assert run(64.0) == []
    assert run(0.0) == []
