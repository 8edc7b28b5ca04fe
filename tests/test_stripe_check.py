"""The one costed stripe check and the sliding window it runs in.

``check_stripe`` (member-coordinated pull-encode-compare-rewrite) and
``windowed`` (at most N jobs in flight, no batch barrier) are what parity
repair, scrub and the rebuild driver are maps of; these tests pin the
helper's contract and the equivalence of the new repair with a serial
single-reader reference kept here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.fs.messages import HostDownError
from repro.recovery import fail_osd, scrub
from repro.recovery.recovery import _repair_stripes, _revive_down_serving_planes
from repro.recovery.scrub import check_stripe, windowed
from repro.sim import Simulator
from repro.sim.events import AllOf
from repro.update import make_strategy_factory

BLOCK = 2048
INODE = 700


def build(k=4, m=2, n_osds=8, stripes=12, seed=5):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=n_osds, k=k, m=m, block_size=BLOCK, seed=seed,
                      client_overhead_s=0.0),
        make_strategy_factory("fo"),
    )
    rng = np.random.default_rng(seed)
    cluster.instant_load_file(
        INODE, rng.integers(0, 256, stripes * k * BLOCK, dtype=np.uint8)
    )
    cluster.start()
    return sim, cluster


def run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def tear(cluster, stripe, parity):
    """Flip one byte of a stored parity block (a lost delta)."""
    k = cluster.config.k
    name = cluster.placement(INODE, stripe)[k + parity]
    cluster.osd_by_name(name).store.fold_xor(
        (INODE, stripe, k + parity), 3, np.array([0x5A], dtype=np.uint8)
    )


def stores(cluster):
    return {
        (osd.name, key): osd.store.peek(key).copy()
        for osd in cluster.osds
        for key in osd.store
    }


# ----------------------------------------------------------------------
# windowed
# ----------------------------------------------------------------------
def _sleepers(sim, sleeps, alive, peak, done_at, boom=None, log=None):
    def job(i, dt):
        alive[0] += 1
        peak[0] = max(peak[0], alive[0])
        if log is not None:
            log.append(("start", i))
        try:
            yield sim.timeout(dt)
            if i == boom:
                log.append(("raise", i))
                raise KeyError(i)
        finally:
            alive[0] -= 1
        done_at[i] = sim.now
        return i

    return [job(i, dt) for i, dt in enumerate(sleeps)]


@given(
    sleeps=st.lists(st.floats(1e-6, 1e-2), min_size=0, max_size=40),
    window=st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_windowed_bounds_concurrency_and_keeps_job_order(sleeps, window):
    sim = Simulator()
    alive, peak, done_at = [0], [0], {}
    jobs = _sleepers(sim, sleeps, alive, peak, done_at)
    out = run_to(sim, sim.process(windowed(sim, jobs, window)))
    assert out == list(range(len(sleeps)))
    assert peak[0] == min(window, len(sleeps))
    if window == 1:
        # One lane is the serial loop: completion instants to the float.
        t, serial = 0.0, {}
        for i, dt in enumerate(sleeps):
            t = t + dt
            serial[i] = t
        assert done_at == serial
    if sleeps:
        # No batch barrier: a lane takes the next job the instant its own
        # finishes, so the window closes no later than the batched loop.
        batched = sum(
            max(sleeps[i:i + window]) for i in range(0, len(sleeps), window)
        )
        assert sim.now <= batched * (1 + 1e-12)


@given(
    n=st.integers(1, 40),
    window=st.integers(1, 9),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_windowed_first_exception_ends_the_window(n, window, data):
    boom = data.draw(st.integers(0, n - 1))
    sim = Simulator()
    alive, peak, done_at, log = [0], [0], {}, []
    jobs = _sleepers(sim, [1e-3] * n, alive, peak, done_at, boom=boom, log=log)

    def caller():
        try:
            yield from windowed(sim, jobs, window)
        except KeyError as err:
            return err.args[0], sim.now

    proc = sim.process(caller())
    sim.run()  # to exhaustion: the failing job's window-mates finish
    assert proc.value == (boom, pytest.approx((boom // window + 1) * 1e-3))
    assert alive[0] == 0 and peak[0] <= window
    # Nothing is admitted once a job has raised; what was in flight finishes.
    assert log.index(("raise", boom)) > max(
        i for i, entry in enumerate(log) if entry[0] == "start"
    )
    assert len(log) - 1 <= boom + window


# ----------------------------------------------------------------------
# check_stripe / repair against a serial single-reader reference
# ----------------------------------------------------------------------
def reference_repair(cluster, failed_osd):
    """The pre-window repair: one stripe at a time, every block of each
    pulled into the victim's ring successor."""
    sim, cfg = cluster.sim, cluster.config
    span = cfg.k * cfg.block_size
    reader = cluster.osd_by_name(cluster.replica_of(failed_osd))
    repaired = 0
    for inode, meta in sorted(cluster.mds.files.items()):
        for stripe in range(meta.size // span):
            names = cluster.placement(inode, stripe)
            if failed_osd not in names:
                continue
            replies = yield AllOf(sim, [
                sim.process(reader.rpc(names[b], "recovery_read", ((inode, stripe, b),)))
                for b in range(cfg.k + cfg.m)
            ])
            blocks = replies
            expect = cluster.codec.encode(blocks[: cfg.k])
            bad = [
                p for p in range(cfg.m)
                if not np.array_equal(blocks[cfg.k + p], expect[p])
            ]
            if bad:
                yield AllOf(sim, [
                    sim.process(reader.rpc(
                        names[cfg.k + p], "recovery_write",
                        ((inode, stripe, cfg.k + p), expect[p]),
                    ))
                    for p in bad
                ])
                repaired += 1
    return repaired


@pytest.mark.parametrize("k,m", [(4, 2), (6, 2), (6, 4)])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_repair_matches_serial_single_reader_reference(k, m, data):
    stripes = 10
    torn = data.draw(st.sets(
        st.tuples(st.integers(0, stripes - 1), st.integers(0, m - 1)), max_size=12
    ))
    outcomes = []
    for repair in (reference_repair, _repair_stripes):
        sim, cluster = build(k, m, n_osds=k + m + 2, stripes=stripes)
        victim = cluster.placement(INODE, 0)[1]
        for stripe, parity in sorted(torn):
            tear(cluster, stripe, parity)
        repaired = run_to(sim, sim.process(repair(cluster, victim)))
        cluster.stop()
        in_scope = [
            s for s in range(stripes) if victim in cluster.placement(INODE, s)
        ]
        assert all(cluster.stripe_consistent(INODE, s) for s in in_scope)
        assert repaired == len({s for s, _p in torn if s in in_scope})
        outcomes.append((repaired, stores(cluster)))
    (n_ref, ref), (n_new, new) = outcomes
    assert n_new == n_ref
    assert ref.keys() == new.keys()
    assert all(np.array_equal(ref[key], new[key]) for key in ref)


def test_check_stripe_reports_without_rewriting_and_avoids_a_dead_coordinator():
    sim, cluster = build()
    k = cluster.config.k
    tear(cluster, 2, 1)
    assert run_to(sim, sim.process(check_stripe(cluster, INODE, 2))) == [1]
    assert not cluster.stripe_consistent(INODE, 2)  # rewrite=False: report only
    # Stop the first parity holder's serving plane: the next member in
    # parity-then-data order coordinates, and the pull waits out the stop.
    names = cluster.placement(INODE, 2)
    first = cluster.osd_by_name(names[k])
    sent_before = first.fabric.nics[first.name].counters.by_kind.get("recovery_read", 0)
    first.stop()
    proc = sim.process(check_stripe(cluster, INODE, 2, rewrite=True))
    sim.call_at(sim.now + 2e-3, first.restart)
    assert run_to(sim, proc) == [1]
    assert cluster.stripe_consistent(INODE, 2)
    # The stopped node served its block but coordinated nothing.
    assert first.fabric.nics[first.name].counters.by_kind.get(
        "recovery_read", 0) == sent_before
    # No running member at all: one attempt, the caller owns the retry.
    for name in names:
        cluster.osd_by_name(name).crash()
    with pytest.raises(HostDownError):
        run_to(sim, sim.process(check_stripe(cluster, INODE, 2)))
    cluster.stop()


def test_member_crash_mid_repair_is_retried_and_the_stripe_heals(monkeypatch):
    import repro.recovery.recovery as recovery

    checks = []  # (stripe, sim.now) of every check_stripe attempt

    def spy(cluster, inode, stripe, rewrite=False):
        checks.append((stripe, cluster.sim.now))
        return (yield from check_stripe(cluster, inode, stripe, rewrite))

    monkeypatch.setattr(recovery, "check_stripe", spy)

    def scenario(crash_at=None):
        checks.clear()
        sim, cluster = build(stripes=16)
        victim = cluster.placement(INODE, 0)[1]
        in_scope = [s for s in range(16) if victim in cluster.placement(INODE, s)]
        for s in in_scope:
            tear(cluster, s, s % 2)
        stop = sim.event()
        reviver = sim.process(_revive_down_serving_planes(cluster, stop))
        proc = sim.process(_repair_stripes(cluster, victim, parallelism=2))
        restarts = []
        if crash_at is not None:
            # A member of the last in-scope stripe that is not the victim.
            other = cluster.osd_by_name(next(
                n for n in cluster.placement(INODE, in_scope[-1]) if n != victim
            ))
            start = other.start
            other.start = lambda: (restarts.append(sim.now), start())
            sim.call_at(crash_at, lambda: fail_osd(cluster, other.name))
        repaired = run_to(sim, proc)
        took = sim.now
        stop.succeed()
        run_to(sim, reviver)
        cluster.stop()
        assert repaired == len(in_scope)
        assert all(cluster.stripe_consistent(INODE, s) for s in in_scope)
        return took, restarts, len(in_scope)

    clean, _, n = scenario()
    assert len(checks) == n
    # The same deterministic run with a member crashed halfway: the stripe
    # in flight on it fails with HostDownError, waits for the reviver to
    # restart the member's serving plane, and is retried at that instant.
    took, restarts, _ = scenario(crash_at=clean / 2)
    retries = [t for i, (s, t) in enumerate(checks) if s in {c for c, _ in checks[:i]}]
    assert len(checks) == n + len(retries) and retries
    assert set(retries) == {restarts[0]} and restarts[0] > clean / 2
    assert took > restarts[0]


def test_repair_spreads_its_reads_over_the_ring():
    sim, cluster = build(stripes=48)
    victim = cluster.placement(INODE, 0)[1]
    received = {osd.name: 0 for osd in cluster.osds}
    frames = []
    transfer = cluster.fabric.transfer

    def tallying(src, dst, nbytes, kind="", reply=False):
        if kind == "recovery_read.reply" and src != dst:
            received[dst] += nbytes
            frames.append(nbytes)
        return transfer(src, dst, nbytes, kind, reply)

    cluster.fabric.transfer = tallying
    run_to(sim, sim.process(_repair_stripes(cluster, victim)))
    cluster.stop()
    total = sum(received.values())
    in_scope = sum(victim in cluster.placement(INODE, s) for s in range(48))
    # The coordinator's own block never crosses the wire: k+m-1 frames.
    assert len(frames) == in_scope * (cluster.config.k + cluster.config.m - 1)
    assert min(frames) >= BLOCK
    # At the parent one NIC (the victim's ring successor) received all of it.
    assert max(received.values()) <= 2 * total / len(received)


# ----------------------------------------------------------------------
# scrub is driven by live stripe members, never by a fixed node
# ----------------------------------------------------------------------
def test_scrub_is_not_driven_through_a_crashed_node():
    """``scrub`` used to pull every stripe through ``ring[0]`` whether or
    not it was up: the caller side of an RPC never checks its own
    liveness, so a crashed osd0 still "scrubbed" stripes it held no block
    of."""
    sim, cluster = build(n_osds=16, stripes=24)
    fail_osd(cluster, "osd0")
    nic = cluster.fabric.nics["osd0"].counters
    before = (nic.messages, nic.bytes_sent, dict(nic.by_kind))
    targets = [(INODE, s) for s in range(24)]
    report = run_to(sim, sim.process(scrub(cluster, targets)))
    cluster.stop()
    with_osd0 = [t for t in targets if "osd0" in cluster.placement(*t)]
    assert 0 < len(with_osd0) < len(targets)
    assert report.skipped == with_osd0
    assert report.stripes_checked == len(targets) - len(with_osd0)
    assert report.clean
    assert report.bytes_read == report.stripes_checked * 6 * BLOCK
    assert (nic.messages, nic.bytes_sent, dict(nic.by_kind)) == before
