"""The acked-update oracle (``repro.harness.experiment.check_acked_bytes``).

Every verified byte-plane run ends with it: every data byte must equal a
legal writer's byte (the payload of an update acked at or after the last
issue of the acked updates covering it, or of one that never acked) or,
where no acked update covers it, zero.  These tests pin what it catches
that no other gate does, and what feeds it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.harness.artifacts as art
import repro.harness.experiment as hx
from repro.fs.osd import OSD
from repro.harness.experiment import ExperimentConfig, LostUpdateError, build_cluster
from repro.sim.rng import payload_bytes
from repro.tsue.engine import DATA, DELTA
from repro.workload import run_bench_cells, run_scenario, scenario_config
from repro.workload.generator import NO_WRITES, WriteLog


def _nothing():
    return
    yield


@pytest.fixture
def crash_drops_logs(monkeypatch):
    """The mutant: a crash drops the victim's unrecycled TSUE DataLog and
    DeltaLog entries — the active units' and the sealed ones still queued
    for recycle — instead of surviving in the ring neighbour's replica."""
    crash = OSD.crash

    def dropping(self):
        crash(self)
        engine = getattr(self.strategy, "engine", None)
        if engine is None:
            return
        for pool in engine.data_pools + engine.delta_pools:
            if pool.active is not None:
                pool.active.entries.clear()
                pool.active.index.clear()
        for layer in (DATA, DELTA):
            ready = engine._ready.get(layer, [])
            ready[:] = [(key, _nothing, state) for key, _, state in ready]

    monkeypatch.setattr(OSD, "crash", dropping)


@pytest.mark.parametrize("seed", [3, 5])
def test_crash_that_drops_logs_fails_only_the_oracle(crash_drops_logs, monkeypatch, seed):
    with pytest.raises(LostUpdateError) as err:
        run_scenario("double_fault", seed=seed, method="tsue")
    assert err.value.key == (1003, 7, 0)
    assert err.value.writers  # an acked update covered the lost byte
    # Every other gate — drain consistency, the post-recovery scrub, the
    # heal-before-drain barrier — passes the same run.
    monkeypatch.setattr(hx, "check_acked_bytes", lambda cluster: None)
    res = run_scenario("double_fault", seed=seed, method="tsue")
    assert res.consistent is True and res.recovery["scrub_clean"] is True


def test_a_pooled_cells_lost_update_reaches_the_caller(crash_drops_logs, monkeypatch):
    """The error crosses the pool whole: unpickling it in the parent must
    not fail, or the pool would wait for the result forever."""
    monkeypatch.setattr(art, "CORES", 2)
    with pytest.raises(LostUpdateError) as err:
        run_bench_cells([("double_fault", "tsue"), ("steady", "tsue")], jobs=2, seed=3)
    assert err.value.key == (1003, 7, 0) and err.value.writers


def test_oracle_passes_the_same_crash_without_the_mutant():
    assert run_scenario("double_fault", seed=3, method="tsue").consistent is True


def _fig8b(**kw):
    return ExperimentConfig(
        method="fo", trace="msr:hm0", k=6, m=4, device_kind="hdd", n_clients=2,
        updates_per_client=20, stripes_per_file=24, seed=3, verify=False, **kw,
    )


def test_fig8b_preload_is_a_writer_and_a_rebuilt_byte_is_checked(monkeypatch):
    """``run_recovery`` verifies even from an unverified config: each
    preloaded file is a writer acked before any update, so a rebuilt byte
    only the preload covers is held to it."""
    check = hx.check_acked_bytes
    seen = []

    def flip_then_check(cluster):
        seen.append(cluster)
        assert cluster.config.ghost_dataplane is False  # the byte plane
        log = cluster.writes
        assert [log.sources[log.who[r]][0] for r in range(2)] == ["load", "load"]
        # Flip the last byte of the last data block of the first file: no
        # trace record reaches it at this size.
        span = cluster.config.k * cluster.config.block_size
        stripe = cluster.mds.files[1000].size // span - 1
        key = (1000, stripe, cluster.config.k - 1)
        last = cluster.config.block_size - 1
        osd = cluster.osd_by_name(cluster.placement(1000, stripe)[key[2]])
        osd.store.fold_xor(key, last, np.array([0x80], dtype=np.uint8))
        with pytest.raises(LostUpdateError) as err:
            check(cluster)
        assert (err.value.key, err.value.offset) == (key, last)
        assert err.value.writers == [("load", 0)]
        osd.store.fold_xor(key, last, np.array([0x80], dtype=np.uint8))
        check(cluster)

    monkeypatch.setattr(hx, "check_acked_bytes", flip_then_check)
    res = art.run_recovery(_fig8b())
    assert len(seen) == 1 and res.blocks_recovered > 0


def test_an_update_that_never_acked_may_have_landed(built_cluster):
    """A writer whose ack stamp stays ``NEVER`` (it raised) is legal
    wherever its bytes landed."""
    cluster = built_cluster
    log = cluster.writes
    last = len(log) - 1
    log.acked[last] = WriteLog.NEVER
    hx.check_acked_bytes(cluster)


def _small_run(monkeypatch, trace):
    """The cluster of one small verified ``run_experiment``."""
    kept = []
    build = hx.build_cluster
    monkeypatch.setattr(hx, "build_cluster", lambda cfg: kept.append(build(cfg)) or kept[-1])
    hx.run_experiment(ExperimentConfig(
        trace=trace, k=4, m=2, n_osds=8, n_clients=2, updates_per_client=30,
        block_size=16 * 1024, stripes_per_file=4, seed=2,
    ))
    return kept[0]


@pytest.fixture
def built_cluster(monkeypatch):
    return _small_run(monkeypatch, "ten")


def _stale_byte(cluster):
    """``(store, key, offset, stale)``: a byte a later update overwrote,
    and the different value the earlier update wrote there."""
    log = cluster.writes
    for first in range(len(log)):
        end = log.offset[first] + log.size[first]
        for later in range(first + 1, len(log)):
            lo = max(log.offset[first], log.offset[later])
            hi = min(end, log.offset[later] + log.size[later])
            if log.inode[later] != log.inode[first] or lo >= hi:
                continue
            stale = log.payload(first, lo - log.offset[first], hi - lo)
            pos = 0
            for ext in cluster.stripe_map.extents(log.inode[first], lo, hi - lo):
                key = ext.addr.key()
                store = cluster.osd_by_name(cluster.placement(*key[:2])[key[2]]).store
                got = store.peek(key)[ext.offset : ext.offset + ext.length]
                differ = np.flatnonzero(got != stale[pos : pos + ext.length])
                if differ.size:
                    at = int(differ[0])
                    return store, key, ext.offset + at, int(stale[pos + at])
                pos += ext.length
    raise AssertionError("no overwritten byte in this run")


def test_a_stale_writer_is_not_legal(built_cluster):
    """A byte put back to the payload of an update that a later acked
    update overwrote is rejected."""
    store, key, offset, stale = _stale_byte(built_cluster)
    got = int(store.peek(key)[offset])
    store.fold_xor(key, offset, np.array([stale ^ got], dtype=np.uint8))
    with pytest.raises(LostUpdateError) as err:
        hx.check_acked_bytes(built_cluster)
    assert (err.value.key, err.value.offset) == (key, offset)


@given(seed=st.integers(0, 2**32), pending=st.booleans(),
       size=st.integers(1, 9000), data=st.data())
@settings(max_examples=150, deadline=None)
def test_writelog_rederives_any_slice_of_a_payload(seed, pending, size, data):
    gen = np.random.default_rng(seed)
    if pending:
        gen.integers(0, 100)
    log = WriteLog()
    row = log.issue(log.source("w", gen), 1, 1000, 0, size, gen)
    whole = payload_bytes(gen, size)
    start = data.draw(st.integers(0, size - 1))
    n = data.draw(st.integers(1, size - start))
    assert np.array_equal(log.payload(row, start, n), whole[start : start + n])


def test_only_a_verified_byte_plane_run_records_its_updates():
    """``verify`` is the plane: on, bytes and a ``WriteLog``; off, the
    ghost plane and the null recorder."""
    byte = build_cluster(ExperimentConfig(n_osds=8, n_clients=1, updates_per_client=1))
    assert byte.config.ghost_dataplane is False and isinstance(byte.writes, WriteLog)
    ghost = build_cluster(ExperimentConfig(n_osds=8, verify=False))
    assert ghost.config.ghost_dataplane is True and ghost.writes is NO_WRITES


def test_a_ghost_scenario_is_an_unverified_config():
    assert scenario_config(ghost_dataplane=True).verify is False
    assert scenario_config().verify is True


def _flip_site(cluster, which):
    """A byte of a serially written block: one the run's last update wrote
    (``visible``), or one no update covers (must be zero) below a written
    byte of its block (``below``) or above all of them (``above``)."""
    log = cluster.writes
    last = len(log) - 1
    if which == "visible":
        ext = cluster.stripe_map.extents(log.inode[last], log.offset[last], log.size[last])[0]
        return ext.addr.key(), ext.offset
    covered = {}
    for row in range(len(log)):
        for ext in cluster.stripe_map.extents(log.inode[row], log.offset[row], log.size[row]):
            covered.setdefault(ext.addr.key(), set()).update(
                range(ext.offset, ext.offset + ext.length))
    if which == "above":
        end = cluster.config.block_size - 1
        return next((key, end) for key, offs in sorted(covered.items()) if end not in offs)
    return next((key, off) for key, offs in sorted(covered.items())
                for off in range(max(offs)) if off not in offs)


# Closed loop, a file per client: every block's writers are serial.  The
# "ali" run has a block written only above its start, the "ten" run one
# whose end no update reaches.
@pytest.mark.parametrize("trace, which", [("ali", "visible"), ("ali", "below"), ("ten", "above")])
def test_serial_blocks_and_the_per_byte_rule_name_the_same_byte(monkeypatch, trace, which):
    cluster = _small_run(monkeypatch, trace)
    key, offset = _flip_site(cluster, which)
    store = cluster.osd_by_name(cluster.placement(*key[:2])[key[2]]).store
    hold = hx._latest_writers_hold
    rejected = []
    monkeypatch.setattr(hx, "_latest_writers_hold",
                        lambda got, writers, log: hold(got, writers, log) or rejected.append(1))
    store.fold_xor(key, offset, np.array([0x5A], dtype=np.uint8))
    errors = []
    for serial in (hx._serial, lambda *args: False):
        monkeypatch.setattr(hx, "_serial", serial)
        with pytest.raises(LostUpdateError) as err:
            hx.check_acked_bytes(cluster)
        errors.append((err.value.key, err.value.offset, err.value.got, err.value.writers))
    assert rejected == [1]  # the serial check saw the block, and rejected it
    assert errors[0] == errors[1] and errors[0][:2] == (key, offset)
    store.fold_xor(key, offset, np.array([0x5A], dtype=np.uint8))
    hx.check_acked_bytes(cluster)
