"""Per-stripe update serialization: KeyedLock units + strategy properties.

The unit half exercises :class:`repro.sim.resources.KeyedLock` directly
(FIFO ordering, reentrancy rejection, wait-time accounting).  The property
half drives pipelined concurrent same-stripe updates through every update
method and asserts the post-drain parity-consistency the locks exist to
guarantee.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.harness.experiment import drain_all
from repro.sim import AllOf, KeyedLock, Simulator
from repro.update import STRATEGIES, make_strategy_factory

K, M, BLOCK = 3, 2, 512
FILE = 2 * K * BLOCK

IN_PLACE = ("fo", "pl", "plr", "parix", "cord")
LOG_STRUCTURED = ("fl", "tsue")


# ----------------------------------------------------------------------
# KeyedLock units
# ----------------------------------------------------------------------
def test_keyed_lock_uncontended_grant_is_immediate():
    sim = Simulator()
    lock = KeyedLock(sim, name="t")
    holder = object()
    ev = lock.acquire("k", holder)
    assert ev.triggered
    assert lock.held("k") and lock.holder("k") is holder
    assert lock.acquisitions == 1 and lock.contended == 0
    assert lock.wait_times == [0.0]
    lock.release("k", holder)
    assert not lock.held("k") and lock.keys_held == 0


def test_keyed_lock_fifo_ordering():
    sim = Simulator()
    lock = KeyedLock(sim, name="t")
    order = []

    def worker(i, delay, hold):
        yield sim.timeout(delay)
        token = ("w", i)
        yield lock.acquire("stripe", token)
        order.append(i)
        yield sim.timeout(hold)
        lock.release("stripe", token)

    # Request order 0, 1, 2 (staggered arrivals, long holds force queueing).
    sim.process(worker(0, 0.0, 3.0))
    sim.process(worker(1, 0.1, 1.0))
    sim.process(worker(2, 0.2, 1.0))
    sim.run()
    assert order == [0, 1, 2]
    assert lock.acquisitions == 3
    assert lock.contended == 2
    assert lock.keys_held == 0


def test_keyed_lock_independent_keys_do_not_contend():
    sim = Simulator()
    lock = KeyedLock(sim, name="t")
    starts = []

    def worker(key, i):
        token = ("w", key, i)
        yield lock.acquire(key, token)
        starts.append((key, sim.now))
        yield sim.timeout(1.0)
        lock.release(key, token)

    sim.process(worker("a", 0))
    sim.process(worker("b", 0))
    sim.run()
    assert starts == [("a", 0.0), ("b", 0.0)]
    assert lock.contended == 0


def test_keyed_lock_rejects_reentrant_acquire():
    sim = Simulator()
    lock = KeyedLock(sim, name="t")
    holder = object()
    lock.acquire("k", holder)
    with pytest.raises(RuntimeError, match="not re-entrant"):
        lock.acquire("k", holder)
    # A queued holder re-requesting is rejected too.
    waiter = object()
    lock.acquire("k", waiter)
    with pytest.raises(RuntimeError, match="already waiting"):
        lock.acquire("k", waiter)


def test_keyed_lock_rejects_release_by_non_holder():
    sim = Simulator()
    lock = KeyedLock(sim, name="t")
    holder = object()
    with pytest.raises(RuntimeError, match="non-holder"):
        lock.release("k", holder)
    lock.acquire("k", holder)
    with pytest.raises(RuntimeError, match="non-holder"):
        lock.release("k", object())


def test_keyed_lock_wait_time_accounting():
    sim = Simulator()
    lock = KeyedLock(sim, name="t")
    waits_seen = []

    def holder_proc():
        token = "holder"
        yield lock.acquire("k", token)
        yield sim.timeout(2.5)
        lock.release("k", token)

    def waiter_proc():
        token = "waiter"
        yield sim.timeout(1.0)  # request at t=1, grant at t=2.5
        yield lock.acquire("k", token)
        waits_seen.append(sim.now)
        lock.release("k", token)

    sim.process(holder_proc())
    sim.process(waiter_proc())
    sim.run()
    assert waits_seen == [2.5]
    assert lock.wait_times == [0.0, pytest.approx(1.5)]
    assert lock.acquisitions == 2 and lock.contended == 1


# ----------------------------------------------------------------------
# strategy integration
# ----------------------------------------------------------------------
def _build(method, seed=3):
    sim = Simulator()
    params = (
        dict(unit_bytes=2048, flush_age=0.005, flush_interval=0.002)
        if method == "tsue"
        else {}
    )
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=6, k=K, m=M, block_size=BLOCK, seed=seed,
                      client_overhead_s=0.0),
        make_strategy_factory(method, **params),
    )
    cluster.register_sparse_file(1, FILE)
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client


def _run_to(sim, proc):
    while not proc.fired and sim.peek() != float("inf"):
        sim.step()
    assert proc.fired
    return proc.value


def _run_pipelined(method, updates):
    """Issue every update concurrently (full pipelining), then drain."""
    sim, cluster, client = _build(method)

    def driver():
        procs = []
        for off, size, fill in updates:
            size = min(size, FILE - off)
            payload = np.full(size, fill, dtype=np.uint8)
            procs.append(client.submit_update(1, off, payload))
        yield AllOf(sim, procs)

    _run_to(sim, sim.process(driver()))
    _run_to(sim, sim.process(drain_all(cluster)))
    cluster.stop()
    return cluster


# Offsets biased into stripe 0 so concurrent same-block overlap (the race
# the per-stripe locks close) is drawn often.
updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=K * BLOCK - 1),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=2,
    max_size=12,
)


@pytest.mark.parametrize("method", sorted(STRATEGIES))
@settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(updates_strategy)
def test_pipelined_same_stripe_updates_stay_consistent(method, updates):
    cluster = _run_pipelined(method, updates)
    for s in range(2):
        assert cluster.stripe_consistent(1, s)


@pytest.mark.parametrize("method", sorted(STRATEGIES))
def test_hammering_one_offset_stays_consistent(method):
    """The maximal race: many concurrent updates of the exact same bytes."""
    updates = [(64, 200, fill) for fill in range(10)]
    cluster = _run_pipelined(method, updates)
    for s in range(2):
        assert cluster.stripe_consistent(1, s)
    acq = sum(o.stripe_locks.acquisitions for o in cluster.osds)
    contended = sum(o.stripe_locks.contended for o in cluster.osds)
    if method in IN_PLACE:
        # Every update serialized through one stripe's lock, and the
        # concurrent issues genuinely queued behind each other.
        assert acq == len(updates)
        assert contended > 0
        assert max(
            w for o in cluster.osds for w in o.stripe_locks.wait_times
        ) > 0.0
    else:
        # Log-structured appends commute: no locks taken, ever.
        assert acq == 0 and contended == 0


def test_active_process_tracks_the_stepping_process():
    sim = Simulator()
    seen = []

    def proc():
        seen.append(sim.active_process)
        yield sim.timeout(1.0)
        seen.append(sim.active_process)

    p = sim.process(proc())
    assert sim.active_process is None
    sim.run()
    assert seen == [p, p]
    assert sim.active_process is None


def test_nested_serialize_stripe_raises_instead_of_deadlocking():
    """A double-wrap on the same stripe would self-deadlock; the running
    process is the holder token, so the inner acquire must trip the
    KeyedLock reentrancy check instead of queueing behind itself."""
    sim, cluster, client = _build("fo")
    strat = cluster.osds[0].strategy
    key = (1, 0, 0)

    def nested():
        inner = strat.rmw_forward_locked(key, 0, np.zeros(4, dtype=np.uint8),
                                         "parity_apply")
        yield from strat.serialize_stripe(key, strat.serialize_stripe(key, inner))

    proc = sim.process(nested())
    with pytest.raises(RuntimeError, match="not re-entrant"):
        while not proc.fired and sim.peek() != float("inf"):
            sim.step()
        proc.value
    cluster.stop()


def test_serializes_stripes_flags():
    for name in IN_PLACE:
        assert STRATEGIES[name].serializes_stripes is True
    for name in LOG_STRUCTURED:
        assert STRATEGIES[name].serializes_stripes is False
