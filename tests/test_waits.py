"""Every wait is a subscription: ``repro.sim.events.wait_until`` on a ``Notifier``.

A fenced, migration-fenced or quiescing op resumes at the instant the
state it waits on changes (``mark_up``, the stripe's unfence, the last
in-flight op's end), to the float, not on a poll grid; a wait whose
condition already holds takes no event; and a lost notification surfaces
as the wait's budget error, not a hang.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.fs.client import Client
from repro.fs.messages import HostDownError
from repro.recovery import fail_osd, rebalance_join, restore_osd
from repro.sim import Simulator
from repro.sim.events import Notifier, wait_until
from repro.update import make_strategy_factory
from repro.workload import run_scenario

K, M, BLOCK = 4, 2, 2048
INODE = 600


def build(stripes=4):
    sim = Simulator()
    cluster = Cluster(
        sim,
        ClusterConfig(n_osds=8, k=K, m=M, block_size=BLOCK, seed=13,
                      client_overhead_s=0.0),
        make_strategy_factory("fo"),
    )
    rng = np.random.default_rng(1)
    cluster.instant_load_file(
        INODE, rng.integers(0, 256, stripes * K * BLOCK, dtype=np.uint8))
    client = cluster.add_client("c0")
    cluster.start()
    return sim, cluster, client


def run_to(sim, proc):
    while not proc.fired:
        sim.step()
    return proc.value


def update(client, stripe):
    payload = np.full(256, 7, dtype=np.uint8)
    return client.sim.process(client.update(INODE, stripe * K * BLOCK + 64, payload))


def spy_resumes(monkeypatch, name):
    """Record ``(returned, sim.now)`` each time ``Client.<name>`` returns."""
    resumed = []
    wait = getattr(Client, name)

    def spy(self, inode, stripes):
        out = yield from wait(self, inode, stripes)
        resumed.append((out, self.sim.now))
        return out

    monkeypatch.setattr(Client, name, spy)
    return resumed


# ----------------------------------------------------------------------
# the primitive
# ----------------------------------------------------------------------
def test_a_holding_condition_takes_no_event_and_an_early_change_is_not_missed():
    sim = Simulator()
    feed = Notifier(sim)
    state = {"ok": True}
    gen = wait_until(lambda: state["ok"], feed, 1.0, "never")
    with pytest.raises(StopIteration) as done:
        next(gen)
    assert done.value.value is False and sim.peek() == float("inf")

    # The change lands (and is notified to nobody) before the wait starts:
    # the wait re-checks first and returns at once.
    state["ok"] = False
    sim.call_at(0.25, lambda: (state.update(ok=True), feed.notify()))
    sim.run(until=0.5)
    proc = sim.process(wait_until(lambda: state["ok"], feed, 1.0, "never"))
    assert run_to(sim, proc) is False and sim.now == 0.5


def test_the_wait_wakes_at_the_change_and_its_budget_is_one_deadline():
    sim = Simulator()
    feed = Notifier(sim)
    state = {"n": 0}

    def bump():
        state["n"] += 1
        feed.notify()

    for t in (0.1, 0.2, 0.3):
        sim.call_at(t, bump)
    woke = sim.process(wait_until(lambda: state["n"] >= 2, feed, 1.0, "two bumps"))
    assert run_to(sim, woke) is True and sim.now == 0.2

    # Notified changes that never satisfy the condition do not stretch the
    # budget: the error fires at start + budget and names the wait.
    never = sim.process(wait_until(lambda: False, feed, 0.5, "the impossible"))
    with pytest.raises(TimeoutError, match="the impossible: gave up after 0.5s"):
        run_to(sim, never)
    assert sim.now == pytest.approx(0.7)


def test_a_wait_that_ends_before_its_deadline_takes_its_timer_off_the_heap():
    sim = Simulator()
    feed = Notifier(sim)
    state = {"ok": False}
    proc = sim.process(wait_until(lambda: state["ok"], feed, 60.0, "the change"))
    sim.run(until=0.25)
    assert len(sim._heap) == 1  # the wait's 60 s timer
    state["ok"] = True
    feed.notify()
    assert run_to(sim, proc) is True and sim.now == 0.25
    assert len(sim._heap) == 0
    sim.run()
    assert sim.now == 0.25  # not the 60.25 s deadline

    # An interrupt thrown into the wait ends it the same way.
    stopped = sim.process(wait_until(lambda: False, feed, 60.0, "never"))
    sim.run(until=0.5)
    stopped.interrupt("stop")
    sim.run()
    assert stopped.fired and sim.now == 0.5 and len(sim._heap) == 0


# ----------------------------------------------------------------------
# resume instants: at the change, not on a poll grid
# ----------------------------------------------------------------------
def test_a_fenced_update_resumes_at_the_mark_up_instant(monkeypatch):
    resumed = spy_resumes(monkeypatch, "_fence_wait")
    sim, cluster, client = build()
    victim = cluster.placement(INODE, 0)[0]
    fail_osd(cluster, victim, mode="stop")
    marked = []

    def heal():
        restore_osd(cluster, victim)
        marked.append(sim.now)

    sim.call_at(sim.now + 3.1415926e-3, heal)
    run_to(sim, update(client, 0))
    assert resumed == [(True, marked[0])]
    assert client.fenced_updates == 1
    cluster.stop()


def _moving_stripe(cluster, joiner):
    ring = cluster.ring + [joiner]
    return next(s for s in range(4)
                if cluster.placement(INODE, s) != cluster.placement_on(ring, INODE, s))


def test_a_migration_fenced_update_resumes_at_its_unfence_instant(monkeypatch):
    resumed = spy_resumes(monkeypatch, "_migration_wait")
    gates = []
    consistent = Cluster.stripe_consistent

    def gate(self, inode, stripe):
        gates.append((stripe, self.sim.now))
        return consistent(self, inode, stripe)

    monkeypatch.setattr(Cluster, "stripe_consistent", gate)
    sim, cluster, client = build()
    joiner = cluster.add_osd().name
    stripe = _moving_stripe(cluster, joiner)
    rebalance = sim.process(rebalance_join(cluster, joiner))
    while (INODE, stripe) not in cluster.migrating_stripes:
        sim.step()
    op = update(client, stripe)
    run_to(sim, rebalance)
    run_to(sim, op)
    # The post-flip gate runs in the step that lifts the fence.
    unfenced = [t for s, t in gates if s == stripe][-1]
    assert resumed == [(None, unfenced)]
    cluster.stop()


def test_a_quiesce_ends_when_the_stripe_refcount_reaches_zero(monkeypatch):
    import repro.harness.experiment as experiment

    ended, drains = [], []
    note_ops_end = Cluster.note_ops_end

    def spy_end(self, inode, stripes):
        note_ops_end(self, inode, stripes)
        ended.append((sorted(stripes), self.sim.now))

    drain_all = experiment.drain_all

    def spy_drain(cluster):
        drains.append(cluster.sim.now)
        return (yield from drain_all(cluster))

    monkeypatch.setattr(Cluster, "note_ops_end", spy_end)
    monkeypatch.setattr(experiment, "drain_all", spy_drain)
    sim, cluster, client = build()
    joiner = cluster.add_osd().name
    stripe = _moving_stripe(cluster, joiner)
    op = update(client, stripe)
    while cluster.stripe_quiesced((INODE, stripe)):
        sim.step()
    rebalance = sim.process(rebalance_join(cluster, joiner))
    run_to(sim, op)
    run_to(sim, rebalance)
    # The quiesce ends, and the first stripe's drain starts, in the step
    # that ended the in-flight update.
    assert ended == [([stripe], drains[0])]
    cluster.stop()


@pytest.mark.parametrize("degrades", [False, True], ids=["update", "read"])
def test_a_retry_whose_host_was_marked_up_first_does_not_yield(degrades):
    sim, cluster, client = build()
    name = cluster.placement(INODE, 0)[0]
    cluster.mark_down(name)
    cluster.mark_up(name)
    attempts = []

    def attempt():
        attempts.append(sim.now)
        if len(attempts) == 1:
            raise HostDownError(name)
        return "done"
        yield  # pragma: no cover - a generator, as every attempt is

    with pytest.raises(StopIteration) as done:
        next(client._retry_downed(attempt, "update_retries", degrades, None))
    assert done.value.value == "done"
    assert attempts == [0.0, 0.0] and client.update_retries == 1
    cluster.stop()


def test_a_crash_racing_an_update_counts_it_once_retried_and_once_fenced():
    """The retry waits for the heal, so the update was fenced there, not in
    its next attempt's fence check; it counts once either way."""
    from repro.recovery import recover_node

    sim, cluster, client = build()
    primary = cluster.osd_by_name(cluster.osd_of_block(INODE, 0, 0))
    op = update(client, 0)
    while not primary._inflight:
        sim.step()
    fail_osd(cluster, primary.name, mode="crash")
    recover_node(cluster, primary.name, repair=True)
    run_to(sim, op)
    assert client.update_retries == 1 and client.fenced_updates == 1
    cluster.stop()


# ----------------------------------------------------------------------
# a lost notification is a budget error, not a hang
# ----------------------------------------------------------------------
def test_a_dropped_mark_up_notification_raises_the_fence_budget_error(monkeypatch):
    """The mutant of ``docs/lint_audit.md`` row K1: ``mark_up`` clears the
    down mark without notifying.  The fenced clients never wake, and the
    heartbeats keep the queue non-empty, so only the budget ends the run."""
    mark_up = Cluster.mark_up

    def silent(self, name):
        feed, self.down_changed = self.down_changed, Notifier(self.sim)
        try:
            mark_up(self, name)
        finally:
            self.down_changed = feed

    monkeypatch.setattr(Cluster, "mark_up", silent)
    monkeypatch.setattr(Client, "FENCE_BUDGET_S", 0.05)
    with pytest.raises(
        TimeoutError,
        match=r"client\d+: stripes \[[\d, ]+\] of inode \d+ fenced .*gave up after 0\.05s",
    ):
        run_scenario("rebuild_under_load", seed=1, n_clients=2,
                     requests_per_client=40, method="tsue")
