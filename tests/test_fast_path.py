"""Fast-path regression suite: kernel sleeps, resource fast paths, array
sample storage — and above all the determinism gates (bit-identical reruns,
fault scenarios included).
"""

from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logstruct.index import Segment, _covered_runs, _interval_union
from repro.metrics.latency import LatencyRecorder, SampleBuffer
from repro.sim import AllOf, KeyedLock, Resource, Simulator
from repro.sim.core import At
from repro.workload import run_scenario


# ----------------------------------------------------------------------
# kernel: float sleeps, At sleeps, immediate queue ordering
# ----------------------------------------------------------------------
def test_float_yield_sleeps_without_event():
    sim = Simulator()

    def proc():
        yield 1.5
        yield 0.0  # immediate-queue hop, still a valid sleep
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 1.5


def test_sim_sleep_validates_and_sleeps():
    sim = Simulator()

    def proc():
        yield sim.sleep(2)  # int coerced to float by the public helper
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == 2.0
    with pytest.raises(ValueError, match="negative sleep"):
        sim.sleep(-0.1)


def test_int_yield_is_still_a_type_error():
    sim = Simulator()

    def proc():
        yield 5

    sim.process(proc())
    with pytest.raises(TypeError, match="must yield Event"):
        sim.run()


def test_negative_float_sleep_fails_the_process():
    sim = Simulator()

    def proc():
        yield -1.0

    sim.process(proc())
    with pytest.raises(ValueError, match="negative sleep"):
        sim.run()


def test_at_wakes_at_exact_absolute_time():
    sim = Simulator()

    def proc():
        yield At(2.5)
        return sim.now

    p = sim.process(proc())
    sim.run()
    # The exact float, not now + (2.5 - now).
    assert p.value == 2.5


def test_at_in_the_past_fails_the_process():
    sim = Simulator()

    def proc():
        yield 1.0
        yield At(0.5)

    sim.process(proc())
    with pytest.raises(ValueError, match="in the past"):
        sim.run()


def test_mixed_zero_delay_and_timer_ordering_is_time_seq():
    """Zero-delay entries and same-time timer entries fire in strict
    (time, seq) order: one heap keeps it by construction, and any second
    queue for zero-delay entries would have to keep it too."""
    sim = Simulator()
    order = []

    def a():
        yield sim.timeout(1.0)
        order.append("timer")

    def b():
        yield 1.0
        order.append("sleep")
        ev = sim.event()
        ev.succeed()
        yield ev
        order.append("zero-delay")

    sim.process(a())  # scheduled first -> smaller seq at t=1.0
    sim.process(b())
    sim.run()
    assert order == ["timer", "sleep", "zero-delay"]


def test_interrupt_during_float_sleep_discards_stale_wake():
    from repro.sim import Interrupt

    sim = Simulator()
    hits = []

    def victim():
        try:
            yield 1.0
            hits.append("slept")
        except Interrupt:
            yield 5.0
            hits.append("post-interrupt")

    v = sim.process(victim())
    v.interrupt()
    sim.run()
    assert hits == ["post-interrupt"]
    assert sim.now == 5.0


def test_events_fired_counter_counts_transitions():
    sim = Simulator()

    def proc():
        yield 1.0
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    # boot wake + float sleep wake + timeout event = 3 transitions; nobody
    # joins the process, so its completion is fired in place.
    assert sim.events_fired == 3


# ----------------------------------------------------------------------
# kernel: quiet completions (a completion that resumes nobody is not queued)
# ----------------------------------------------------------------------
def _queued(sim):
    return len(sim._heap)


def _sleeper(value, delay=1.0):
    yield delay
    return value


def test_unjoined_completion_takes_no_queue_entry():
    sim = Simulator()
    p = sim.process(_sleeper("v"))
    sim.step()  # boot
    sim.step()  # the sleep's wake: the generator returns
    assert p.fired and p.value == "v"
    assert _queued(sim) == 0
    assert sim.events_fired == 2


def test_joined_completion_keeps_its_slot_behind_earlier_same_instant_events():
    sim = Simulator()
    order = []
    early = sim.event()
    early.add_callback(lambda _ev: order.append("early"))

    def trigger():
        yield 1.0
        early.succeed()  # queued at t=1 before the child completes

    def joiner(child):
        value = yield child
        order.append(("joined", value))

    sim.process(trigger())
    child = sim.process(_sleeper("v"))
    sim.process(joiner(child))
    sim.run()
    # The completion is queued behind ``early``: the joiner does not resume
    # inside the child's own step.
    assert order == ["early", ("joined", "v")]


def test_all_of_counts_non_final_children_in_place_and_hands_off_the_final():
    sim = Simulator()
    a, b = sim.process(_sleeper("a", 1.0)), sim.process(_sleeper("b", 2.0))
    both = AllOf(sim, [a, b])
    sim.run(until=1.5)
    assert a.fired and not b.triggered
    assert both._n_fired == 1 and not both.triggered
    assert _queued(sim) == 1  # only b's sleep wake
    sim.step()  # b's wake: b returns at an otherwise empty instant ...
    # ... and hands its success to the AllOf in place, which fires in
    # place too: its last child reported from a firing.
    assert b.fired and both.fired and both.value == ["a", "b"]
    assert _queued(sim) == 0
    # 2 boots + 2 sleep wakes: neither b's completion nor the AllOf took one.
    assert sim.events_fired == 4


def test_all_of_queues_a_child_whose_sibling_is_triggered_but_unfired():
    sim = Simulator()
    sibling = sim.event()

    def trigger():
        yield 1.0
        sibling.succeed("s")  # queued at t=1, fires after p completes

    sim.process(trigger())
    p = sim.process(_sleeper("p"))
    both = AllOf(sim, [p, sibling])
    while not p.triggered:
        sim.step()
    # Counting p in place would let the sibling's earlier entry fire the
    # AllOf ahead of where p's entry puts it.
    assert not p.fired
    sim.run()
    assert both.value == ["p", "s"]


def test_all_of_still_fails_through_a_queued_failing_child():
    sim = Simulator()

    def bad():
        yield 1.0
        raise ValueError("child failed")

    p_bad, p_good = sim.process(bad()), sim.process(_sleeper("g", 2.0))
    both = AllOf(sim, [p_bad, p_good])
    caught = []

    def waiter():
        try:
            yield both
        except ValueError as err:
            caught.append((sim.now, str(err)))

    sim.process(waiter())
    while not p_bad.triggered:
        sim.step()
    assert not p_bad.fired  # failures are never fired in place
    sim.run()
    assert caught == [(1.0, "child failed")]


@pytest.mark.parametrize("entry", ["run", "run_until_fired"])
def test_the_driven_event_keeps_its_slot(entry):
    sim = Simulator()
    p = sim.process(_sleeper("v"))
    if entry == "run":
        sim.run()
    else:
        assert sim.run_until_fired(p)
    assert p.value == "v"
    # boot + wake, + the completion only when a driver joins it.
    assert sim.events_fired == {"run": 2, "run_until_fired": 3}[entry]
    assert _queued(sim) == 0


@pytest.mark.parametrize("joined", [False, True])
def test_an_interrupt_exit_follows_the_same_rule(joined):
    sim = Simulator()
    victim = sim.process(_sleeper("v", 10.0))

    def joiner():
        yield victim

    if joined:
        j = sim.process(joiner())
    victim.interrupt("crash")
    while victim.is_alive:
        sim.step()
    # Unhandled Interrupt is a clean exit with value None: quiet when nobody
    # joins, handed to the joiner in place at this otherwise empty instant
    # (the stale sleep wake is at t=10).
    assert victim.fired and victim._value is None
    assert not joined or (j.fired and sim.now == 0.0)
    sim.run()
    assert sim.now == 10.0  # the stale sleep wake drains


# ----------------------------------------------------------------------
# Resource / KeyedLock: synchronous uncontended acquire
# ----------------------------------------------------------------------
def test_try_acquire_takes_free_slot_and_respects_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire() and res.try_acquire()
    assert res.in_use == 2
    assert not res.try_acquire()
    res.release()
    assert res.in_use == 1


def _use(res, duration):
    """Hold one slot for ``duration`` the way the iodepth slots are taken:
    synchronously when free, through the FIFO queue otherwise."""
    if not res.try_acquire():
        yield res.request()
    yield float(duration)
    res.release()


def test_use_fifo_order_preserved_under_contention():
    """Waiters queue FIFO behind try_acquire holders and each other."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(i, delay):
        yield sim.timeout(delay)
        t0 = sim.now
        yield from _use(res, 1.0)
        spans.append((i, t0, sim.now))

    for i, d in enumerate((0.0, 0.1, 0.2)):
        sim.process(worker(i, d))
    sim.run()
    assert [s[0] for s in spans] == [0, 1, 2]
    assert [s[2] for s in spans] == [1.0, 2.0, 3.0]
    assert res.in_use == 0 and res.queue_len == 0


def test_use_queue_accounting_under_contention():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def probe():
        yield sim.timeout(1.0)
        assert res.in_use == 1
        assert res.queue_len == 1  # the second holder is queued

    sim.process(_use(res, 5.0))
    sim.process(_use(res, 5.0))
    sim.process(probe())
    sim.run()
    assert res.in_use == 0 and res.queue_len == 0


def test_keyedlock_try_acquire_accounting_matches_acquire():
    sim = Simulator()
    lock = KeyedLock(sim)
    assert lock.try_acquire("k", "h1")
    assert lock.acquisitions == 1 and lock.wait_times == [0.0]
    assert not lock.try_acquire("k", "h2")
    with pytest.raises(RuntimeError, match="not re-entrant"):
        lock.try_acquire("k", "h1")
    lock.release("k", "h1")
    assert not lock.held("k")


# ----------------------------------------------------------------------
# determinism regression: bit-identical scenario reruns
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["steady", "hot_stripe", "rebuild_under_load", "lossy_cluster"]
)
def test_scenario_rerun_is_bit_identical(name):
    a = run_scenario(name, n_clients=2, requests_per_client=50, method="fo")
    b = run_scenario(name, n_clients=2, requests_per_client=50, method="fo")
    da, db = a.to_dict(), b.to_dict()
    assert da == db
    # Wall-clock measurement must never leak into the deterministic row.
    assert "wall_s" not in da and "perf" not in da
    assert a.perf is not None and a.perf["events"] == b.perf["events"]


def test_scale_up_scenario_native_and_overridden_sizes():
    from repro.workload.scenarios import SCENARIOS

    sc = SCENARIOS["scale_up"]
    assert sc.default_clients >= 32 and sc.default_requests >= 2000
    # Explicit scale always wins (CI smokes shrink it like any other row).
    res = run_scenario("scale_up", n_clients=2, requests_per_client=20)
    assert res.n_clients == 2
    assert res.updates + res.reads == 40
    assert res.consistent


# ----------------------------------------------------------------------
# helpers: interval union, sample buffer
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 12)), min_size=0, max_size=6
    ),
    st.integers(0, 60),
    st.integers(1, 12),
)
@settings(max_examples=200, deadline=None)
def test_interval_union_matches_bitmap_reference(old, noff, nlen):
    # Build a disjoint, sorted, non-adjacent segment list the way the
    # index maintains it: insert ranges into a coverage bitmap and read
    # maximal runs back.
    cover = np.zeros(96, dtype=bool)
    for off, ln in old:
        cover[off : off + ln] = True
    base_runs = _covered_runs(cover)
    segs = [Segment(a, np.zeros(b - a, dtype=np.uint8)) for a, b in base_runs]
    # The candidate group the merge would select: overlapping-or-adjacent.
    group = [s for s in segs if s.offset <= noff + nlen and s.end >= noff]
    if not group:
        return  # _merge_into only calls with a non-empty group
    cover2 = np.zeros(96, dtype=bool)
    for s in group:
        cover2[s.offset : s.end] = True
    cover2[noff : noff + nlen] = True
    lo = min(group[0].offset, noff)
    expect = [(a - lo, b - lo) for a, b in _covered_runs(cover2)]
    got = _interval_union(group, noff - lo, noff + nlen - lo, lo)
    assert got == expect


def test_sample_buffer_behaves_like_a_list():
    buf = SampleBuffer()
    assert len(buf) == 0 and not buf
    vals = [float(i) * 0.1 for i in range(10000)]
    for v in vals[:5000]:
        buf.append(v)
    buf.extend(vals[5000:])
    assert len(buf) == len(vals)
    assert list(buf) == vals
    assert buf[0] == vals[0] and buf[-1] == vals[-1]
    other = SampleBuffer()
    other.extend(buf)  # the pooled-recorder path
    assert list(other) == vals and other.to_array().tolist() == vals


def test_latency_recorder_matches_list_semantics_exactly():
    import random

    rng = random.Random(7)
    samples = [rng.random() * 1e-3 for _ in range(4097)]
    rec = LatencyRecorder("t")
    ref = []
    t = 0.0
    for s in samples:
        t += s
        rec.record(t, s)
        ref.append(s)
    assert rec.mean() == reduce(add, ref, 0.0) / len(ref)
    import math

    data = sorted(ref)
    n = len(data)
    for q in (50.0, 95.0, 99.0, 0.0, 100.0):
        expect = data[min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))]
        assert rec.percentile(q) == expect


def test_every_queued_process_completion_resumes_someone(monkeypatch):
    """The regression gate of quiet completions, over the model's paths:
    ``steady`` on all seven methods plus a crash -> rebuild and a lossy
    fabric on TSUE.  Every process completion that is fired through the
    queue wakes something: a joining process, a condition it completes or
    fails, or the driver of ``run_until_fired``.  And no RPC handler is
    left in a host's in-flight table."""
    from repro.fs.messages import RpcHost
    from repro.sim.core import Process, _driver_join
    from repro.sim.events import _Condition

    idle, hosts = [], []
    fire, init = Process._fire, RpcHost.__init__

    def checked_fire(self):
        waiting = list(self.callbacks or ())
        open_conditions = [cb for cb in waiting
                           if isinstance(cb, _Condition) and not cb.triggered]
        fire(self)
        if not (any(isinstance(cb, Process) or cb is _driver_join for cb in waiting)
                or any(cond.triggered for cond in open_conditions)):
            idle.append(self.name)

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        hosts.append(self)

    monkeypatch.setattr(Process, "_fire", checked_fire)
    monkeypatch.setattr(RpcHost, "__init__", recorded_init)
    cells = [("steady", m) for m in ("fo", "pl", "plr", "parix", "cord", "fl", "tsue")]
    cells += [("rebuild_under_load", "tsue"), ("lossy_cluster", "tsue")]
    for name, method in cells:
        res = run_scenario(name, seed=1, method=method)
        assert res.consistent
        assert idle == [], f"{name}/{method}: completions queued for nobody"
        assert [h.name for h in hosts if h._inflight] == [], f"{name}/{method}"
        hosts.clear()
