"""Fast-path regression suite: kernel sleeps, resource fast paths, chunked
sample storage — and above all the determinism gates (bit-identical reruns,
fault scenarios included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logstruct.index import Segment, _covered_runs, _interval_union
from repro.metrics.latency import LatencyRecorder, SampleBuffer
from repro.sim import KeyedLock, Resource, Simulator
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
    """Immediate-queue events interleave with same-time heap events in
    strict (time, seq) order — the contract the heap bypass must keep."""
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
    # boot wake + float sleep wake + timeout event + process-completion
    # event = 4 transitions.
    assert sim.events_fired == 4


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
    assert buf.running_sum() == sum(vals)
    assert buf.max() == max(vals)
    other = SampleBuffer()
    other.extend(buf)  # bulk chunk-copy path
    assert list(other) == vals


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
    assert rec.mean() == sum(ref) / len(ref)
    import math

    data = sorted(ref)
    n = len(data)
    for q in (50.0, 95.0, 99.0, 0.0, 100.0):
        expect = data[min(n - 1, max(0, math.ceil(q / 100.0 * n) - 1))]
        assert rec.percentile(q) == expect
