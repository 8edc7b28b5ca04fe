"""Unit tests for the discrete-event kernel."""

import gc
import re
import weakref
from pathlib import Path

import pytest

from repro.sim import AllOf, AnyOf, Event, Interrupt, Simulator, Timeout, collector


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_fast_forwards_idle_clock():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    t = sim.timeout(5.0)
    t.add_callback(lambda ev: fired.append(sim.now))
    sim.run(until=3.0)
    assert sim.now == 3.0 and fired == []
    sim.run()
    assert fired == [5.0]


def test_step_on_idle_simulator_raises_clear_error():
    sim = Simulator()
    with pytest.raises(RuntimeError, match="no scheduled events"):
        sim.step()
    # Same after the heap drains mid-run, not just at construction.
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(RuntimeError, match="no scheduled events"):
        sim.step()


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 42 and sim.now == 1.0


def test_process_joins_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "done"

    def parent(sim):
        result = yield sim.process(child(sim))
        return (sim.now, result)

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == (3.0, "done")


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_value_and_double_trigger():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    with pytest.raises(RuntimeError):
        ev.succeed(8)
    sim.run()
    assert ev.value == 7


def test_event_fail_raises_in_waiter():
    sim = Simulator()

    def proc(sim, ev):
        try:
            yield ev
        except RuntimeError as e:
            return f"caught {e}"

    ev = sim.event()
    p = sim.process(proc(sim, ev))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_surfaces_in_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise ValueError("bug")

    sim.process(proc(sim))
    with pytest.raises(ValueError, match="bug"):
        sim.run()


def test_handled_process_exception_does_not_crash_run():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise ValueError("expected")

    def watcher(sim, target):
        try:
            yield target
        except ValueError:
            return "observed"

    target = sim.process(failing(sim))
    w = sim.process(watcher(sim, target))
    sim.run()
    assert w.value == "observed"


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc(sim):
        yield 5

    sim.process(proc(sim))
    with pytest.raises(TypeError, match="must yield Event"):
        sim.run()


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc(sim):
        vals = yield AllOf(sim, [sim.timeout(3.0, "c"), sim.timeout(1.0, "a")])
        return (sim.now, vals)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (3.0, ["c", "a"])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        vals = yield AllOf(sim, [])
        return (sim.now, vals)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (0.0, [])


def test_any_of_returns_first():
    sim = Simulator()

    def proc(sim):
        idx, val = yield AnyOf(sim, [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
        return (sim.now, idx, val)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (1.0, 1, "fast")


def test_interrupt_raises_inside_process():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            return ("interrupted", sim.now, i.cause)

    def attacker(sim, target):
        yield sim.timeout(2.0)
        target.interrupt(cause="failure")

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert v.value == ("interrupted", 2.0, "failure")


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)
        return "ok"

    p = sim.process(quick(sim))
    sim.run()
    p.interrupt()
    sim.run()
    assert p.value == "ok"


def test_call_at_runs_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_call_at_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_stale_wakeup_after_interrupt_is_ignored():
    sim = Simulator()
    hits = []

    def victim(sim):
        try:
            yield sim.timeout(1.0)
            hits.append("timeout")
        except Interrupt:
            yield sim.timeout(5.0)
            hits.append("post-interrupt")

    v = sim.process(victim(sim))
    v.interrupt()
    sim.run()
    # The original 1.0 timeout still fires but must not resume the process.
    assert hits == ["post-interrupt"]
    assert sim.now == 5.0


# ----------------------------------------------------------------------
# collector ownership: the kernel pauses the cyclic GC while it runs
# ----------------------------------------------------------------------
def _drive(sim, entry, proc):
    if entry == "run":
        sim.run()
    else:
        assert sim.run_until_fired(proc)


@pytest.mark.parametrize("caller_gc", [True, False], indirect=True)
@pytest.mark.parametrize("entry", ["run", "run_until_fired"])
def test_kernel_pauses_collector_and_restores_callers_state(caller_gc, entry):
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(gc.isenabled())
        yield 1.0
        seen.append(gc.isenabled())

    _drive(sim, entry, sim.process(proc(sim)))
    assert seen == [False, False]
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("caller_gc", [True, False], indirect=True)
@pytest.mark.parametrize("entry", ["run", "run_until_fired"])
def test_kernel_restores_collector_when_a_process_crashes(caller_gc, entry):
    sim = Simulator()

    def crashing(sim):
        yield 1.0
        raise ValueError("bug")

    def waiter(sim):
        yield 5.0

    sim.process(crashing(sim))  # detached: surfaces through sim._crashed
    with pytest.raises(ValueError, match="bug"):
        _drive(sim, entry, sim.process(waiter(sim)))
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("caller_gc", [True, False], indirect=True)
def test_kernel_restores_collector_on_every_other_exit(caller_gc):
    sim = Simulator()
    sim.timeout(5.0)
    sim.run(until=2.0)  # the early return inside the loop
    assert gc.isenabled() is caller_gc
    never = sim.event()
    assert sim.run_until_fired(never) is False  # queues drained
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("caller_gc", [True], indirect=True)
def test_nested_pause_restores_once_at_the_outermost_exit(caller_gc):
    sim = Simulator()
    sim.timeout(1.0)
    with collector.paused():
        sim.run()
        # The kernel's own exit found the collector already paused by its
        # caller and must leave it that way.
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with collector.paused():
                raise RuntimeError("inner")
        assert not gc.isenabled()
    assert gc.isenabled()


def _explicit_collections(fn):
    """Full collections started while ``fn`` runs."""
    starts = []

    def cb(phase, info):
        if phase == "start" and info["generation"] == 2:
            starts.append(gc.isenabled())

    gc.callbacks.append(cb)
    try:
        fn()
    finally:
        gc.callbacks.remove(cb)
    return starts


class _Node:
    pass


@pytest.mark.parametrize("caller_gc", [True], indirect=True)
@pytest.mark.parametrize("entry", ["run", "run_until_fired"])
def test_kernel_collects_on_its_event_cadence(monkeypatch, caller_gc, entry):
    monkeypatch.setattr(collector, "COLLECT_EVERY_EVENTS", 64)
    sim = Simulator()
    observed = {}

    def proc(sim):
        a, b = _Node(), _Node()
        a.other, b.other = b, a  # a cycle only the collector can free
        observed["ref"] = weakref.ref(a)
        del a, b
        # + boot, + the process's own completion when it is driven: run()
        # drives nothing, so the completion nobody joins is fired in place,
        # and a driven completion keeps its entry even at an otherwise
        # empty instant (the driver join takes no handoff).
        for i in range(998):
            if i == 200:
                # Three cadence points have passed, the loop is still
                # running, and automatic collection is off.
                observed["dead_mid_run"] = observed["ref"]() is None
            yield 1e-3

    p = sim.process(proc(sim))
    starts = _explicit_collections(lambda: _drive(sim, entry, p))
    assert sim.events_fired == {"run": 999, "run_until_fired": 1000}[entry]
    assert len(starts) >= 15
    assert not any(starts)  # every one ran under the pause: none automatic
    assert observed["dead_mid_run"] is True


@pytest.mark.parametrize("caller_gc", [True], indirect=True)
def test_cadence_counts_events_across_run_calls(monkeypatch, caller_gc):
    monkeypatch.setattr(collector, "COLLECT_EVERY_EVENTS", 64)
    sim = Simulator()

    def proc(sim):
        while True:
            yield 1.0

    sim.process(proc(sim))

    def many_short_runs():
        for t in range(1, 200):  # ~one event per call
            sim.run(until=float(t) + 0.5)

    starts = _explicit_collections(many_short_runs)
    assert len(starts) == sim.events_fired // 64 >= 3


def test_collector_has_one_owner_in_src():
    """No collector call outside repro/sim/collector.py, no knob to set it."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    stray = re.compile(
        r"\bgc\.(enable|disable|collect|freeze|unfreeze|set_threshold|set_debug)\b"
        r"|from gc import"
    )
    offenders = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src) != Path("sim/collector.py")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if stray.search(line)
    ]
    assert offenders == []
    # The cadence is a constant of the one owner, not configuration.
    assert collector.COLLECT_EVERY_EVENTS == 1 << 20
    assert "environ" not in (src / "sim" / "collector.py").read_text()
