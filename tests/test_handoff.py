"""Handoff at an empty instant (``repro.sim.core``).

An RPC handler's first step, its reply and a process's success handed to
its waiter fire in place when nothing else is pending at ``now``.  The
rule's unit tests drive the kernel directly; the differential tests run
model cells with the handoff on and forced off (every entry queued, the
old kernel) and require the same rows, the same per-client ack times and,
over the ledger slice, the same order of process steps.
"""

import pytest

from repro.fs.messages import RpcHost
from repro.harness import experiment
from repro.metrics.instructions import SLICE
from repro.net import NET_25GBE, Fabric
from repro.sim import Process, Simulator, core
from repro.workload import run_scenario

METHODS = ("fo", "fl", "pl", "plr", "parix", "cord", "tsue")


def _queued(sim):
    return len(sim._heap)


def _sleeper(value, delay=1.0):
    yield delay
    return value


def _joiner(child, order):
    order.append(("joined", (yield child)))


# ----------------------------------------------------------------------
# the rule
# ----------------------------------------------------------------------
def test_a_completion_at_an_empty_instant_resumes_its_joiner_in_place():
    sim = Simulator()
    order = []
    child = sim.process(_sleeper("v"))
    joiner = sim.process(_joiner(child, order))
    sim.step()  # child boot
    sim.step()  # joiner boot: it waits on the child
    sim.step()  # the child's wake: it returns, and the joiner runs in it
    assert child.fired and joiner.fired and order == [("joined", "v")]
    assert _queued(sim) == 0 and sim.events_fired == 3


def test_a_completion_queues_behind_a_heap_entry_at_now():
    sim = Simulator()
    order = []
    child = sim.process(_sleeper("v"))
    sim.process(_joiner(child, order))

    def other():
        yield 1.0  # a heap entry at t=1, behind the child's wake
        order.append("other")

    sim.process(other())
    while not child.triggered:
        sim.step()
    assert not child.fired  # queued: the heap's top is at now
    sim.run()
    assert order == ["other", ("joined", "v")]


def test_a_completion_queues_behind_an_immediate_entry():
    sim = Simulator()
    order = []
    early = sim.event()
    early.add_callback(lambda _ev: order.append("early"))

    def child():
        yield 1.0
        early.succeed()  # in the completing step: the heap's top is at now
        return "v"

    p = sim.process(child())
    sim.process(_joiner(p, order))
    while not p.triggered:
        sim.step()
    assert not p.fired
    sim.run()
    assert order == ["early", ("joined", "v")]


def test_a_failure_keeps_its_entry():
    sim = Simulator()
    caught = []

    def bad():
        yield 1.0
        raise ValueError("boom")

    def joiner(child):
        try:
            yield child
        except ValueError as err:
            caught.append(str(err))

    p = sim.process(bad())
    sim.process(joiner(p))
    while not p.triggered:
        sim.step()
    assert not p.fired and caught == []  # queued, though the instant is empty
    sim.run()
    assert caught == ["boom"]


def test_a_completion_inside_a_firing_with_later_callbacks_queues():
    sim = Simulator()
    order = []
    gate = sim.event()

    def first():
        yield gate
        return "v"

    def second():
        yield gate
        order.append("second")

    p = sim.process(first())
    sim.process(second())
    sim.process(_joiner(p, order))
    sim.call_at(1.0, gate.succeed)
    sim.run()
    # ``first`` returns in the gate's first callback at an empty instant,
    # but ``second`` is still to run in that firing: the joiner queues.
    assert order == ["second", ("joined", "v")]


def test_the_driven_event_keeps_its_entry_and_the_drive_leaves_the_rest_queued():
    sim = Simulator()
    p = sim.process(_sleeper("v"))
    started = []

    def late():
        started.append(sim.now)
        yield 0.0

    def joiner():
        yield p
        # Started inside the driven entry's firing: the drive returns first.
        Process(sim, late(), boot=False).boot()

    sim.process(joiner())
    assert sim.drive(p) == "v"
    assert started == [] and _queued(sim) == 1
    sim.run()
    assert started == [1.0]
    # A drive after it may hand off again.
    q = sim.process(_sleeper("w"))
    order = []
    sim.process(_joiner(q, order))
    assert sim.drive(q) == "w" and order == [("joined", "w")]


def test_a_drive_that_does_not_finish_leaves_handoff_open():
    sim = Simulator()
    never = sim.event()
    assert not sim.run_until_fired(never)
    never.succeed()
    sim.run()  # the drive's join is gone: this firing closes nothing
    assert never.fired and sim._depth == 0
    q = sim.process(_sleeper("w"))
    order = []
    sim.process(_joiner(q, order))
    sim.run()
    # ``never``, two boots and the child's wake: its completion is handed
    # to the joiner in place.
    assert order == [("joined", "w")] and sim.events_fired == 4


def test_a_500_deep_same_instant_chain_stays_off_the_stack():
    sim = Simulator()

    def link(child):
        value = yield child
        return value + 1

    p = sim.process(_sleeper(0))
    for _ in range(500):
        p = sim.process(link(p))
    sim.run()
    assert p.value == 500
    # 501 boots and one wake; the chain's completions queue once per
    # nesting cap instead of once per link.
    assert sim.events_fired == 502 + 500 // (core._HANDOFF_DEPTH + 1)


@pytest.mark.parametrize("handoff", [True, False])
def test_an_rpc_starts_its_handler_and_delivers_its_reply_in_place(
        declare, monkeypatch, handoff):
    if not handoff:
        monkeypatch.setattr(core, "_HANDOFF_DEPTH", 0)
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    a, b = RpcHost(sim, fab, "a"), RpcHost(sim, fab, "b")
    a.connect({"a": a, "b": b})
    b.connect({"a": a, "b": b})
    declare("echo", lambda x: 8)
    seen = []

    def echo(x):
        # The handler's first step: it is in flight before it runs.
        seen.append((list(b._inflight.values()), sim.active_process))
        yield 1e-6
        return x

    b.register("echo", echo)
    a.start()
    b.start()

    def caller():
        return (yield from a.rpc("b", "echo", (7,)))

    p = sim.process(caller())
    sim.run()
    assert p.value == 7
    [(inflight, handler)] = seen
    assert inflight == [handler] and handler.fired and b._inflight == {}
    # The caller's boot, two fabric legs each way and the handler's sleep;
    # queued, the handler's boot and the reply take an entry each.
    assert sim.events_fired == (6 if handoff else 8)


# ----------------------------------------------------------------------
# the differential test: handoff on vs every entry queued
# ----------------------------------------------------------------------
def _observed(built, name, method, seed, clients=None, requests=None):
    """The row, every client's ack times and the events of one cell;
    ``built`` collects the clusters ``build_cluster`` returns."""
    built.clear()
    res = run_scenario(name, seed=seed, method=method, n_clients=clients,
                       requests_per_client=requests)
    [cluster] = built
    acks = [
        (c.name, rec.name, rec.completion_times.tolist(), rec.latencies.tolist())
        for c in cluster.clients
        for rec in (c.update_latency, c.read_latency, c.degraded_read_latency)
    ]
    return res.to_dict(), acks, res.perf["events"]


CELLS = (
    [(name, method, 1, clients, requests) for name, method, clients, requests in SLICE]
    + [(name, method, seed, None, None)
       for name in ("rebuild_under_load", "lossy_cluster")
       for method in METHODS for seed in (1, 2)]
)


def test_handoff_changes_no_row_and_no_ack_time(monkeypatch):
    built = []
    build = experiment.build_cluster
    monkeypatch.setattr(experiment, "build_cluster",
                        lambda cfg: built.append(build(cfg)) or built[-1])
    on = [_observed(built, *cell) for cell in CELLS]
    monkeypatch.setattr(core, "_HANDOFF_DEPTH", 0)  # every entry queued
    off = [_observed(built, *cell) for cell in CELLS]
    for cell, (row, acks, events), (row0, acks0, events0) in zip(CELLS, on, off):
        assert row == row0, cell
        assert acks == acks0, cell
        assert events < events0, cell


def test_handoff_keeps_the_order_of_every_process_step(monkeypatch):
    """Stronger than equal rows: over the ledger slice, every process
    resumes at the same instant and in the same order, processes numbered
    in the order they were created."""
    born, steps = {}, []
    init, resume = core.Process.__init__, core.Process._resume

    def numbered(self, *args, **kwargs):
        born[id(self)] = (len(born), self)  # held, so no id is reused
        init(self, *args, **kwargs)

    def logged(self, event, exc):
        steps.append((self.sim.now, born[id(self)][0]))
        resume(self, event, exc)

    monkeypatch.setattr(core.Process, "__init__", numbered)
    monkeypatch.setattr(core.Process, "_resume", logged)

    def trace():
        born.clear()
        steps.clear()
        for name, method, clients, requests in SLICE:
            run_scenario(name, seed=1, method=method, n_clients=clients,
                         requests_per_client=requests)
        return list(steps)

    on = trace()
    monkeypatch.setattr(core, "_HANDOFF_DEPTH", 0)
    assert trace() == on

