"""Handoff at an empty instant (``repro.sim.core``).

An RPC handler's first step, its reply, a process's success handed to its
waiter, a fan-out's batch of starts and an ``AllOf``'s success fire in
place when nothing else is pending at ``now``.  The rule's unit tests drive
the kernel directly; the differential tests run model cells with the
handoff on and forced off (every entry queued, the old kernel) and require
the same rows, the same per-client ack times and, over the ledger slice,
the same order of process steps.  The first draft of the batch start is
kept as a mutant that the step-order differential must catch.
"""

import pytest

from repro.fs.messages import RpcHost
from repro.harness import experiment
from repro.metrics.instructions import SLICE
from repro.net import NET_25GBE, Fabric
from repro.sim import AllOf, Interrupt, Process, Simulator, core
from repro.sim.events import HANDOFF_CLOSED
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
        sim.start(Process(sim, late(), boot=False))

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
# the batch start, the barrier and the transfer record
# ----------------------------------------------------------------------
def _first_steps(sim, order, tag):
    order.append((tag, sim.now))
    yield 1.0


def _batch(sim, order, n):
    return [Process(sim, _first_steps(sim, order, i), boot=False) for i in range(n)]


def test_a_batch_at_an_empty_instant_starts_in_order_in_place():
    sim = Simulator()
    order = []

    def caller():
        yield 0.5
        legs = _batch(sim, order, 3)
        sim.start(*legs)
        order.append(("caller", sim.now))  # the batch already ran

    sim.process(caller())
    sim.run()
    assert order == [(0, 0.5), (1, 0.5), (2, 0.5), ("caller", 0.5)]
    # The caller's boot and sleep, three leg sleeps: no start was queued.
    assert sim.events_fired == 5


def test_a_batch_at_a_non_empty_instant_queues_every_leg():
    sim = Simulator()
    order = []
    other = sim.event()
    other.add_callback(lambda _ev: order.append(("other", sim.now)))

    def caller():
        yield 0.5
        other.succeed()  # pending at now, ahead of the batch
        sim.start(*_batch(sim, order, 3))
        assert order == [] and len(sim._heap) == 4

    sim.process(caller())
    sim.run()
    assert order == [("other", 0.5), (0, 0.5), (1, 0.5), (2, 0.5)]


@pytest.mark.parametrize("first_nests", [False, True])
def test_only_the_last_leg_may_hand_off(first_nests):
    sim = Simulator()
    order = []

    def leg(tag, nests):
        order.append(tag)
        if nests:  # a start of its own, handed off if it may be
            sim.start(Process(sim, _first_steps(sim, order, tag + "'"), boot=False))
        yield 1.0

    def caller():
        yield 0.5
        sim.start(Process(sim, leg("a", first_nests), boot=False),
                  Process(sim, leg("b", True), boot=False))
        order.append("caller")

    sim.process(caller())
    sim.run()
    if first_nests:
        # "a" ran with handoff closed, so its start queued; "b"'s start
        # then queues behind it, as it would with every start queued.
        assert order == ["a", "b", "caller", ("a'", 0.5), ("b'", 0.5)]
    else:
        assert order == ["a", "b", ("b'", 0.5), "caller"]


def test_a_local_leg_inside_the_batch_does_not_hand_off_its_handler(declare):
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    a, b = RpcHost(sim, fab, "a"), RpcHost(sim, fab, "b")
    a.connect({"a": a, "b": b})
    b.connect({"a": a, "b": b})
    declare("echo", lambda x: 8)
    seen = []

    def echo(x):
        # The remote leg issued its request before this local handler ran.
        seen.append((x, sim.now, fab.nics["a"].tx_busy > 0.0))
        yield 1e-6
        return x

    a.register("echo", echo)
    b.register("echo", echo)
    a.start()
    b.start()

    def caller():
        return (yield from a.fan_out([("a", "echo", (1,)), ("b", "echo", (2,))]))

    p = sim.process(caller())
    sim.run()
    assert p.value == [1, 2]
    assert seen[0] == (1, 0.0, True)


def test_an_all_of_over_an_already_fired_child_does_not_hand_off():
    sim = Simulator()
    done = sim.event()
    done.succeed("v")
    sim.run()
    built = []

    def caller():
        yield 0.5
        both = AllOf(sim, [done])
        built.append((both.triggered, both.fired))
        return (yield both)

    p = sim.process(caller())
    sim.run()
    # Counted at construction, queued: the constructing step went on.
    assert built == [(True, False)] and p.value == ["v"]


@pytest.mark.parametrize("cut", ["in flight", "between legs"])
def test_an_interrupted_senders_record_claims_no_rx_and_counts_no_bytes(cut):
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    caught = []
    leg = []

    def sender():
        try:
            leg.append(fab.transfer("a", "b", 1 << 20, kind="data"))
            yield leg[0]
        except Interrupt:
            caught.append(sim.now)

    p = sim.process(sender())
    sim.step()  # the sender issues: tx claimed, the record queued
    tx_done = fab.nics["a"].tx_busy
    arrive = leg[0].t
    if cut == "between legs":
        sim.step()  # arrival: the rx direction is claimed
        assert fab.nics["b"].rx_busy > arrive
    rx_busy = fab.nics["b"].rx_busy
    p.interrupt("crash")
    sim.run()
    assert len(caught) == 1 and fab.nics["a"].tx_busy == tx_done
    assert fab.nics["b"].rx_busy == rx_busy  # the stale record claimed nothing
    assert fab.counters.messages == 0 and fab.counters.bytes_sent == 0


def test_a_transfer_resumes_its_sender_once():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    steps = []
    step = core.Process._step

    def sender():
        yield fab.transfer("a", "b", 4096)
        return sim.now

    p = sim.process(sender())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core.Process, "_step",
                   lambda self, value, exc=None: steps.append(sim.now) or step(self, value, exc))
        sim.run()
    # The boot and the delivery: the arrival leg claimed rx without a step.
    assert len(steps) == 2 and steps[-1] == p.value and sim.events_fired == 3


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


def _step_order():
    """(instant, process number) of every process step over the ledger
    slice, processes numbered in the order they were created."""
    born, steps = {}, []
    init, step = core.Process.__init__, core.Process._step

    def numbered(self, *args, **kwargs):
        born[id(self)] = (len(born), self)  # held, so no id is reused
        init(self, *args, **kwargs)

    def logged(self, value, exc=None):
        steps.append((self.sim.now, born[id(self)][0]))
        step(self, value, exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core.Process, "__init__", numbered)
        mp.setattr(core.Process, "_step", logged)
        for name, method, clients, requests in SLICE:
            run_scenario(name, seed=1, method=method, n_clients=clients,
                         requests_per_client=requests)
    return steps


@pytest.fixture(scope="module")
def queued_step_order():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_HANDOFF_DEPTH", 0)  # every entry queued
        return _step_order()


def test_handoff_keeps_the_order_of_every_process_step(queued_step_order):
    """Stronger than equal rows: over the ledger slice, every process
    resumes at the same instant and in the same order."""
    assert _step_order() == queued_step_order


def _draft_start(self, *procs):
    """The batch start's first draft: the last leg goes through
    ``_handoff``, which queues it behind whatever the earlier legs left at
    this instant, instead of running it in place."""
    heap = self._heap
    if (heap and heap[0][0] <= self.now) or self._depth >= core._HANDOFF_DEPTH:
        for proc in procs:
            self._schedule(core._Wake(proc, None))
        return
    if not procs:
        return
    self._depth += HANDOFF_CLOSED
    try:
        for proc in procs[:-1]:
            proc._step(None)
    finally:
        self._depth -= HANDOFF_CLOSED
    self._handoff(core._Wake(procs[-1], None))


def test_the_draft_batch_start_reorders_process_steps(monkeypatch, queued_step_order):
    monkeypatch.setattr(core.Simulator, "start", _draft_start)
    assert _step_order() != queued_step_order
