"""Tests for the RPC substrate and the wire protocol it carries."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro.harness.experiment as hx
from repro.dataplane import GhostExtent
from repro.fs.messages import (
    KINDS,
    MSG_OVERHEAD,
    HostDownError,
    RetransmitBudgetError,
    RpcHost,
)
from repro.net import Fabric, NET_25GBE
from repro.sim import Simulator
from repro.workload import run_scenario

DOC = Path(__file__).parents[1] / "docs" / "faults.md"


def make_pair():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    a = RpcHost(sim, fab, "a")
    b = RpcHost(sim, fab, "b")
    peers = {"a": a, "b": b}
    a.connect(peers)
    b.connect(peers)
    return sim, fab, a, b


def test_rpc_roundtrip_returns_reply_payload(declare):
    sim, fab, a, b = make_pair()
    declare("echo", lambda x: 8)

    def echo(x):
        yield sim.timeout(0)
        return {"echo": x * 2}

    b.register("echo", echo)
    a.start()
    b.start()

    def caller():
        reply = yield from a.rpc("b", "echo", (21,))
        return reply["echo"]

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == 42
    assert sim.now > 0  # transfers cost time


def test_rpc_counts_both_directions(declare):
    sim, fab, a, b = make_pair()
    declare("noop", lambda: 50, reply=lambda _: 100)

    def noop():
        yield sim.timeout(0)

    b.register("noop", noop)
    a.start()
    b.start()
    p = sim.process(a.rpc("b", "noop", ()))
    sim.run(until=1.0)
    assert p.fired
    assert fab.counters.messages == 2
    assert fab.counters.bytes_sent == (50 + MSG_OVERHEAD) + (100 + MSG_OVERHEAD)


def test_concurrent_handlers_interleave(declare):
    sim, fab, a, b = make_pair()
    order = []
    declare("slow", lambda: 0, reply=lambda _: 0)
    declare("fast", lambda: 0, reply=lambda _: 0)

    def slow():
        yield sim.timeout(0.5)
        order.append("slow")

    def fast():
        yield sim.timeout(0.1)
        order.append("fast")

    b.register("slow", slow)
    b.register("fast", fast)
    a.start()
    b.start()
    sim.process(a.rpc("b", "slow", ()))
    sim.process(a.rpc("b", "fast", ()))
    sim.run(until=2.0)
    assert order == ["fast", "slow"]  # dispatcher does not serialize handlers


def test_missing_handler_fails_caller(declare):
    """A declared kind sent to a host that does not serve it fails at the
    destination like a handler that raised: the request crossed the wire,
    and the error comes back in its ``.err`` frame."""
    sim, fab, a, b = make_pair()
    declare("ghost", lambda: 0)
    a.start()
    b.start()

    def caller():
        try:
            yield from a.rpc("b", "ghost", ())
        except KeyError as e:
            return f"err:{e}"

    p = sim.process(caller())
    sim.run(until=1.0)
    assert "b has no handler for 'ghost'" in p.value
    assert fab.counters.by_kind == {"ghost": MSG_OVERHEAD, "ghost.err": MSG_OVERHEAD}


def test_undeclared_kind_or_wrong_fields_fail_at_the_caller():
    """The declaration is checked before any transfer: an undeclared kind
    and fields that do not match the kind's both raise in the caller, and
    nothing reaches the fabric."""
    sim, fab, a, b = make_pair()
    b.register("heartbeat", lambda osd: iter(()))
    a.start()
    b.start()
    errors = {}

    def caller(kind, fields):
        try:
            yield from a.rpc("b", kind, fields)
        except (KeyError, TypeError) as err:
            errors[kind, len(fields)] = (type(err), sim.now)

    for kind, fields in (("hearbeat", ("a",)), ("heartbeat", ()), ("heartbeat", ("a", 1))):
        sim.process(caller(kind, fields))
    sim.run(until=1.0)
    assert errors == {
        ("hearbeat", 1): (KeyError, 0.0),
        ("heartbeat", 0): (TypeError, 0.0),
        ("heartbeat", 2): (TypeError, 0.0),
    }
    assert fab.counters.messages == 0


def test_unknown_route_raises():
    sim, fab, a, b = make_pair()
    a.start()

    def caller():
        yield from a.rpc("nowhere", "heartbeat", ("a",))

    sim.process(caller())
    with pytest.raises(KeyError):
        sim.run(until=1.0)


def test_duplicate_handler_registration_rejected():
    sim, fab, a, _ = make_pair()
    a.register("heartbeat", lambda osd: None)
    with pytest.raises(ValueError):
        a.register("heartbeat", lambda osd: None)


def test_stop_halts_dispatch(declare):
    """A stopped host runs no handler; the caller waits at the transport
    and the handler runs only once the host is back."""
    sim, fab, a, b = make_pair()
    declare("sink", lambda: 0, reply=lambda _: 0)
    got = []

    def sink():
        yield sim.timeout(0)
        got.append(sim.now)

    b.register("sink", sink)
    a.start()
    b.start()
    b.stop()
    p = sim.process(a.rpc("b", "sink", ()))
    sim.run(until=1.0)
    assert got == [] and not p.fired
    b.start()
    sim.run(until=2.0)
    assert p.ok and len(got) == 1 and got[0] >= 1.0


def test_crash_fails_caller_waiting_on_stopped_host(declare):
    """Nothing parks on a stopped host: its callers wait in ``_connect``,
    and a crash wakes them with HostDownError instead of leaving them to
    the connect budget."""
    sim, fab, a, b = make_pair()
    declare("sink", lambda: 0, reply=lambda _: 0)
    b.register("sink", lambda: iter(()))
    a.start()
    b.start()
    b.stop()

    def caller():
        try:
            yield from a.rpc("b", "sink", ())
        except HostDownError as err:
            return (err.host, sim.now)

    p = sim.process(caller())
    sim.run(until=0.25)
    assert not p.fired
    b.crash()
    sim.run(until=1.0)
    assert p.value == ("b", 0.25)


# ----------------------------------------------------------------------
# the at-most-once plane: dedup, reply cache, retransmission
# ----------------------------------------------------------------------
def make_counting_pair(declare):
    sim, fab, a, b = make_pair()
    declare("apply", lambda v: 8)
    applied = []

    def apply(v):
        yield sim.timeout(0)
        applied.append(v)
        return {"ack": v}

    b.register("apply", apply)
    a.start()
    b.start()
    return sim, fab, a, b, applied


def test_duplicate_request_id_replays_cached_reply(declare):
    """The at-most-once contract at its smallest: same id, one apply.  The
    duplicate comes the one way a real caller produces one: the reply is
    lost, so ``rpc`` resends the request under the same id."""
    sim, fab, a, b, applied = make_counting_pair(declare)
    fab.degrade_link("b", loss_every=1, loss_scope="all")

    def healer():
        yield 3e-4  # after the first reply, before the 5e-4 s resend
        fab.heal_link("b")

    sim.process(healer())

    def caller():
        return (yield from a.rpc("b", "apply", (1,)))

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == {"ack": 1}
    assert applied == [1]  # handler ran once; duplicate served from cache
    assert a.retransmits == 1
    assert b.duplicates_suppressed == 1
    assert b.cached_reply_hits == 1
    assert b._dedup["a"] == {}  # delivered: the outcome is settled


def test_reply_loss_retransmits_same_id_and_never_double_applies(declare):
    """Lose the reply frame on the wire: the op is applied exactly once and
    the caller still gets the payload via a cached-reply retransmit.

    Fails on the pre-at-most-once transport, where reply frames were exempt
    from loss precisely because a lost reply forced a double-applying
    whole-op retry.
    """
    sim, fab, a, b, applied = make_counting_pair(declare)
    # Every b-egress frame (the replies) drops until the link heals.
    fab.degrade_link("b", loss_every=1, loss_scope="all")

    def healer():
        yield 0.005
        fab.heal_link("b")

    def caller():
        return (yield from a.rpc("b", "apply", (7,)))

    sim.process(healer())
    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == {"ack": 7}
    assert applied == [7]           # exactly one application
    assert a.retransmits >= 1       # the RTO fired at least once
    assert b.duplicates_suppressed >= 1
    assert b.cached_reply_hits >= 1
    assert fab.dropped_replies >= 1 and fab.dropped_requests == 0


def test_retransmit_budget_exhaustion_is_loud(declare):
    """A delivered request whose replies never get through must not surface
    a transient-retryable error (that would invite an unsafe whole-op
    retry): it raises RuntimeError."""
    sim, fab, a, b, applied = make_counting_pair(declare)
    fab.degrade_link("b", loss_every=1, loss_scope="all")  # never heals

    def caller():
        yield from a.rpc("b", "apply", (3,))

    sim.process(caller())
    with pytest.raises(RuntimeError, match="retransmit budget exhausted") as exc:
        sim.run(until=RpcHost.RETRANSMIT_BUDGET_S * 2)
    # Its own type, so the heartbeat can tell it from other RuntimeErrors —
    # and not a HostDownError, which callers retry.
    assert type(exc.value) is RetransmitBudgetError
    assert applied == [3]  # delivered and applied once despite the failure


def test_an_undelivered_outcome_outlives_any_number_of_delivered_calls(declare):
    """The table holds what is not settled, not a window of recent ids: a
    delivered reply frees its entry at once, and an outcome whose reply
    was lost still replays after 200 later calls from the same peer."""
    sim, fab, a, b, applied = make_counting_pair(declare)
    a.RETRANSMIT_RTO_S = 0.5  # instance override: resend after the others
    fab.degrade_link("b", loss_every=1, loss_scope="all")
    lost = sim.process(a.rpc("b", "apply", (-1,)))
    sim.run(until=1e-3)
    fab.heal_link("b")
    assert applied == [-1] and fab.dropped_replies == 1
    assert list(b._dedup["a"]) == [0]

    def caller():
        for v in range(200):
            yield from a.rpc("b", "apply", (v,))

    p = sim.process(caller())
    sim.run(until=0.4)
    assert p.fired and len(applied) == 201
    assert list(b._dedup["a"]) == [0]  # 200 settled; the lost one stays

    sim.run(until=1.0)
    assert lost.value == {"ack": -1}
    assert applied == [-1, *range(200)]  # replayed, not re-applied
    assert b.cached_reply_hits == 1
    assert b._dedup["a"] == {}


def test_stop_preserves_reply_cache_crash_wipes_it(declare):
    """Every reply of one call is lost until a crash: the outcome replays
    across stop()/start() and is applied again only after crash()."""
    sim, fab, a, b, applied = make_counting_pair(declare)
    fab.degrade_link("b", loss_every=1, loss_scope="all")
    p = sim.process(a.rpc("b", "apply", (9,)))
    sim.run(until=1.2e-3)  # applied at once, replayed at ~0.5 ms
    assert applied == [9] and b.cached_reply_hits == 1

    # stop()/start(): the dedup table survives maintenance restarts.
    b.stop()
    b.start()
    sim.run(until=3e-3)  # the ~1.5 ms resend
    assert applied == [9]  # replayed, not re-applied
    assert b.cached_reply_hits == 2 and 0 in b._dedup["a"]

    # crash()/start(): volatile state is gone, the duplicate re-applies.
    b.crash()
    b.start()
    assert not b._dedup
    fab.heal_link("b")
    sim.run(until=1.0)  # the ~3.5 ms resend runs fresh and is delivered
    assert p.value == {"ack": 9}
    assert applied == [9, 9]
    assert b._dedup["a"] == {}


def test_a_delivered_err_outcome_still_replays(monkeypatch, declare):
    """``err`` outcomes are never settled: ``rpc_with_retry`` resends an id
    after a shipped HostDownError, and each resend gets the cached error
    back, never a second run of a handler that may have half-applied."""
    sim, fab, a, b = make_pair()
    declare("forward", lambda: 0)
    ran = []

    def forward():
        yield sim.timeout(0)
        ran.append(sim.now)
        raise HostDownError("c", "forward failed")

    b.register("forward", forward)
    a.start()
    b.start()
    monkeypatch.setattr(RpcHost, "RETRY_INTERVAL_S", 2e-3)
    monkeypatch.setattr(RpcHost, "RETRY_BUDGET_S", 5e-3)

    def caller():
        try:
            yield from a.rpc_with_retry("b", "forward", ())
        except HostDownError as err:
            return err.host

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == "c"
    assert len(ran) == 1  # the handler ran once; every resend replayed
    assert b.cached_reply_hits == b.duplicates_suppressed == 3
    assert b._dedup["a"][0][0] == "err"


@pytest.mark.parametrize("name", ["steady", "mixed_rw"])
def test_a_fault_free_run_settles_every_ok_outcome(name, monkeypatch):
    """With no frame lost, every reply is delivered, so no host ends a run
    holding an ``ok`` outcome (nor the payload it carries)."""
    kept = []
    build = hx.build_cluster
    monkeypatch.setattr(hx, "build_cluster", lambda cfg: kept.append(build(cfg)) or kept[-1])
    assert run_scenario(name, n_clients=2, requests_per_client=30).consistent
    (cluster,) = kept
    hosts = [cluster.mds, *cluster.osds, *cluster.clients]
    tables = [t for host in hosts for t in host._dedup.values()]
    assert tables  # the run did go through the dedup tables
    assert not [e for t in tables for e in t.values() if e[0] == "ok"]


def test_uncached_kind_skips_the_dedup_table(declare):
    sim, fab, a, b = make_pair()
    declare("beat", lambda t: 8, delivery="uncached")
    beats = []

    def beat(t):
        yield sim.timeout(0)
        beats.append(t)

    b.register("beat", beat)
    a.start()
    b.start()

    def caller():
        rid = a._alloc_req_id()
        yield from a.rpc("b", "beat", (1,), _req_id=rid)
        yield from a.rpc("b", "beat", (2,), _req_id=rid)

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.fired
    assert beats == [1, 2]  # both ran: no dedup entry was ever created
    assert b._dedup.get("a") in (None, {})


def test_rpc_resends_lost_request_frames_until_the_link_heals(declare):
    """Request loss is recovered inside ``rpc`` like reply loss: every
    a-egress frame drops until a scheduled heal, the caller sees no error,
    and the handler runs exactly once."""
    sim, fab, a, b, applied = make_counting_pair(declare)
    fab.degrade_link("a", loss_every=1)

    def healer():
        yield 0.004
        fab.heal_link("a")

    def caller():
        return (yield from a.rpc("b", "apply", (5,)))

    sim.process(healer())
    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == {"ack": 5}
    assert applied == [5]
    # 0.5 ms, 1 ms, 2 ms, 4 ms: three resends are lost, the fourth arrives.
    assert a.retransmits == 4 == fab.dropped_requests
    assert b.duplicates_suppressed == 0  # nothing before it was delivered


def test_rpc_ships_application_errors_across_a_lossy_link(declare):
    """The handler's own exception is the call's outcome: it reaches the
    caller unchanged, once, even when its ``.err`` frame is lost first."""
    sim, fab, a, b = make_pair()
    declare("boom", lambda: 0)
    ran = []

    def boom():
        yield sim.timeout(0)
        ran.append(1)
        raise ValueError("boom")

    b.register("boom", boom)
    a.start()
    b.start()
    fab.degrade_link("b", loss_every=2, loss_scope="all")

    def caller():
        try:
            yield from a.rpc("b", "boom", ())
        except ValueError as err:
            return str(err)

    first = sim.process(caller())   # .err delivered
    sim.run(until=0.5)
    second = sim.process(caller())  # .err lost once, replayed from cache
    sim.run(until=1.0)
    assert first.value == second.value == "boom"
    assert ran == [1, 1] and a.retransmits == 1 and b.cached_reply_hits == 1


def test_rpc_with_retry_backoff_respects_remaining_budget(monkeypatch, declare):
    """The last sleep is clamped to the deadline: the caller fails at
    start+budget, not one whole interval past it."""
    sim, fab, a, b = make_pair()
    declare("x", lambda: 0)
    a.start()
    b.start()
    b.crash()
    t0 = sim.now
    monkeypatch.setattr(RpcHost, "RETRY_INTERVAL_S", 2e-3)
    monkeypatch.setattr(RpcHost, "RETRY_BUDGET_S", 5e-3)

    def caller():
        yield from a.rpc_with_retry("b", "x", ())

    sim.process(caller())
    with pytest.raises(HostDownError):
        sim.run(until=1.0)
    # Unclamped pacing (2+2+2 ms) would overshoot to 6 ms.
    assert sim.now == pytest.approx(t0 + 5e-3)


def test_host_crashed_mid_transfer_sends_and_receives_after_restart(declare):
    """A crash interrupts handlers that hold, or wait for, the host's tx
    direction.  Their frames keep the direction until the projected instant
    (the interrupt rule) and then it is simply free: nothing is left claimed
    by a dead process, so the restarted host serves and calls again."""
    sim, fab, a, b = make_pair()
    big = 4 << 20  # ~1.3 ms on the wire: long enough to crash inside it
    declare("bulk", lambda: 8, reply=lambda _: big)
    declare("echo", lambda x: 8)

    def bulk():
        yield sim.timeout(0)

    def echo(x):
        yield sim.timeout(0)
        return {"x": x}

    b.register("bulk", bulk)
    b.register("echo", echo)
    a.register("echo", echo)
    a.start()
    b.start()

    def roundtrip(src, dst):
        t0 = sim.now
        reply = yield from src.rpc(dst, "echo", (7,))
        assert reply["x"] == 7
        return sim.now - t0

    idle = sim.process(roundtrip(a, "b"))
    sim.run(until=1e-3)

    def doomed():
        with pytest.raises(HostDownError):
            yield from a.rpc("b", "bulk", ())

    # Two bulk replies: one serialising on b's tx, one queued behind it.
    victims = [sim.process(doomed()) for _ in range(2)]
    sim.run(until=1.5e-3)
    claimed_until = fab.nics["b"].tx_busy
    assert claimed_until > 3e-3  # both reply frames are projected
    b.crash()
    b.start()
    t_restart = sim.now
    serve = sim.process(roundtrip(a, "b"))  # b receives, then sends
    call = sim.process(roundtrip(b, "a"))   # b sends, then receives
    sim.run(until=1.0)
    assert all(v.ok for v in victims)
    # b's first frames after the restart wait out the crashed frames' slot —
    # it is kept, not freed early — and then leave: no wedge.
    for proc in (serve, call):
        assert claimed_until < t_restart + proc.value < claimed_until + 1e-3
    # Once that instant has passed the link is as idle as it ever was.
    again = sim.process(roundtrip(a, "b"))
    sim.run(until=2.0)
    assert again.value == pytest.approx(idle.value, rel=1e-9)


# ----------------------------------------------------------------------
# the wire protocol: every declared kind's sizes, on the wire and in docs
# ----------------------------------------------------------------------
KEY, PKEY = (7, 0, 1), (7, 0, 6)
PAYLOADS = [np.full(300, 7, dtype=np.uint8), GhostExtent(300)]


def wire_cases(payload):
    """Per declared kind: fields, the handler's reply, and the request and
    reply payload bytes its call sites and handler passed by hand before
    the kinds were declared (``blk.size``, ``24``, ``ext.length``, the
    entries' delta bytes, ...)."""
    n = payload.size
    entries = [(0, payload), (512, payload)]
    return {
        "write_block": ((KEY, payload), None, n, 8),
        "read": ((KEY, 16, n), payload, 24, n),
        "update": ((KEY, 16, payload), None, n, 8),
        "recovery_read": ((KEY,), payload, 24, n),
        "recovery_write": ((KEY, payload), None, n, 8),
        "create_file": ((7, 4096), None, 32, 16),
        "heartbeat": (("a",), None, 8, 8),
        "parity_apply": ((PKEY, entries), None, 2 * n, 8),
        "pl_append": ((PKEY, entries[:1]), None, n, 8),
        "plr_append": ((PKEY, entries[:1]), None, n, 8),
        "parix_append": ((KEY, 16, payload, True), None, n, 8),
        "cord_collect": ((KEY, 16, payload), None, n, 8),
        "tsue_replica": ((KEY, 16, payload), None, n, 8),
        "tsue_delta": ((KEY, entries, True), None, 2 * n, 8),
        "tsue_parity": ((PKEY, entries), None, 2 * n, 8),
    }


@pytest.mark.parametrize("payload", PAYLOADS, ids=["bytes", "ghost"])
def test_every_declared_kind_costs_its_declared_wire_size(payload):
    """One call of every declared kind between two hosts: the sender's NIC
    records the declared request size under the kind, the answering NIC
    the declared reply size under ``<kind>.reply``, and both equal what
    the call sites passed by hand before the declarations."""
    cases = wire_cases(payload)
    assert list(cases) == list(KINDS)
    sim, fab, a, b = make_pair()

    def stub(reply):
        def handler(*fields):
            yield sim.timeout(0)
            return reply
        return handler

    for name, (_fields, reply, _req, _rep) in cases.items():
        b.register(name, stub(reply))
    a.start()
    b.start()

    def caller():
        for name, (fields, reply, _req, _rep) in cases.items():
            assert (yield from a.rpc("b", name, fields)) is reply

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.ok
    sent, answered = fab.nics["a"].counters.by_kind, fab.nics["b"].counters.by_kind
    for name, (fields, reply, req, rep) in cases.items():
        kind = KINDS[name]
        assert sent[name] == kind.request(*fields) + MSG_OVERHEAD == req + MSG_OVERHEAD
        assert answered[f"{name}.reply"] == kind.reply(reply) + MSG_OVERHEAD == rep + MSG_OVERHEAD
    assert len(sent) == len(answered) == len(KINDS)


def protocol_table():
    """The rows of ``docs/faults.md``'s wire-protocol table."""
    section = DOC.read_text().split("## The wire protocol", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([\w, ]*)` \| `([^`]+)` \| `([^`]+)` \| (\w+) \|$",
                      section, re.MULTILINE)
    assert rows, "no wire-protocol table in docs/faults.md"
    return rows


@pytest.mark.parametrize("payload", PAYLOADS, ids=["bytes", "ghost"])
def test_the_documented_protocol_is_the_declared_one(payload):
    """The table lists exactly the declared kinds, in order, with their
    fields and delivery class, and its size expressions evaluate to the
    declared sizes."""
    cases = wire_cases(payload)
    rows = protocol_table()
    assert [row[0] for row in rows] == list(KINDS)
    for name, fields, request, reply, delivery in rows:
        kind = KINDS[name]
        assert tuple(fields.split(", ")) == kind.fields
        assert delivery == ("cached" if kind.cached else "uncached")
        values, answer = cases[name][:2]
        env = dict(zip(kind.fields, values))
        assert eval(request, {}, env) == kind.request(*values), name
        assert eval(reply, {}, {"reply": answer}) == kind.reply(answer), name
