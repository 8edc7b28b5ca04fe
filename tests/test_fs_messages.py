"""Tests for the RPC substrate."""

import pytest

import repro.harness.experiment as hx
from repro.fs.messages import (
    MSG_OVERHEAD,
    HostDownError,
    RetransmitBudgetError,
    RpcHost,
)
from repro.net import Fabric, NET_25GBE
from repro.sim import Simulator
from repro.workload import run_scenario


def make_pair():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    a = RpcHost(sim, fab, "a")
    b = RpcHost(sim, fab, "b")
    peers = {"a": a, "b": b}
    a.connect(peers)
    b.connect(peers)
    return sim, fab, a, b


def test_rpc_roundtrip_returns_reply_payload():
    sim, fab, a, b = make_pair()

    def echo(msg):
        yield sim.timeout(0)
        return {"echo": msg.payload["x"] * 2}, 8

    b.register("echo", echo)
    a.start()
    b.start()

    def caller():
        reply = yield from a.rpc("b", "echo", {"x": 21}, nbytes=8)
        return reply["echo"]

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == 42
    assert sim.now > 0  # transfers cost time


def test_rpc_counts_both_directions():
    sim, fab, a, b = make_pair()

    def noop(msg):
        yield sim.timeout(0)
        return {}, 100

    b.register("noop", noop)
    a.start()
    b.start()
    p = sim.process(a.rpc("b", "noop", {}, nbytes=50))
    sim.run(until=1.0)
    assert p.fired
    assert fab.counters.messages == 2
    assert fab.counters.bytes_sent == (50 + MSG_OVERHEAD) + (100 + MSG_OVERHEAD)


def test_concurrent_handlers_interleave():
    sim, fab, a, b = make_pair()
    order = []

    def slow(msg):
        yield sim.timeout(0.5)
        order.append("slow")
        return {}, 0

    def fast(msg):
        yield sim.timeout(0.1)
        order.append("fast")
        return {}, 0

    b.register("slow", slow)
    b.register("fast", fast)
    a.start()
    b.start()
    sim.process(a.rpc("b", "slow", {}, nbytes=0))
    sim.process(a.rpc("b", "fast", {}, nbytes=0))
    sim.run(until=2.0)
    assert order == ["fast", "slow"]  # dispatcher does not serialize handlers


def test_missing_handler_fails_caller():
    sim, fab, a, b = make_pair()
    a.start()
    b.start()

    def caller():
        try:
            yield from a.rpc("b", "ghost", {}, nbytes=0)
        except KeyError as e:
            return f"err:{e}"

    p = sim.process(caller())
    sim.run(until=1.0)
    assert "ghost" in p.value


def test_unknown_route_raises():
    sim, fab, a, b = make_pair()
    a.start()

    def caller():
        yield from a.rpc("nowhere", "x", {}, nbytes=0)

    sim.process(caller())
    with pytest.raises(KeyError):
        sim.run(until=1.0)


def test_duplicate_handler_registration_rejected():
    sim, fab, a, _ = make_pair()
    a.register("k", lambda msg: None)
    with pytest.raises(ValueError):
        a.register("k", lambda msg: None)


def test_stop_halts_dispatch():
    """A stopped host runs no handler; the caller waits at the transport
    and the handler runs only once the host is back."""
    sim, fab, a, b = make_pair()
    got = []

    def sink(msg):
        yield sim.timeout(0)
        got.append(sim.now)
        return {}, 0

    b.register("sink", sink)
    a.start()
    b.start()
    b.stop()
    p = sim.process(a.rpc("b", "sink", {}, nbytes=0))
    sim.run(until=1.0)
    assert got == [] and not p.fired
    b.start()
    sim.run(until=2.0)
    assert p.ok and len(got) == 1 and got[0] >= 1.0


def test_crash_fails_caller_waiting_on_stopped_host():
    """Nothing parks on a stopped host: its callers wait in ``_connect``,
    and a crash wakes them with HostDownError instead of leaving them to
    the connect budget."""
    sim, fab, a, b = make_pair()
    b.register("sink", lambda msg: iter(()))
    a.start()
    b.start()
    b.stop()

    def caller():
        try:
            yield from a.rpc("b", "sink", {}, nbytes=0)
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
def make_counting_pair():
    sim, fab, a, b = make_pair()
    applied = []

    def apply(msg):
        yield sim.timeout(0)
        applied.append(msg.payload["v"])
        return {"ack": msg.payload["v"]}, 8

    b.register("apply", apply)
    a.start()
    b.start()
    return sim, fab, a, b, applied


def test_duplicate_request_id_replays_cached_reply():
    """The at-most-once contract at its smallest: same id, one apply.  The
    duplicate comes the one way a real caller produces one: the reply is
    lost, so ``rpc`` resends the request under the same id."""
    sim, fab, a, b, applied = make_counting_pair()
    fab.degrade_link("b", loss_every=1, loss_scope="all")

    def healer():
        yield 3e-4  # after the first reply, before the 5e-4 s resend
        fab.heal_link("b")

    sim.process(healer())

    def caller():
        return (yield from a.rpc("b", "apply", {"v": 1}, nbytes=8))

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == {"ack": 1}
    assert applied == [1]  # handler ran once; duplicate served from cache
    assert a.retransmits == 1
    assert b.duplicates_suppressed == 1
    assert b.cached_reply_hits == 1
    assert b._dedup["a"] == {}  # delivered: the outcome is settled


def test_reply_loss_retransmits_same_id_and_never_double_applies():
    """Lose the reply frame on the wire: the op is applied exactly once and
    the caller still gets the payload via a cached-reply retransmit.

    Fails on the pre-at-most-once transport, where reply frames were exempt
    from loss precisely because a lost reply forced a double-applying
    whole-op retry.
    """
    sim, fab, a, b, applied = make_counting_pair()
    # Every b-egress frame (the replies) drops until the link heals.
    fab.degrade_link("b", loss_every=1, loss_scope="all")

    def healer():
        yield 0.005
        fab.heal_link("b")

    def caller():
        return (yield from a.rpc("b", "apply", {"v": 7}, nbytes=8))

    sim.process(healer())
    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == {"ack": 7}
    assert applied == [7]           # exactly one application
    assert a.retransmits >= 1       # the RTO fired at least once
    assert b.duplicates_suppressed >= 1
    assert b.cached_reply_hits >= 1
    assert fab.dropped_replies >= 1 and fab.dropped_requests == 0


def test_retransmit_budget_exhaustion_is_loud():
    """A delivered request whose replies never get through must not surface
    a transient-retryable error (that would invite an unsafe whole-op
    retry): it raises RuntimeError."""
    sim, fab, a, b, applied = make_counting_pair()
    fab.degrade_link("b", loss_every=1, loss_scope="all")  # never heals

    def caller():
        yield from a.rpc("b", "apply", {"v": 3}, nbytes=8)

    sim.process(caller())
    with pytest.raises(RuntimeError, match="retransmit budget exhausted") as exc:
        sim.run(until=RpcHost.RETRANSMIT_BUDGET_S * 2)
    # Its own type, so the heartbeat can tell it from other RuntimeErrors —
    # and not a HostDownError, which callers retry.
    assert type(exc.value) is RetransmitBudgetError
    assert applied == [3]  # delivered and applied once despite the failure


def test_an_undelivered_outcome_outlives_any_number_of_delivered_calls():
    """The table holds what is not settled, not a window of recent ids: a
    delivered reply frees its entry at once, and an outcome whose reply
    was lost still replays after 200 later calls from the same peer."""
    sim, fab, a, b, applied = make_counting_pair()
    a.RETRANSMIT_RTO_S = 0.5  # instance override: resend after the others
    fab.degrade_link("b", loss_every=1, loss_scope="all")
    lost = sim.process(a.rpc("b", "apply", {"v": -1}, nbytes=8))
    sim.run(until=1e-3)
    fab.heal_link("b")
    assert applied == [-1] and fab.dropped_replies == 1
    assert list(b._dedup["a"]) == [0]

    def caller():
        for v in range(200):
            yield from a.rpc("b", "apply", {"v": v}, nbytes=8)

    p = sim.process(caller())
    sim.run(until=0.4)
    assert p.fired and len(applied) == 201
    assert list(b._dedup["a"]) == [0]  # 200 settled; the lost one stays

    sim.run(until=1.0)
    assert lost.value == {"ack": -1}
    assert applied == [-1, *range(200)]  # replayed, not re-applied
    assert b.cached_reply_hits == 1
    assert b._dedup["a"] == {}


def test_stop_preserves_reply_cache_crash_wipes_it():
    """Every reply of one call is lost until a crash: the outcome replays
    across stop()/start() and is applied again only after crash()."""
    sim, fab, a, b, applied = make_counting_pair()
    fab.degrade_link("b", loss_every=1, loss_scope="all")
    p = sim.process(a.rpc("b", "apply", {"v": 9}, nbytes=8))
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


def test_a_delivered_err_outcome_still_replays(monkeypatch):
    """``err`` outcomes are never settled: ``rpc_with_retry`` resends an id
    after a shipped HostDownError, and each resend gets the cached error
    back, never a second run of a handler that may have half-applied."""
    sim, fab, a, b = make_pair()
    ran = []

    def forward(msg):
        yield sim.timeout(0)
        ran.append(msg.req_id)
        raise HostDownError("c", "forward failed")

    b.register("forward", forward)
    a.start()
    b.start()
    monkeypatch.setattr(RpcHost, "RETRY_INTERVAL_S", 2e-3)
    monkeypatch.setattr(RpcHost, "RETRY_BUDGET_S", 5e-3)

    def caller():
        try:
            yield from a.rpc_with_retry("b", "forward", {})
        except HostDownError as err:
            return err.host

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == "c"
    assert ran == [0]  # the handler ran once; every resend replayed
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


def test_uncached_kind_skips_the_dedup_table():
    sim, fab, a, b = make_pair()
    beats = []

    def beat(msg):
        yield sim.timeout(0)
        beats.append(msg.payload["t"])
        return {"ok": True}, 8

    b.register("beat", beat, cache_reply=False)
    a.start()
    b.start()

    def caller():
        rid = a._alloc_req_id()
        yield from a.rpc("b", "beat", {"t": 1}, nbytes=8, _req_id=rid)
        yield from a.rpc("b", "beat", {"t": 2}, nbytes=8, _req_id=rid)

    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.fired
    assert beats == [1, 2]  # both ran: no dedup entry was ever created
    assert b._dedup.get("a") in (None, {})


def test_rpc_resends_lost_request_frames_until_the_link_heals():
    """Request loss is recovered inside ``rpc`` like reply loss: every
    a-egress frame drops until a scheduled heal, the caller sees no error,
    and the handler runs exactly once."""
    sim, fab, a, b, applied = make_counting_pair()
    fab.degrade_link("a", loss_every=1)

    def healer():
        yield 0.004
        fab.heal_link("a")

    def caller():
        return (yield from a.rpc("b", "apply", {"v": 5}, nbytes=8))

    sim.process(healer())
    p = sim.process(caller())
    sim.run(until=1.0)
    assert p.value == {"ack": 5}
    assert applied == [5]
    # 0.5 ms, 1 ms, 2 ms, 4 ms: three resends are lost, the fourth arrives.
    assert a.retransmits == 4 == fab.dropped_requests
    assert b.duplicates_suppressed == 0  # nothing before it was delivered


def test_rpc_ships_application_errors_across_a_lossy_link():
    """The handler's own exception is the call's outcome: it reaches the
    caller unchanged, once, even when its ``.err`` frame is lost first."""
    sim, fab, a, b = make_pair()
    ran = []

    def boom(msg):
        yield sim.timeout(0)
        ran.append(1)
        raise ValueError("boom")

    b.register("boom", boom)
    a.start()
    b.start()
    fab.degrade_link("b", loss_every=2, loss_scope="all")

    def caller():
        try:
            yield from a.rpc("b", "boom", {}, nbytes=0)
        except ValueError as err:
            return str(err)

    first = sim.process(caller())   # .err delivered
    sim.run(until=0.5)
    second = sim.process(caller())  # .err lost once, replayed from cache
    sim.run(until=1.0)
    assert first.value == second.value == "boom"
    assert ran == [1, 1] and a.retransmits == 1 and b.cached_reply_hits == 1


def test_rpc_with_retry_backoff_respects_remaining_budget(monkeypatch):
    """The last sleep is clamped to the deadline: the caller fails at
    start+budget, not one whole interval past it."""
    sim, fab, a, b = make_pair()
    a.start()
    b.start()
    b.crash()
    t0 = sim.now
    monkeypatch.setattr(RpcHost, "RETRY_INTERVAL_S", 2e-3)
    monkeypatch.setattr(RpcHost, "RETRY_BUDGET_S", 5e-3)

    def caller():
        yield from a.rpc_with_retry("b", "x", {})

    sim.process(caller())
    with pytest.raises(HostDownError):
        sim.run(until=1.0)
    # Unclamped pacing (2+2+2 ms) would overshoot to 6 ms.
    assert sim.now == pytest.approx(t0 + 5e-3)


def test_host_crashed_mid_transfer_sends_and_receives_after_restart():
    """A crash interrupts handlers that hold, or wait for, the host's tx
    direction.  Their frames keep the direction until the projected instant
    (the interrupt rule) and then it is simply free: nothing is left claimed
    by a dead process, so the restarted host serves and calls again."""
    sim, fab, a, b = make_pair()
    big = 4 << 20  # ~1.3 ms on the wire: long enough to crash inside it

    def bulk(msg):
        yield sim.timeout(0)
        return {}, big

    def echo(msg):
        yield sim.timeout(0)
        return {"x": msg.payload["x"]}, 8

    b.register("bulk", bulk)
    b.register("echo", echo)
    a.register("echo", echo)
    a.start()
    b.start()

    def roundtrip(src, dst):
        t0 = sim.now
        reply = yield from src.rpc(dst, "echo", {"x": 7}, nbytes=8)
        assert reply["x"] == 7
        return sim.now - t0

    idle = sim.process(roundtrip(a, "b"))
    sim.run(until=1e-3)

    def doomed():
        with pytest.raises(HostDownError):
            yield from a.rpc("b", "bulk", {}, nbytes=8)

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
