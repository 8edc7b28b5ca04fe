"""RPC over the simulated fabric, and the wire protocol it carries.

Every node (MDS, OSD, client) is an :class:`RpcHost`; each delivered
request spawns one handler process, so a node serves requests concurrently
while its devices and NIC provide the real back-pressure.

Every message kind is declared once, in :data:`KINDS`: its fields, its
request and reply wire sizes and its delivery class
(:class:`MessageKind`).  A call names the destination, the kind and the
fields in declared order, ``rpc(dst, "update", (key, offset, data))``; the
handler takes the same fields as arguments and returns only the data it
replies with (``None`` for an acknowledgement).  ``docs/faults.md`` lists
the table.

``rpc`` is request/response: the caller waits for the handler's reply and
pays both transfer directions.  ``rpc_with_retry`` is ``rpc`` for detached
background workers that must also ride out a down destination.
``fan_out`` is the one concurrent-call barrier: many calls in flight at
once, one wait for all of them, their starts batched in place.

Delivery semantics are **at-most-once** (see docs/faults.md): every request
carries a deterministic per-host request id, and each host keeps a per-peer
dedup table with a reply cache.  A frame lost anywhere on the fabric —
request, ``.reply``, ``.err`` — is retransmitted by ``rpc`` under the same
id, and a retransmitted request whose original was already applied replays
the cached reply instead of re-running the handler, so loss never surfaces
to a caller and never double-applies an op.  The table holds only outcomes
that are not settled: an ``ok`` outcome leaves it the moment its reply (or
a replay of it) is delivered, because ``rpc`` never resends an id whose
reply it received; an ``err`` outcome stays, because ``rpc_with_retry``
resends an id after a shipped :class:`HostDownError`.  So the table grows
with faults, not with traffic, and needs no bound.  It is volatile state:
cleared by ``crash()``, preserved across ``stop()``.  An *uncached* kind
(the heartbeat) never enters it.

Failure semantics (the failure-injection scenarios build on these):

* a host that is *stopped* (``stop()``, transient maintenance) blocks new
  callers until it restarts — connections retry at the transport level, and
  in-flight handlers run to completion;
* a host that has *crashed* (``crash()``, fail-stop) refuses new calls with
  :class:`HostDownError` immediately, aborts its in-flight handlers and
  fails their reply events.  Callers must treat a :class:`HostDownError`
  as "the op may or may not have been applied" and recover accordingly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.net.fabric import Fabric, LinkLossError
from repro.sim.core import Process, Simulator
from repro.sim.events import AllOf, Event, Interrupt, Notifier, wait_until

# Fixed protocol overhead charged per message in addition to payload bytes.
MSG_OVERHEAD = 64

Handler = Callable[..., Generator[Event, Any, Any]]


def ack(_reply) -> int:
    """Reply bytes of an acknowledgement (a handler that returns nothing)."""
    return 8


def sized(reply) -> int:
    """Reply bytes of a payload reply: its size."""
    return reply.size


class MessageKind:
    """One RPC kind's wire contract.

    ``request`` gives the request's payload bytes from the kind's fields:
    its parameter names *are* the fields, in wire order, and the handler
    takes the same parameters.  Computing it is the caller's field check,
    so a call with the wrong fields fails before any transfer.  ``reply``
    gives the reply's payload bytes from what the handler returns.
    ``delivery`` is ``"cached"``: the outcome waits in the destination's
    dedup table until settled, or ``"uncached"``: the kind is idempotent
    by construction and never enters it.
    """

    __slots__ = ("name", "fields", "request", "reply", "cached",
                 "reply_tag", "err_tag")

    def __init__(self, name: str, request: Callable[..., int],
                 reply: Callable[[Any], int], delivery: str):
        if delivery not in ("cached", "uncached"):
            raise ValueError(f"{name}: delivery must be 'cached' or 'uncached'")
        code = request.__code__
        self.name = name
        self.fields: Tuple[str, ...] = code.co_varnames[:code.co_argcount]
        self.request = request
        self.reply = reply
        self.cached = delivery == "cached"
        # Traffic-counter tags of the two answers a request can get.
        self.reply_tag = name + ".reply"
        self.err_tag = name + ".err"


def _entries(entries) -> int:
    """Payload of an ``[(offset, delta), ...]`` list: its deltas' bytes."""
    n = 0
    for _, delta in entries:
        n += delta.size
    return n


# The wire protocol: every kind a caller may send.  Columns: name, request
# bytes (whose parameters are the fields), reply bytes, delivery class.
KINDS: Dict[str, MessageKind] = {kind.name: kind for kind in (
    # the serving plane: fs/osd.py, fs/mds.py
    MessageKind("write_block", lambda key, data: data.size, ack, "cached"),
    MessageKind("read", lambda key, offset, length: 24, sized, "cached"),
    MessageKind("update", lambda key, offset, data: data.size, ack, "cached"),
    MessageKind("recovery_read", lambda key: 24, sized, "cached"),
    MessageKind("recovery_write", lambda key, data: data.size, ack, "cached"),
    MessageKind("create_file", lambda inode, size: 32, lambda _: 16, "cached"),
    # A last-writer-wins timestamp, and a replayed beat would report stale
    # liveness: idempotent by construction, so uncached.
    MessageKind("heartbeat", lambda osd: 8, ack, "uncached"),
    # the update methods: update/, tsue/
    MessageKind("parity_apply", lambda pkey, entries: _entries(entries), ack, "cached"),
    MessageKind("pl_append", lambda pkey, entries: _entries(entries), ack, "cached"),
    MessageKind("plr_append", lambda pkey, entries: _entries(entries), ack, "cached"),
    MessageKind("parix_append", lambda key, offset, data, orig: data.size, ack, "cached"),
    MessageKind("cord_collect", lambda key, offset, delta: delta.size, ack, "cached"),
    MessageKind("tsue_replica", lambda key, offset, data: data.size, ack, "cached"),
    MessageKind("tsue_delta", lambda key, entries, primary: _entries(entries), ack, "cached"),
    MessageKind("tsue_parity", lambda pkey, entries: _entries(entries), ack, "cached"),
)}


class HostDownError(RuntimeError):
    """An RPC could not complete because the destination host is down.

    Raised in the *caller*: either fail-fast at connect time (the host has
    crashed), or when the host crashes while the request is being served.
    The operation may have been partially applied on the dead
    host — callers retry idempotently or rely on post-recovery repair.
    """

    def __init__(self, host: str, detail: str = ""):
        super().__init__(f"host {host!r} is down{': ' + detail if detail else ''}")
        self.host = host


class RetransmitBudgetError(RuntimeError):
    """``rpc`` stopped resending: a link dropped frames of one call for
    ``RETRANSMIT_BUDGET_S``.

    Deliberately not a :class:`HostDownError`: the request may have been
    applied, so a whole-op retry under a fresh id is not safe and
    foreground and recycle callers let it end the run.  Only a caller
    whose request is idempotent by construction (the heartbeat) may catch
    it.
    """


class Message:
    """One RPC request in flight.

    A plain slotted class (not a dataclass): one is allocated per RPC, so
    construction cost is part of the per-op fast path.
    """

    __slots__ = ("kind", "src", "fields", "reply_event", "req_id")

    def __init__(self, kind: MessageKind, src: str, fields: tuple,
                 reply_event: Event, req_id: int):
        self.kind = kind
        self.src = src
        self.fields = fields
        self.reply_event = reply_event
        # Per-source monotonic request id: the key of the at-most-once
        # dedup table on the destination.
        self.req_id = req_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Message {self.kind.name} from {self.src} #{self.req_id}>"


class RpcHost:
    """Base class for every networked node in the cluster."""

    # Total virtual-time budget a caller will wait for a stopped (not
    # crashed) host to restart: converts a never-restarted host from a
    # silent hang into a diagnosable error.  Waiters wake on the host's
    # ``changed`` notifier, so the budget is one timer, not a poll loop.
    CONNECT_BUDGET_S = 60.0

    # At-most-once plane: the retransmission timer of ``rpc`` for a call
    # that lost a frame — deterministic capped exponential, no jitter
    # entropy.
    RETRANSMIT_RTO_S = 5e-4
    RETRANSMIT_RTO_CAP_S = 16e-3
    RETRANSMIT_BUDGET_S = 60.0

    # ``rpc_with_retry``: attempt cadence and total budget while the
    # destination is down.
    RETRY_INTERVAL_S = 2e-3
    RETRY_BUDGET_S = 120.0

    def __init__(self, sim: Simulator, fabric: Fabric, name: str):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        fabric.attach(name)
        self.handlers: Dict[str, Handler] = {}
        self.peers: Dict[str, "RpcHost"] = {}
        self.running = False
        self.crashed = False
        # In-flight handler processes by request, so a crash can abort them
        # and fail their callers instead of leaving replies pending forever.
        # A handler removes its own entry when it exits.
        self._inflight: Dict["Message", Any] = {}
        # Notified on every liveness transition (start, crash): waiters on
        # a stopped host wake exactly when its state changes.
        self.changed = Notifier(sim)
        # --- at-most-once delivery state ---------------------------------
        # Monotonic outgoing request-id counter (deterministic, no entropy).
        self._next_req_id = 0
        # peer name -> {req_id -> outcome entry}, unsettled outcomes only.
        # Entries: ("inflight",) while the handler runs, then
        # ("ok", reply) until its reply is delivered (then the
        # entry goes: see _settle), or ("err", exc) for good.  An emptied
        # per-peer dict is kept: re-creating it per message costs more.
        # Volatile: cleared on crash() together with the rest of in-memory
        # state, preserved across stop().
        self._dedup: Dict[str, Dict[int, tuple]] = {}
        # Delivery-plane counters (metrics, not protocol state — survive
        # crash so the elastic rows can report them).
        self.retransmits = 0
        self.duplicates_suppressed = 0
        self.cached_reply_hits = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register(self, kind: str, handler: Handler) -> None:
        """Serve ``kind``, a name in :data:`KINDS`, with ``handler``."""
        if kind in self.handlers:
            raise ValueError(f"handler for {kind!r} already registered on {self.name}")
        self.handlers[kind] = handler

    def connect(self, peers: Dict[str, "RpcHost"]) -> None:
        """Install the cluster-wide name -> host routing table."""
        self.peers = peers

    def start(self) -> None:
        """Open the host for delivery and wake connect-waiters (idempotent)."""
        if not self.running:
            self.running = True
            self.crashed = False
            self.changed.notify()

    def stop(self) -> None:
        """Graceful stop: no new deliveries; in-flight handlers complete.

        Callers attempting new RPCs block at the transport until a restart
        (transient-outage semantics).  The dedup table survives — a
        retransmit arriving after the restart still replays its cached reply.
        """
        self.running = False

    def crash(self) -> None:
        """Fail-stop: abort in-flight handlers and fail all pending callers.

        New RPCs fail fast with :class:`HostDownError` until the host is
        restarted via :meth:`start`.  The dedup table and reply cache are
        volatile and lost with the rest of in-memory state.
        """
        self.running = False
        self.crashed = True
        self.changed.notify()
        for msg, proc in list(self._inflight.items()):
            if proc.is_alive:
                proc.interrupt("crash")
            if not msg.reply_event.triggered:
                msg.reply_event.fail(
                    HostDownError(self.name, f"crashed serving {msg.kind.name}")
                )
        self._inflight.clear()
        self._dedup.clear()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _dedup_record(self, src: str, req_id: int, entry: tuple) -> None:
        table = self._dedup.get(src)
        if table is None:
            table = self._dedup[src] = {}
        table[req_id] = entry

    def _settle(self, msg: "Message") -> None:
        """Forget ``msg``'s ``ok`` outcome: its reply is being delivered.

        The caller holds the reply from here on, and ``rpc`` resends an id
        only after its reply event failed, so no duplicate of this id can
        arrive any more.  Called just before ``reply.succeed``: no seq, no
        event.  (An uncached kind has no entry; ``pop`` finds none.)
        """
        table = self._dedup.get(msg.src)
        if table is not None:
            table.pop(msg.req_id, None)

    def _record_outcome(self, msg: "Message", entry: tuple) -> None:
        """Flip the dedup entry to its final outcome.

        Called *before* the reply transfer is paid: by the time a caller
        can possibly retransmit (its reply event failed, which only happens
        after a reply-transfer attempt), the outcome is already cached.
        """
        if msg.kind.cached:
            self._dedup_record(msg.src, msg.req_id, entry)

    def _spawn_handler(self, sim: Simulator, msg: "Message") -> None:
        """Accept one inbound request: consult the dedup table, then run
        the handler (or replay its cached outcome) in its own process.

        The caller's next action is ``yield reply``, so the process starts
        by handoff (:meth:`Simulator.start`), registered in ``_inflight``
        before its first step runs."""
        kind = msg.kind
        gen = None
        if kind.cached:
            table = self._dedup.get(msg.src)
            entry = table.get(msg.req_id) if table is not None else None
            if entry is not None:
                self.duplicates_suppressed += 1
                if entry[0] == "inflight":
                    # Protocol-unreachable (a caller only retransmits after
                    # its reply event failed, and outcomes are recorded
                    # before the reply transfer), but defensively fail the
                    # duplicate as lost-on-the-wire so the caller's RTO
                    # retransmits instead of hanging on an orphaned event.
                    if not msg.reply_event.triggered:
                        msg.reply_event.fail(LinkLossError(self.name, kind.name))
                    return
                gen = self._replay(msg, entry)
            else:
                self._dedup_record(msg.src, msg.req_id, ("inflight",))
        proc = self._inflight[msg] = Process(
            sim, gen or self._handle(msg), kind.name, False)
        sim.start(proc)

    def _replay(self, msg: "Message", entry: tuple):
        """Serve a duplicate of an applied request from the reply cache.

        Pays the reply (or ``.err``) transfer exactly like a fresh reply —
        the caller cannot tell a replay from a first delivery — but never
        re-runs the handler: that is the at-most-once contract.
        """
        self.cached_reply_hits += 1
        kind = msg.kind
        try:
            if entry[0] == "ok":
                result = entry[1]
                leg = self.fabric.transfer(
                    self.name, msg.src, kind.reply(result) + MSG_OVERHEAD,
                    kind.reply_tag, True,
                )
                if leg is not None:
                    yield leg
                if not msg.reply_event.triggered:
                    self._settle(msg)
                    msg.reply_event.succeed(result)
            else:  # ("err", exc)
                leg = self.fabric.transfer(
                    self.name, msg.src, MSG_OVERHEAD, kind.err_tag, True
                )
                if leg is not None:
                    yield leg
                if not msg.reply_event.triggered:
                    msg.reply_event.fail(entry[1])
        except LinkLossError as loss:
            # The replayed reply was dropped too: fail the caller's reply
            # event so its RTO fires and it retransmits again.
            if not msg.reply_event.triggered:
                msg.reply_event.fail(loss)
        except Interrupt:
            if not msg.reply_event.triggered:
                msg.reply_event.fail(
                    HostDownError(self.name, f"crashed replaying {kind.name}")
                )
        finally:
            self._inflight.pop(msg, None)

    def _handle(self, msg: Message):
        reply = msg.reply_event
        kind = msg.kind
        try:
            handler = self.handlers.get(kind.name)
            if handler is None:
                raise KeyError(f"{self.name} has no handler for {kind.name!r}")
            result = yield from handler(*msg.fields)
            # Cache the outcome BEFORE paying the reply transfer: if the
            # reply frame drops, the retransmit must hit a done entry.
            self._record_outcome(msg, ("ok", result))
            try:
                leg = self.fabric.transfer(
                    self.name, msg.src, kind.reply(result) + MSG_OVERHEAD,
                    kind.reply_tag, True,
                )
                if leg is not None:
                    yield leg
            except LinkLossError as loss:
                # Reply frame dropped on a lossy link.  The op IS applied
                # and cached; failing the reply event models the caller's
                # retransmission timer firing, and the same-id retransmit
                # replays the cached reply.
                if not reply.triggered:
                    reply.fail(loss)
                return
        except Interrupt:
            # The host crashed under us: no reply transfer (the node is
            # dead); make sure the caller learns rather than hangs.
            if not reply.triggered:
                reply.fail(HostDownError(self.name, f"crashed serving {kind.name}"))
            return
        except Exception as err:
            # Application-level failure, a missing handler included:
            # deliver it to the caller as the RPC outcome, after its
            # ``.err`` frame, instead of crashing the serving node.
            self._record_outcome(msg, ("err", err))
            try:
                leg = self.fabric.transfer(
                    self.name, msg.src, MSG_OVERHEAD, kind.err_tag, True
                )
                if leg is not None:
                    yield leg
            except LinkLossError as loss:
                if not reply.triggered:
                    reply.fail(loss)
                return
            if not reply.triggered:
                reply.fail(err)
            return
        finally:
            self._inflight.pop(msg, None)
        # Out of ``_inflight``, the reply is all that is left: nothing
        # follows it but this handler's quiet exit, so it is handed off.
        if not reply.triggered:
            self._settle(msg)
            reply.hand_off(result)

    # ------------------------------------------------------------------
    # calling
    # ------------------------------------------------------------------
    def _route(self, dst: str) -> "RpcHost":
        try:
            return self.peers[dst]
        except KeyError:
            raise KeyError(f"{self.name} has no route to {dst!r}") from None

    def _alloc_req_id(self) -> int:
        """Next outgoing request id — a plain counter, so two runs with the
        same schedule allocate the same ids (determinism gate)."""
        rid = self._next_req_id
        self._next_req_id = rid + 1
        return rid

    def _connect(self, dst: str, host: "RpcHost"):
        """Wait for a stopped host; refuse a crashed one (generator).

        Models the transport: a connection to a host down for transient
        maintenance wakes exactly at its restart (``host.changed``); a
        crashed host refuses at once.  After ``CONNECT_BUDGET_S`` it gives
        up with :class:`HostDownError`, an error rather than a hang.
        """
        try:
            yield from wait_until(
                lambda: host.running or host.crashed, host.changed,
                self.CONNECT_BUDGET_S, f"{self.name}: connect to {dst!r}",
            )
        except TimeoutError:
            raise HostDownError(dst, "connect budget exhausted") from None
        if not host.running:
            raise HostDownError(dst)

    def rpc(self, dst: str, kind: str, fields: tuple,
            _req_id: Optional[int] = None):
        """Request/response call of ``kind`` with ``fields`` in declared
        order; returns the handler's reply (generator).

        At-most-once, and the one place frame loss is recovered: the
        request carries a per-host monotonic id, and whichever frame of the
        call a lossy link drops — the request, its ``.reply``/``.err``, or
        a retransmission of either — the same id is resent after a
        deterministic capped-exponential timeout.  If the original was
        applied, the destination's dedup table replays the cached reply, so
        the op never runs twice and :class:`LinkLossError` never reaches a
        caller.  What does propagate: :class:`HostDownError` (the caller
        owns that retry), :class:`RetransmitBudgetError` (a link that
        never healed) and the handler's own exception.  ``_req_id`` lets
        :meth:`rpc_with_retry` pin one id across its attempts.  An
        undeclared kind (``KeyError``) or fields that do not match its
        declaration (``TypeError``) fail here, before any transfer.
        """
        try:
            spec = KINDS[kind]
        except KeyError:
            raise KeyError(f"{kind!r} is not a declared message kind") from None
        nbytes = spec.request(*fields) + MSG_OVERHEAD
        host = self._route(dst)
        req_id = self._alloc_req_id() if _req_id is None else _req_id
        rto = self.RETRANSMIT_RTO_S
        rto_deadline = None
        while True:
            try:
                while True:
                    if not host.running:
                        yield from self._connect(dst, host)
                    leg = self.fabric.transfer(self.name, dst, nbytes, kind)
                    if leg is not None:
                        yield leg
                    if host.running:
                        break
                    if host.crashed:
                        # Went down while the request was on the wire.
                        raise HostDownError(dst)
                    # Stopped mid-transfer: retransmit once it is back.
                reply = Event(self.sim, name="reply")
                host._spawn_handler(
                    self.sim, Message(spec, self.name, fields, reply, req_id)
                )
                result = yield reply
                return result
            except LinkLossError:
                # A frame of this call was dropped, in either direction:
                # resend the same id below.  A request that never arrived
                # runs fresh; one that did replays from the dedup table.
                pass
            if rto_deadline is None:
                rto_deadline = self.sim.now + self.RETRANSMIT_BUDGET_S
            if self.sim.now >= rto_deadline:
                # Loud failure, not a retryable one: the request may have
                # been applied, so a whole-op retry upstream with a fresh
                # id would not be safe.
                raise RetransmitBudgetError(
                    f"{self.name}: retransmit budget exhausted for "
                    f"{kind!r} -> {dst!r} (req {req_id})"
                )
            self.retransmits += 1
            yield min(rto, max(rto_deadline - self.sim.now, 1e-9))
            rto = min(rto * 2.0, self.RETRANSMIT_RTO_CAP_S)

    def rpc_with_retry(self, dst: str, kind: str, fields: tuple):
        """``rpc`` that also rides out a down destination until it heals.

        For *background* pushes only (log recycle forwards, migration
        copies): the work is owned by a detached worker with nobody
        upstream to retry it, and the destination is guaranteed to come
        back (recovery revives the serving plane of every down OSD,
        restores revive it outright).  Foreground paths must NOT use this —
        their callers own the retry policy.

        All attempts share one request id, so a retry after a stop/restart
        deduplicates against the destination's reply cache — the op is
        applied at most once.  A crash wipes the cache with the rest of
        volatile state; post-crash reconciliation is owned by recovery,
        exactly as for the strategy state the crash also lost.

        Pacing is a fixed, deadline-aware cadence (deterministic, no
        jitter): one attempt every ``RETRY_INTERVAL_S``, the last sleep
        clamped to the remaining budget so the deadline check always fires.
        The deadline is computed once from ``sim.now``; a float sum of
        intervals would drift after thousands of retries.
        """
        deadline = self.sim.now + self.RETRY_BUDGET_S
        req_id = self._alloc_req_id()
        while True:
            try:
                result = yield from self.rpc(dst, kind, fields, _req_id=req_id)
                return result
            except HostDownError:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    raise
                yield min(self.RETRY_INTERVAL_S, remaining)

    def fan_out(self, calls, retry: bool = False):
        """Issue every ``(dst, kind, fields)`` of ``calls`` at once and wait
        until all have replied; returns the replies in ``calls`` order
        (generator: ``replies = yield from host.fan_out(calls)``).

        One process per call under one ``AllOf``: the calls overlap on the
        fabric and at their destinations, and the first failure fails the
        wait.  The legs start as one batch (:meth:`Simulator.start`), in
        place when nothing else is pending at this instant.  ``retry``
        sends each through :meth:`rpc_with_retry` (background pushes only).
        """
        call = self.rpc_with_retry if retry else self.rpc
        sim = self.sim
        legs = [Process(sim, call(dst, kind, fields), boot=False)
                for dst, kind, fields in calls]
        barrier = AllOf(sim, legs)
        sim.start(*legs)
        return (yield barrier)
