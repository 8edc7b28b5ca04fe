"""The simulation kernel: clock, event heap and generator processes.

Fast-path architecture (the engine is the wall-clock bottleneck of every
experiment, so its inner loop is deliberately hand-tuned):

* **One queue.** Every scheduling, zero-delay included, is a ``(time,
  seq, entry)`` push onto one heap, so the firing order is the ``(time,
  seq)`` total order by construction.  A FIFO deque for zero-delay
  entries, merged with the heap by a guard, fired the same order and did
  not pay for its branches: deleting it cut the instruction ledger 0.84 %
  at equal kernel events, and 10 alternating ``benchmarks/perf`` pairs
  per workload left host CPU per request within noise
  (benchmarks/results/perf_pr48_one_queue.md).  (Bit-identity of
  whole-run results under the fast paths below is a property of each
  call-site change, gated empirically by ``repro bench --check-baseline``:
  fast paths that *elide* transitions shift same-instant tie-breaking,
  which is observable only in tie-dense regimes — see
  benchmarks/results/perf_fastpath.md.)

* **Timed records.**  A process may ``yield`` a plain ``float`` (seconds)
  or an :class:`At` (an absolute instant) instead of a :class:`Timeout`
  event.  Either becomes a *timed record*: an object with a time ``t``
  and a ``_fire`` that is its own queue entry, so no event and no
  callback list is built.  Devices yield ``At``; the fabric's
  :class:`repro.net.fabric.Transfer` is a record with two queue legs
  (arrival, then delivery) that resumes its sender once.  The kernel sets
  the record's ``proc`` and queues it at ``t``; its firing resumes the
  process only while the process still waits on it, so a record an
  interrupt made stale fires as a no-op.  Only exact ``float``s are
  recognised as sleeps — yielding an ``int`` remains a type error, which
  keeps accidental ``yield 5`` bugs loud.

* **One step.**  Every resume of every process is one call of
  :meth:`Process._step`, which sends a value (or throws an exception) and
  parks the process on what it yields.  It has no staleness or boot
  branch: each wake checks its own currency before the call (a record or
  an event against ``_waiting_on``, a queued start or interrupt — a
  two-slot :class:`_Wake` record — against the process state), and a
  fresh generator starts with ``send(None)``.

* **Quiet completions.** A process that returns (or exits on an unhandled
  :class:`Interrupt`) while nothing waits on it becomes FIRED in place and
  takes no queue entry: that entry would have resumed nobody.  The same
  holds when its only waiter is a condition the completion cannot fire
  (:meth:`repro.sim.events.AllOf.absorb` counts it in place).  A failure
  keeps its entry (the unjoined-crash report fires from it), and so does
  the event :meth:`Simulator.run_until_fired` is driving (the driver joins
  it), so a drive returns after the same events as before.  Every entry
  this removes had no callback or only a counter, so the ``(time, seq)``
  order of every transition with an effect is unchanged.  A joiner that
  arrives later finds the process fired and resumes at once.  That is the
  queued order too, except for a joiner that arrives in the completion's
  own instant while an effectful entry is still queued ahead of where the
  completion's entry would have been; no bench row and no seed-sweep cell
  has one (``repro bench --check-baseline`` is the gate).

* **Handoff at an empty instant.** Five transitions fire in place
  instead of through the queue (:meth:`Simulator._handoff`) when nothing
  else is pending at ``now`` (the heap's top is later): an RPC handler's
  first step and a fan-out's batch of first steps
  (:meth:`Simulator.start`), the delivery of an RPC's reply
  (:meth:`Event.hand_off`), a process's success handed to its single
  waiter that the completion would wake (:meth:`Process._complete`), and
  an :class:`~repro.sim.events.AllOf` whose last child reports from a
  firing.  Each call site promises that its step schedules nothing after
  the call, and the firing that resumed the step has nothing left to run
  either: an event with several callbacks runs all but the last with
  handoff closed (:meth:`Event._fire_each`), and so does a condition
  attaching to children that already fired, whose constructing step goes
  on.  The equivalence argument: the queued entry would be the only one
  at ``now``, and nothing is queued after it before the kernel's next
  pop, so it would be the very next entry popped; firing it in place runs
  the same transition after the same predecessors and before the same
  successors.  What the rest of the calling step still does (a process
  parking on the reply or barrier it will wait for, a handler's quiet
  exit) touches nothing the fired transition reads, so the ``(time,
  seq)`` order of every transition with an effect is unchanged and rows
  are identical by construction.

  A batch of starts extends the argument leg by leg.  Queued, the legs'
  boots would be the next entries popped, in order, and whatever the
  first leg's step schedules at ``now`` would pop only after the last
  boot.  So the legs run in place in order, all but the last with
  handoff closed (a handoff inside an earlier leg would jump the later
  boots); the last runs in place unconditionally, one nesting level
  deeper, and its own handoffs see whatever the earlier legs queued.
  Handing the last leg to :meth:`_handoff` instead would queue it behind
  those entries: ``tests/test_handoff.py`` keeps that draft as a mutant
  the step-order differential must catch.  At a non-empty instant every
  leg is queued, in order.

  Failures keep their entries, and so does the event
  :meth:`Simulator.run_until_fired` drives: its driver join runs first on
  that event's firing and closes handoff until the drive returns, so the
  drive leaves pending exactly what the queue would have.  Nested
  handoffs stop at ``_HANDOFF_DEPTH``, past which the entry is queued
  (the old behaviour), so a same-instant chain of any length keeps the
  stack bounded.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim import collector as _collector
from repro.sim.events import (
    FIRED, HANDOFF_CLOSED, PENDING, SCHEDULED, Event, Interrupt, Timeout,
)
from repro.sim.resources import Request

ProcessGen = Generator[Event, Any, Any]

_heappush = heapq.heappush
_heappop = heapq.heappop

# How many handoffs may nest inside one another before the next one is
# queued instead.  Each level holds a resumed generator stack, so this
# bounds the recursion of a long same-instant chain.
_HANDOFF_DEPTH = 16


class _Wake:
    """A heap entry that starts a queued process or delivers an interrupt.

    Quacks just enough like an event for the kernel loop (``_fire``).  A
    process that is no longer pending ignores it.
    """

    __slots__ = ("proc", "exc")

    def __init__(self, proc: "Process", exc: Optional[BaseException]):
        self.proc = proc
        self.exc = exc

    def _fire(self) -> None:
        proc = self.proc
        if proc._state == PENDING:
            proc._step(None, self.exc)


class At:
    """An absolute-virtual-time sleep token: ``yield At(t)``.

    Wakes the process at exactly ``t`` — the same float, no re-derivation
    through ``now + (t - now)`` (which can be off by one ulp).  Devices and
    the fabric project each I/O's completion instant from busy-until clocks
    and hand it to the issuing process through this token.

    The token is its own queue entry (see "Timed records"): the kernel sets
    ``proc`` when a process yields it, and its firing resumes that process
    unless an interrupt re-routed it meanwhile.
    """

    __slots__ = ("t", "proc")

    def __init__(self, t: float):
        self.t = t

    def _fire(self) -> None:
        proc = self.proc
        if proc._waiting_on is self:
            proc._step(None)


def _driver_join(event: Event) -> None:
    """The first callback :meth:`Simulator.run_until_fired` leaves on its
    event.  The drive ends with this event's firing, so the rest of that
    firing must queue what the queue would have left pending: the join
    closes handoff until the drive returns."""
    event.sim._depth += HANDOFF_CLOSED


class Simulator:
    """Owns the virtual clock and the pending-event heap.

    Heap entries are ``(time, seq, event)``; ``seq`` is a monotone counter so
    simultaneous events fire in scheduling order, which makes every run
    deterministic for a fixed seed.  Zero-delay entries go on the same heap
    at ``now``: one queue is one order, and a second queue for them measured
    no faster (see "One queue").
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq: int = 0
        self._active: int = 0  # live processes, for run-to-exhaustion checks
        self._crashed: Optional[BaseException] = None
        self._current: Optional["Process"] = None
        self._depth: int = 0  # handoffs firing in place, one inside another
        # Monotone count of fired kernel transitions (events + wakes), the
        # numerator of the ``events/sec`` perf metric.
        self.events_fired: int = 0

    @property
    def active_process(self) -> Optional["Process"]:
        """The process whose generator is being stepped right now.

        ``None`` between steps or when code runs outside any process.  Lets
        library code identify the acquiring activity without threading a
        token through every generator (e.g. KeyedLock holders).
        """
        return self._current

    # ------------------------------------------------------------------
    # event construction helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh pending event bound to this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> float:
        """A costless sleep token: ``yield sim.sleep(dt)``.

        Returns the delay as a float for the kernel's event-free sleep
        path — no :class:`Timeout` object is built.  This is the public,
        eagerly-validating spelling of the protocol (it coerces ints and
        raises on negative delays at the call site); the engine's own hot
        paths yield pre-validated bare floats directly to skip the method
        call.
        """
        delay = float(delay)
        if delay < 0:
            raise ValueError(f"negative sleep delay {delay!r}")
        return delay

    def process(self, gen: ProcessGen, name: str = "") -> "Process":
        """Register a generator as a concurrently-running process."""
        return Process(self, gen, name=name)

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` at absolute virtual time ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(f"call_at past time {when} < now {self.now}")
        ev = self.event(name="call_at")
        ev.add_callback(lambda _ev: fn())
        ev.succeed(delay=when - self.now)
        return ev

    # ------------------------------------------------------------------
    # scheduling / main loop
    # ------------------------------------------------------------------
    def _schedule(self, event: Any, delay: float = 0.0) -> None:
        self._seq += 1
        _heappush(self._heap, (self.now + delay, self._seq, event))

    def _handoff(self, entry: Any) -> None:
        """Fire ``entry`` in place when, queued, it would be the next entry
        popped; else queue it at ``now`` (see "Handoff at an empty
        instant").  The caller's step must schedule nothing after this
        call."""
        heap = self._heap
        if (not heap or heap[0][0] > self.now) and self._depth < _HANDOFF_DEPTH:
            self._depth += 1
            try:
                entry._fire()
            finally:
                self._depth -= 1
            return
        self._seq += 1
        _heappush(heap, (self.now, self._seq, entry))

    def _schedule_at(self, entry: Any, when: float) -> None:
        """Queue ``entry`` at absolute time ``when`` (>= now): a timed
        record's next leg."""
        self._seq += 1
        _heappush(self._heap, (when, self._seq, entry))

    def start(self, *procs: "Process") -> None:
        """Start processes built with ``boot=False``, in order, from a step
        that schedules nothing after this call (see "Handoff at an empty
        instant").  When nothing else is pending at ``now``, each runs its
        first step in place, with handoff closed for all but the last,
        which runs at one more level of nesting: its own handoffs see
        whatever the earlier ones queued.  Otherwise every start is queued
        at ``now``, in order."""
        heap = self._heap
        now = self.now
        if (heap and heap[0][0] <= now) or self._depth >= _HANDOFF_DEPTH:
            for proc in procs:
                self._seq += 1
                _heappush(heap, (now, self._seq, _Wake(proc, None)))
            return
        if not procs:
            return
        if len(procs) > 1:
            self._depth += HANDOFF_CLOSED
            try:
                for proc in procs[:-1]:
                    proc._step(None)
            finally:
                self._depth -= HANDOFF_CLOSED
        self._depth += 1
        try:
            procs[-1]._step(None)
        finally:
            self._depth -= 1

    def _unschedule(self, event: Any) -> None:
        """Take ``event``'s pending entry off the heap: it will not fire."""
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[2] is event:
                del heap[i]
                heapq.heapify(heap)
                return

    def peek(self) -> float:
        """Time of the next scheduled event (+inf when idle)."""
        return self._heap[0][0] if self._heap else float("inf")

    def _next(self) -> Any:
        """Pop the next entry in strict ``(time, seq)`` order (or None)."""
        heap = self._heap
        if heap:
            entry = _heappop(heap)
            self.now = entry[0]
            return entry[2]
        return None

    def step(self) -> None:
        """Fire the single next event.

        Raises :class:`RuntimeError` when nothing is scheduled — callers
        driving the loop by hand should check :meth:`peek` first.
        """
        event = self._next()
        if event is None:
            raise RuntimeError("no scheduled events")
        self.events_fired += 1
        event._fire()
        if self._crashed is not None:
            exc, self._crashed = self._crashed, None
            raise exc

    def _crash(self, exc: BaseException) -> None:
        """Record an exception from a process nobody was joining.

        Raised out of :meth:`run` / :meth:`step` so bugs inside detached
        background processes surface instead of vanishing.
        """
        if self._crashed is None:
            self._crashed = exc

    def run(self, until: Optional[float] = None) -> None:
        """Advance the clock, firing events until the heap drains.

        With ``until`` set, stops once the next event would fire after that
        time and fast-forwards the clock exactly to ``until``.
        """
        if until is not None and until < self.now:
            raise ValueError(f"until {until} < now {self.now}")
        heap = self._heap
        fired = 0
        # The kernel owns the cyclic collector while it runs (see
        # repro.sim.collector): automatic collection is paused, and one full
        # collection runs whenever this simulator's lifetime event count
        # crosses a multiple of the cadence — so short run() calls add up.
        every = _collector.COLLECT_EVERY_EVENTS
        collect_at = every - self.events_fired % every
        with _collector.paused():
            try:
                while heap:
                    if until is not None and heap[0][0] > until:
                        self.now = until
                        return
                    entry = _heappop(heap)
                    self.now = entry[0]
                    event = entry[2]
                    fired += 1
                    event._fire()
                    if self._crashed is not None:
                        exc, self._crashed = self._crashed, None
                        raise exc
                    if fired == collect_at:
                        _collector.collect()
                        collect_at += every
            finally:
                self.events_fired += fired
        if until is not None:
            self.now = until

    def drive(self, event: Event, what: str = "process") -> Any:
        """Run until ``event`` fires and return its value (or raise its
        failure); a heap that drains first means it never can.  The one
        "complete it or say it deadlocked" helper: the run protocol,
        ``recover_node`` and the examples call it."""
        if not self.run_until_fired(event):
            raise RuntimeError(f"{what} did not complete (deadlock?)")
        return event.value

    def run_until_fired(self, event: Event) -> bool:
        """Fire events until ``event`` fires; False if the heap drained.

        The tight driver loop behind :meth:`drive`: identical semantics to
        ``while not event.fired and sim.peek() != inf: sim.step()`` with
        the per-event Python call overhead removed.
        """
        heap = self._heap
        fired = 0
        every = _collector.COLLECT_EVERY_EVENTS  # same cadence as run()
        collect_at = every - self.events_fired % every
        depth = self._depth
        # The driver joins what it drives: a driven process's completion
        # keeps its queue entry, and the loop ends on firing it.  The join
        # is the event's first callback, so it closes handoff before any
        # other callback of that firing runs.
        if event.callbacks:
            event.callbacks.insert(0, _driver_join)
        else:
            event.add_callback(_driver_join)
        with _collector.paused():
            try:
                while event._state != FIRED:
                    if not heap:
                        return False
                    entry = _heappop(heap)
                    self.now = entry[0]
                    ev = entry[2]
                    fired += 1
                    ev._fire()
                    if self._crashed is not None:
                        exc, self._crashed = self._crashed, None
                        raise exc
                    if fired == collect_at:
                        _collector.collect()
                        collect_at += every
                return True
            finally:
                self.events_fired += fired
                self._depth = depth
                callbacks = event.callbacks
                if callbacks is not None:
                    # Not fired (drained or raised): a later firing must
                    # not close handoff outside a drive.
                    callbacks.remove(_driver_join)
                    if not callbacks:
                        event.callbacks = None


class Process(Event):
    """A generator coroutine driven by the kernel.

    The process itself is an event: it fires when the generator returns, and
    its value is the generator's return value, so processes can ``yield``
    other processes to join them.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: Simulator, gen: ProcessGen, name: str = "",
                 boot: bool = True):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Any] = None
        sim._active += 1
        # Kick off at the current instant, after already-scheduled events at
        # it.  ``boot=False`` leaves the start to :meth:`Simulator.start`.
        if boot:
            sim._seq += 1
            _heappush(sim._heap, (sim.now, sim._seq, _Wake(self, None)))

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._state != PENDING:
            return
        # A victim still queued on a Resource leaves the queue now, so no
        # later release grants it the slot.  A granted request needs
        # nothing: the grant fires first and the victim resumes holding it.
        waiting = self._waiting_on
        if type(waiting) is Request and waiting._state == PENDING:
            waiting.withdraw()
            self._waiting_on = None
        # Delivered via the queue, not synchronously: the victim resumes at
        # this instant but after already-scheduled same-instant events, and
        # whatever it was waiting on becomes a stale no-op wakeup.
        self.sim._schedule(_Wake(self, Interrupt(cause)))

    # ------------------------------------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException] = None) -> None:
        """Advance the generator one step, sending ``value`` (or throwing
        ``exc``), and park the process on what it yields.

        Every resume of every process is one call of this method.  Its
        callers have already checked that the wake is current: a queued
        start or interrupt (:class:`_Wake`) that the process is pending, a
        timed record or an event that the process still waits on it.
        """
        self._waiting_on = None
        sim = self.sim
        prev = sim._current
        sim._current = self
        try:
            if exc is None:
                target = self._gen.send(value)
            else:
                target = self._gen.throw(exc)
        except StopIteration as stop:
            sim._active -= 1
            value = stop.value
        except Interrupt:
            # Process chose not to handle the interrupt: treat as clean exit.
            sim._active -= 1
            value = None
        except BaseException as err:
            sim._active -= 1
            self.fail(err)
            return
        else:
            if type(target) is float:
                # The event-free sleep path: an ``At`` record at now + delay.
                if target < 0.0:
                    sim._active -= 1
                    self.fail(ValueError(f"process {self.name!r} yielded a negative sleep {target!r}"))
                    return
                target = At(sim.now + target)
            elif isinstance(target, Event):
                self._waiting_on = target
                target.add_callback(self)
                return
            try:
                when = target.t
            except AttributeError:
                sim._active -= 1
                self.fail(TypeError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances"
                ))
                return
            if when < sim.now:
                sim._active -= 1
                self.fail(ValueError(
                    f"process {self.name!r} yielded At({when!r}) in the past "
                    f"(now {sim.now!r})"
                ))
                return
            # A timed record (inlined _schedule_at): its own queue entry.
            target.proc = self
            self._waiting_on = target
            sim._seq += 1
            _heappush(sim._heap, (when, sim._seq, target))
            return
        finally:
            sim._current = prev
        # The generator returned.  Completing outside the handlers above
        # keeps a waiter that a handoff resumes from running inside them.
        self._complete(value)

    def __call__(self, event: Event) -> None:
        """The callback a process leaves on the event it waits for; a
        wakeup made stale by an interrupt is ignored."""
        if event is self._waiting_on:
            self._step(event._value, event._exc)

    def _complete(self, value: Any) -> None:
        """Succeed with ``value``, the last act of the process's last step:
        quietly when the queue entry would resume nobody (see "Quiet
        completions"), handed to a single waiter it wakes (see "Handoff at
        an empty instant"), else through the queue."""
        callbacks = self.callbacks
        if callbacks is not None:
            if len(callbacks) != 1:
                self.succeed(value)
                return
            waiter = callbacks[0]
            absorb = getattr(waiter, "absorb", None)
            if absorb is None or not absorb(self):
                if waiter is _driver_join:
                    self.succeed(value)
                else:
                    # Inlined hand_off (a completion is its hottest caller);
                    # a process still running is pending, so no state check.
                    self._state = SCHEDULED
                    self._value = value
                    self.sim._handoff(self)
                return
            self.callbacks = None
        self._state = FIRED
        self._value = value

    def _fire(self) -> None:
        had_waiters = self.callbacks is not None
        super()._fire()
        if self._exc is not None and not had_waiters and self.callbacks is None:
            self.sim._crash(self._exc)
