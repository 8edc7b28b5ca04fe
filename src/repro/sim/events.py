"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot future living on a simulator's virtual
timeline.  Processes wait on events by ``yield``-ing them; the kernel resumes
the process when the event fires.  Events may carry a value (delivered as the
result of the ``yield``) or an exception (raised inside the waiting process).

Hot-path discipline (this module is the innermost loop of every experiment):

* event lifecycle states are small ints compared by identity, not strings;
* the callback list is allocated lazily — the great majority of events carry
  exactly one callback or none, and most are created and fired within a few
  microseconds of wall time;
* constructors never build debug-name strings (``repr`` falls back to the
  object id), so the per-event cost is attribute stores only.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.core import Simulator

# Lifecycle states.  Ints, not strings: these are compared on every kernel
# transition.  The historical names remain importable.
PENDING = 0
SCHEDULED = 1
FIRED = 2

# Added to a simulator's handoff depth to close handoff until it is taken
# off again: no nesting cap reaches it.
HANDOFF_CLOSED = 1 << 30


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    ``cause`` carries an arbitrary payload describing why (e.g. a node
    failure notice during recovery experiments).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the virtual timeline.

    Lifecycle: *pending* -> *scheduled* (``succeed``/``fail`` called, queued
    on the heap) -> *fired* (callbacks executed).  Callbacks receive the
    event itself.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        # Lazily allocated: None until the first callback is added.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._state = PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.name = name

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._state != PENDING

    @property
    def fired(self) -> bool:
        """True once callbacks have run and the value is observable."""
        return self._state == FIRED

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        return self._state == FIRED and self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with ``value`` after ``delay``."""
        if self._state != PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._state = SCHEDULED
        self._value = value
        # Inlined Simulator._schedule — succeed() is the hottest scheduling
        # entry point.
        sim = self.sim
        sim._seq += 1
        _heappush(sim._heap, (sim.now + delay, sim._seq, self))
        return self

    def hand_off(self, value: Any) -> None:
        """``succeed(value)`` from a step that schedules nothing after this
        call: fires in place when its entry would be the next one popped
        (``repro.sim.core``, "Handoff at an empty instant")."""
        if self._state != PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._state = SCHEDULED
        self._value = value
        self.sim._handoff(self)

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire by raising ``exc`` in its waiters."""
        if self._state != PENDING:
            raise RuntimeError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = SCHEDULED
        self._exc = exc
        self.sim._schedule(self, delay)
        return self

    # ------------------------------------------------------------------
    # kernel hook
    # ------------------------------------------------------------------
    def _fire(self) -> None:
        self._state = FIRED
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            # One callback is the common case: unpacking it is cheaper than
            # a loop or a length test.
            try:
                (cb,) = callbacks
            except ValueError:
                self._fire_each(callbacks)
            else:
                cb(self)

    def _fire_each(self, callbacks: List[Callable[["Event"], None]]) -> None:
        """Run several callbacks in order, with handoff (``repro.sim.core``,
        "Handoff at an empty instant") closed for all but the last: a
        transition handed off inside an earlier callback would run ahead of
        the later ones, which its queue entry would have run first."""
        sim = self.sim
        sim._depth += HANDOFF_CLOSED
        try:
            for cb in callbacks[:-1]:
                cb(self)
        finally:
            sim._depth -= HANDOFF_CLOSED
        callbacks[-1](self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event fires (immediately if fired)."""
        if self._state == FIRED:
            cb(self)
        elif self.callbacks is None:
            self.callbacks = [cb]
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("pending", "scheduled", "fired")[self._state]
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__ + succeed(): timeouts are the most common
        # event kind, and the f-string debug name alone used to dominate
        # their construction cost.
        self.sim = sim
        self.callbacks = None
        self._state = SCHEDULED
        self._value = value
        self._exc = None
        self.name = "timeout"
        self.delay = delay
        sim._seq += 1
        _heappush(sim._heap, (sim.now + delay, sim._seq, self))


class _Condition(Event):
    """Base for AllOf/AnyOf combinators over a fixed set of events.

    A condition is its children's callback (``__call__``), so a completing
    child can ask it, through :meth:`absorb`, whether the completion may be
    counted in place instead of through a queue entry.
    """

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self.events: List[Event] = list(events)
        self._n_fired = 0
        if not self.events:
            # Vacuously satisfied.
            self.succeed(self._collect())
        else:
            # An already-fired child calls this condition from inside the
            # constructing step, which goes on after it: no handoff there.
            sim._depth += HANDOFF_CLOSED
            try:
                for ev in self.events:
                    ev.add_callback(self)
            finally:
                sim._depth -= HANDOFF_CLOSED

    def _collect(self) -> List[Any]:
        return [ev._value for ev in self.events if ev.fired and ev._exc is None]

    def __call__(self, ev: Event) -> None:
        raise NotImplementedError

    def absorb(self, child: Event) -> bool:
        """Take ``child``'s success in place when its fired entry could not
        fire this condition; False means it must be queued as usual."""
        return self._state != PENDING


class AllOf(_Condition):
    """Fires when *all* child events have fired.

    Value is the list of child values in construction order.  If any child
    fails, this condition fails with the first failure.  The success is
    handed off (:meth:`Event.hand_off`): it fires in place when nothing
    else is pending at its instant.
    """

    __slots__ = ("_probe",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="all_of")
        self._probe = len(self.events) - 1

    def __call__(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            # The last child reports from its firing, which has nothing
            # left to run after this callback.
            self.hand_off([e._value for e in self.events])

    def absorb(self, child: Event) -> bool:
        """Count a succeeding ``child`` in place while another child has not
        triggered yet.

        That sibling's entry will be queued after ``child``'s would have
        been, so this condition still fires at the same ``(time, seq)`` as
        if every child had been queued.  A sibling triggered but not yet
        fired may fire first, so it does not count.  ``_probe`` walks from
        the last child down, and only past children that have triggered
        (or are completing now), so the walk is amortised O(1); children
        mostly finish in order, and then it is one step.  Once this
        condition has failed, counting is harmless: nothing reads the count.
        """
        events = self.events
        i = self._probe
        while i >= 0:
            ev = events[i]
            if ev._state == PENDING and ev is not child:
                self._probe = i
                self._n_fired += 1
                return True
            i -= 1
        return False


class AnyOf(_Condition):
    """Fires when the *first* child event fires; value is ``(index, value)``."""

    __slots__ = ("_index_of",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        # Precomputed id -> index map: ``events.index(ev)`` was an O(n) scan
        # per child fire, and identity (not equality) is the right lookup —
        # with a duplicated event object the scan's first-occurrence answer
        # is preserved by setdefault.  Built before super().__init__ because
        # an already-fired child calls this condition synchronously from the
        # constructor's add_callback.
        events = list(events)
        self._index_of = {}
        for i, ev in enumerate(events):
            self._index_of.setdefault(id(ev), i)
        super().__init__(sim, events, name="any_of")

    def __call__(self, ev: Event) -> None:
        if self._state != PENDING:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self.succeed((self._index_of[id(ev)], ev._value))


class Notifier:
    """One piece of state's change feed: :meth:`wait` is the event the next
    :meth:`notify` fires, so waiters wake at the change, not on a poll."""

    __slots__ = ("sim", "_next")

    def __init__(self, sim: "Simulator"):
        self.sim, self._next = sim, None

    def wait(self) -> Event:
        if self._next is None:
            self._next = Event(self.sim, name="change")
        return self._next

    def notify(self) -> None:
        ev, self._next = self._next, None
        if ev is not None:
            ev.succeed()


def wait_until(pred: Callable[[], bool], notifier: Notifier, budget: float, what: str):
    """Wait until ``pred()`` holds, re-checked on each of ``notifier``'s
    changes (generator; returns whether it had to wait).  ``pred`` is
    checked before every yield, so a change that landed before the wait is
    never missed and a wait that already holds takes no event.  The budget
    is one deadline, one timer under every wake's :class:`AnyOf`; a wake by
    that timer raises :class:`TimeoutError` naming ``what``, even if
    ``pred`` has come to hold: a change nobody notified is a bug.  Any other
    exit, an interrupt included, takes the timer off the heap."""
    if pred():
        return False
    sim = notifier.sim
    timer = sim.timeout(budget)
    try:
        while True:
            index, _ = yield AnyOf(sim, (notifier.wait(), timer))
            if index:
                raise TimeoutError(f"{what}: gave up after {budget:g}s")
            if pred():
                return True
    finally:
        if timer._state != FIRED:
            sim._unschedule(timer)
