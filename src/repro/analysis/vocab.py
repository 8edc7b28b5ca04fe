"""Shared call vocabulary for the rule families.

One module owns the canonical tables of "interesting" callables — wall
clocks, entropy sources, blocking yield points, zero-copy view sources —
so the rules (`rules/determinism.py`, `rules/locks.py`,
`rules/aliasing.py`) can never disagree about what a name means.
"""

from __future__ import annotations

import ast
from typing import Optional

# ----------------------------------------------------------------------
# determinism: wall clocks and ambient entropy
# ----------------------------------------------------------------------
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})

# Seedable constructors: fine with an explicit seed argument, ambient
# entropy (and therefore flagged) when called with no arguments.
SEEDABLE_CALLS = frozenset({
    "random.Random", "random.SystemRandom",
    "numpy.random.default_rng", "numpy.random.SeedSequence",
    "numpy.random.Generator", "numpy.random.PCG64", "numpy.random.MT19937",
    "numpy.random.Philox", "numpy.random.RandomState",
})

# Filesystem enumerations whose order is readdir-dependent.
FS_ORDER_CALLS = frozenset({
    "os.listdir", "os.scandir", "os.walk",
    "glob.glob", "glob.iglob",
})


# ----------------------------------------------------------------------
# locks: generators that block simulated time when delegated to with
# ``yield from`` while a lock is held.  Event constructors (``fan_out``,
# ``timeout``, ``AllOf``, ``acquire``, ...) are absent: calling one only
# issues; the wait is the ``yield`` on the event, which the rule reports
# on its own.  Device I/O (store/device read-write) is deliberately
# absent: charging device time inside the critical section is the
# modelled cost of RMW.  The fence/rebalance entries are the live-change
# fault plane: fencing on a down or migrating stripe parks the caller for
# a whole outage/copy window, and a membership rebalance blocks across
# quiesce + drain + copy — all of them may-block by contract, so calling
# one while holding a stripe lock is a deadlock-shaped bug.
# ----------------------------------------------------------------------
BLOCKING_CALL_TAILS = ("rpc", "rpc_with_retry",
                       "_fence_wait", "_migration_wait",
                       "rebalance_join", "rebalance_leave",
                       "decommission_osd")

# ----------------------------------------------------------------------
# aliasing: call attribute names returning zero-copy views of live
# storage.  Zero-arg ``peek()`` is ``Simulator.peek`` (a float), which
# the rules special-case.
# ----------------------------------------------------------------------
VIEW_SOURCE_ATTRS = frozenset({
    "read_range", "peek", "lookup", "lookup_partial", "cache_lookup_partial",
})


def view_call(node: ast.AST) -> Optional[ast.Call]:
    """The view-returning Call inside ``node`` (unwrapping yield-from).

    Shared by both ``alias-*`` rules so they agree on what produces a
    view.
    """
    if isinstance(node, (ast.YieldFrom, ast.Await)):
        node = node.value
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in VIEW_SOURCE_ATTRS):
        if node.func.attr == "peek" and not (node.args or node.keywords):
            # Zero-arg ``peek()`` is ``Simulator.peek`` (next event time,
            # a float) — only ``BlockStore.peek(key)`` returns a view.
            return None
        return node
    return None
