"""Shared call vocabulary for the rule families and the summary builder.

One module owns the canonical tables of "interesting" callables — wall
clocks, entropy sources, blocking yield points, zero-copy view sources,
byte materializers — so the per-file rules (`rules/determinism.py`,
`rules/locks.py`, `rules/aliasing.py`) and the whole-program summary
extraction (`graph.py`) can never disagree about what a name means.
Before the interprocedural layer existed each rule module kept a private
copy; a vocabulary drift between the intraprocedural rule and the
summary that generalizes it would make `ipd-*` findings inconsistent
with their per-file counterparts.
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


def is_entropy_call(canonical: str, has_args: bool) -> bool:
    """Shared predicate: does this canonical call inject ambient entropy?

    Mirrors the `det-entropy` rule exactly: direct entropy sources,
    anything in ``secrets``, seedable constructors called without a seed,
    and module-level ``random.*`` / ``numpy.random.*`` convenience calls
    (hidden global stream).
    """
    if canonical in ENTROPY_CALLS or canonical.startswith("secrets."):
        return True
    if canonical in SEEDABLE_CALLS:
        return not has_args
    return (canonical.startswith("random.")
            or canonical.startswith("numpy.random."))


# ----------------------------------------------------------------------
# locks: yield points that block simulated time while a lock is held.
# Device I/O (store/device read-write) is deliberately absent: charging
# device time inside the critical section is the modelled cost of RMW.
# The fence/rebalance entries are the live-change fault plane: fencing on
# a down or migrating stripe parks the caller for a whole outage/copy
# window, and a membership rebalance blocks across quiesce + drain +
# copy — all of them may-block by contract, so calling one while holding
# a stripe lock is a deadlock-shaped bug the per-file rules must see
# without the whole-program graph.  (Device ``degrade``/``heal`` and
# ``Fabric.degrade_link``/``heal_link`` are deliberately absent: they are
# instantaneous state flips, not yield points.)
# ----------------------------------------------------------------------
BLOCKING_CALL_TAILS = ("rpc", "rpc_with_retry", "timeout", "sleep", "event",
                       "request", "acquire", "AllOf", "AnyOf", "At",
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

    Shared by the ``alias-*`` rules and the summary extractor so both
    generations agree on what produces a view.
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

# ----------------------------------------------------------------------
# payload plane: calls that force real bytes into existence.  On the
# ghost plane these either fabricate data (``bytes`` of a metadata-only
# extent has nothing to copy) or crash loudly at runtime
# (``GhostExtent.__array__`` raises) — either way, a ghost-reachable
# call site is a plane-discipline violation worth catching at review
# time.
# ----------------------------------------------------------------------
MATERIALIZE_CALLS = frozenset({
    "bytes", "bytearray", "memoryview",
    "numpy.asarray", "numpy.array", "numpy.ascontiguousarray",
    "numpy.frombuffer", "numpy.copyto",
})
MATERIALIZE_ATTR_TAILS = frozenset({"tobytes", "__array__"})

# Calls that mark a function as a *plane dispatch point*: a function
# that explicitly branches on ``is_ghost(...)`` handles both planes by
# contract (and the runtime ``GhostMaterializationError`` backstop
# catches it if it lies), so ghost-reachability analysis stops there.
PLANE_DISPATCH_TAILS = frozenset({"is_ghost"})
