"""Lock-discipline rules for the per-stripe update serialization contract.

The invariant (PR 2): in every ``UpdateStrategy`` whose class declares
``serializes_stripes = True``, the data-block read-modify-write — and for
PARIX, the whole speculative protocol — must run under
``serialize_stripe``, exactly once.  The contract has three static
failure modes:

* an RMW primitive called *outside* any ``serialize_stripe`` wrapper
  races pipelined same-stripe updates (the parity-inconsistency bug the
  locks were introduced to close);
* a *nested* ``serialize_stripe`` on the same stripe self-deadlocks —
  today that only trips ``KeyedLock``'s runtime reentrancy check after a
  full scenario run; here it is rejected at review time;
* a wait *inside* the critical section — a ``yield`` on any event, or a
  ``yield from`` a blocking call (RPC, fence, rebalance) — stretches the
  lock across simulated time other updates could have used; legal only
  when the protocol genuinely requires it (PARIX's original-ship), which
  is what suppression reasons are for.  *Issuing* is not waiting: a
  ``fan_out`` started under the lock and yielded after it is fine.

The locked scope is closed, so one file's AST is enough to see all of
it: the body passed to ``serialize_stripe(...)`` must be a call to a
``*_locked`` function, and a ``*_locked`` function may delegate
(``yield from``) only to other ``*_locked`` functions or to device and
store I/O through ``self.osd`` (the modelled cost of the RMW).  A helper
that blocks can therefore not hide under the lock behind a call.
Drain/recycle methods (``drain``, ``_recycle*``) are exempt from the
unserialized-RMW rule: they run behind the harness's post-workload
barrier or their strategy's own exclusion lock.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.vocab import BLOCKING_CALL_TAILS as _BLOCKING_CALLS

# Stripe-state mutation primitives that must be lock-wrapped: the shared
# RMW in every class (its name says it needs the lock), the raw block
# write in classes that declare ``serializes_stripes``.
_RMW_FORWARD_LOCKED = "rmw_forward_locked"
_RMW_CALLS = (_RMW_FORWARD_LOCKED, "write_range")


def _call_tail(ctx: FileContext, call: ast.Call) -> str:
    """Last component of the called dotted name ('' when unresolvable)."""
    name = ctx.dotted(call.func)
    return name.rsplit(".", 1)[-1] if name else ""


def _serializes(cls: ast.ClassDef) -> bool:
    """True when the class body declares ``serializes_stripes = True``."""
    return any(
        isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "serializes_stripes"
                for t in stmt.targets)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is True
        for stmt in cls.body
    )


def _serialize_calls(root: ast.AST, ctx: FileContext) -> List[ast.Call]:
    return [
        n for n in ast.walk(root)
        if isinstance(n, ast.Call) and _call_tail(ctx, n) == "serialize_stripe"
    ]


def _body_arg(call: ast.Call) -> Optional[ast.AST]:
    """The generator passed to ``serialize_stripe(key, body)``."""
    if len(call.args) >= 2:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "body"), None)


def _delegate_tail(call: ast.Call) -> Optional[str]:
    """Callee name of ``self.<m>(...)`` / ``<name>(...)``, else None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id == "self"):
        return func.attr
    return None


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


class UnserializedRMWRule(Rule):
    id = "lock-rmw-unserialized"
    family = "locks"
    description = ("stripe-state RMW outside serialize_stripe in a "
                   "serializes_stripes strategy races pipelined updates")
    fixit = ("route the call through `self.serialize_stripe(key, body)`, "
             "or move it into a `*_locked` helper invoked under the "
             "wrapper")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            rmw = _RMW_CALLS if _serializes(cls) else (_RMW_FORWARD_LOCKED,)
            for func in _methods(cls):
                if (func.name.endswith("_locked") or func.name == "drain"
                        or func.name.startswith("_recycle")):
                    continue
                wrapped: Set[int] = set()
                for call in _serialize_calls(func, ctx):
                    for arg in list(call.args) + [
                        kw.value for kw in call.keywords
                    ]:
                        wrapped.update(id(n) for n in ast.walk(arg))
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and _call_tail(ctx, node) in rmw
                            and id(node) not in wrapped):
                        yield self.finding(
                            ctx, node,
                            f"`{ctx.dotted(node.func)}` in "
                            f"`{cls.name}.{func.name}` mutates stripe state "
                            "outside any serialize_stripe wrapper",
                        )


class NestedSerializeRule(Rule):
    id = "lock-nested-serialize"
    family = "locks"
    description = ("nested serialize_stripe double-acquires the per-stripe "
                   "lock — a guaranteed self-deadlock (runtime reentrancy "
                   "check fires only after a full run)")
    fixit = ("unnest: the outer wrapper already holds the stripe lock for "
             "the whole body; pass the inner generator directly")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.endswith("_locked"):
                    for call in _serialize_calls(node, ctx):
                        yield self.finding(
                            ctx, call,
                            f"serialize_stripe inside `{node.name}`, which "
                            "already runs under the stripe lock",
                        )
            if not isinstance(node, ast.Call):
                continue
            if _call_tail(ctx, node) != "serialize_stripe":
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for inner in _serialize_calls(arg, ctx):
                    yield self.finding(
                        ctx, inner,
                        "serialize_stripe nested inside another "
                        "serialize_stripe's body",
                    )


class YieldWhileLockedRule(Rule):
    id = "lock-yield-while-locked"
    family = "locks"
    description = ("a wait (a yielded event, or a blocking RPC / fence "
                   "call) inside a serialize_stripe critical section holds "
                   "the stripe lock across simulated time")
    fixit = ("issue under the lock, wait after the critical section "
             "(`sent = self.osd.fan_out(...)` in the `*_locked` body, "
             "`yield sent` in its caller); keep the locked scope closed "
             "— pass serialize_stripe a `*_locked` call and delegate only "
             "to `*_locked` helpers; if the protocol requires the wait — "
             "e.g. PARIX's original-ship-before-ack — suppress with that "
             "reason")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and _call_tail(ctx, node) == "serialize_stripe"):
                body = _body_arg(node)
                tail = (_call_tail(ctx, body)
                        if isinstance(body, ast.Call) else "")
                # A nested serialize_stripe body is lock-nested-serialize's.
                if (body is not None and not tail.endswith("_locked")
                        and tail != "serialize_stripe"):
                    yield self.finding(
                        ctx, body,
                        "the body passed to `serialize_stripe` is not a "
                        "`*_locked` call — the locked scope must be a "
                        "function this rule checks",
                    )
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.endswith("_locked")):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Yield):
                    yield self.finding(
                        ctx, sub,
                        f"`yield` inside `{node.name}`, which runs under "
                        "the stripe lock — lock held across the wait",
                    )
                    continue
                if not (isinstance(sub, ast.YieldFrom)
                        and isinstance(sub.value, ast.Call)):
                    continue
                call = sub.value
                if _call_tail(ctx, call) in _BLOCKING_CALLS:
                    yield self.finding(
                        ctx, call,
                        f"blocking `{_call_tail(ctx, call)}` inside "
                        f"`{node.name}`, which runs under the stripe lock "
                        "— lock held across the wait",
                    )
                else:
                    tail = _delegate_tail(call)
                    if tail and not tail.endswith("_locked") \
                            and tail != "serialize_stripe":
                        yield self.finding(
                            ctx, call,
                            f"`{node.name}` runs under the stripe lock and "
                            f"delegates to `{tail}`, which is not "
                            "`*_locked` — whatever it waits on is hidden "
                            "from this rule",
                        )
