"""The rules: the bug classes that no gate which runs the model catches.

``docs/lint_audit.md`` is the measurement behind this list.  A rule
stays only while some mutant of its bug class passes ``tests/`` and
still changes what the model computes or costs; every other class is
caught by a test that runs the model, and its rule was deleted.  Two
bug classes survive:

* ``rpc-dead-handler`` — a handler registered for a message kind nothing
  sends.  It changes nothing the model computes, so no dynamic gate can
  see it.  The check is over string literals, not calls: a kind is dead
  when its literal appears nowhere in the analysed tree except in its
  own ``register(kind, handler)`` call, so a helper that takes ``kind``
  as a parameter keeps every kind alive (the literal is at its call
  site).  Run it over the whole tree (``repro lint src``).
* ``hot-fstring``, ``hot-closure``, ``hot-alloc`` — string formatting, a
  lambda or nested def, or a comprehension in a function of the kernel
  modules (``sim/core.py``, ``sim/events.py``), which run once per
  kernel transition.  Such a mutant changes nothing the model computes,
  so every gate passes, yet it costs measurable host CPU per simulated
  request.  Cold subtrees are exempt by construction: anything inside a
  ``raise``, inside the arguments of a ``fail(...)`` / ``_crash(...)``
  call (both mark a process or the simulation dying), or inside
  ``__repr__`` never runs on the steady-state path.  Everything else
  needs a written suppression.
"""

from __future__ import annotations

import ast
import os
from collections import Counter
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.core import FileContext, Finding, Rule


class DeadHandlerRule(Rule):
    id = "rpc-dead-handler"
    fixit = ("delete the registration and its handler (or fix the kind "
             "string at the sender)")

    def check(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        uses: Counter = Counter()
        regs: List[Tuple[FileContext, ast.Constant]] = []
        for ctx in ctxs:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Constant) and isinstance(
                        node.value, str):
                    uses[node.value] += 1
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "register" and node.args
                      and isinstance(node.args[0], ast.Constant)
                      and isinstance(node.args[0].value, str)):
                    regs.append((ctx, node.args[0]))
        registered = Counter(lit.value for _ctx, lit in regs)
        for ctx, lit in regs:
            if uses[lit.value] == registered[lit.value]:
                yield self.finding(
                    ctx, lit,
                    f"handler registered for kind `{lit.value}` but the "
                    "string appears nowhere else in the analysed tree",
                )


# The modules whose functions run once per kernel transition, matched as
# posix-path suffixes of the analysed file.
HOT_MODULES = ("repro/sim/core.py", "repro/sim/events.py")
# Calls whose arguments build a dying process's exception: cold.
_COLD_CALL_TAILS = ("fail", "_crash")


def _tail(func: ast.AST) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _hot_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """The nodes under ``node`` on the steady-state path: not inside a
    ``raise`` or the arguments of a ``fail(...)`` / ``_crash(...)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            continue
        yield child
        if not (isinstance(child, ast.Call)
                and _tail(child.func) in _COLD_CALL_TAILS):
            yield from _hot_nodes(child)


class _HotPathRule(Rule):
    """Reports :meth:`offence` over every hot function's steady-state
    nodes: the top-level and method defs of :data:`HOT_MODULES` except
    ``__repr__`` (a nested def is not a root of its own)."""

    def offence(self, node: ast.AST) -> str:
        raise NotImplementedError

    def check(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        for ctx in ctxs:
            if not ctx.path.replace(os.sep, "/").endswith(HOT_MODULES):
                continue
            stack: List[ast.AST] = [ctx.tree]
            while stack:
                for child in ast.iter_child_nodes(stack.pop()):
                    if isinstance(child, (ast.ClassDef, ast.If, ast.Try)):
                        stack.append(child)
                    elif (isinstance(child, ast.FunctionDef)
                          and child.name != "__repr__"):
                        for node in _hot_nodes(child):
                            what = self.offence(node)
                            if what:
                                yield self.finding(
                                    ctx, node,
                                    f"{what} in hot function `{child.name}`")


class HotPathFStringRule(_HotPathRule):
    id = "hot-fstring"
    fixit = ("drop the formatted string from the hot path (static str or "
             "no name at all); error paths may build messages inside "
             "`raise`/`fail(...)` where this rule does not look")

    def offence(self, node: ast.AST) -> str:
        if isinstance(node, ast.JoinedStr):
            return "f-string"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "format"
                and isinstance(node.func.value, ast.Constant)
                and isinstance(node.func.value.value, str)):
            return "str.format()"
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)):
            return "%-formatting"
        return ""


class HotPathClosureRule(_HotPathRule):
    id = "hot-closure"
    fixit = ("hoist to a module-level function or a slotted record class "
             "with a bound-method callback")

    def offence(self, node: ast.AST) -> str:
        if isinstance(node, ast.Lambda):
            return "closure (lambda)"
        return "closure (def)" if isinstance(node, ast.FunctionDef) else ""


class HotPathAllocRule(_HotPathRule):
    id = "hot-alloc"
    fixit = ("replace with an explicit loop over a preallocated structure, "
             "or suppress with a reason if the function provably runs "
             "once per completion rather than per transition")

    def offence(self, node: ast.AST) -> str:
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            return "comprehension"
        return ""


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule (rules are stateless)."""
    return [DeadHandlerRule(), HotPathFStringRule(), HotPathClosureRule(),
            HotPathAllocRule()]
