"""RPC protocol rule: a registered handler needs a sender.

A handler registered for a message kind nothing sends is dead protocol
surface that rots silently.  The check is over string literals, not
calls: a kind is dead when its literal appears nowhere in the analysed
tree except in its own ``register(kind, handler)`` call.  A helper that
takes ``kind`` as a parameter (the in-place family's parity fan-out)
keeps every kind alive, because the literal is still written at the
helper's call site.  Run it over the whole tree (``repro lint src``): a
kind sent from another file is dead when that file is not analysed.

The inverse — a send whose kind has no handler — needs no lint: the
transport fails the caller at the first such send
(``tests/test_fs_messages.py::test_missing_handler_fails_caller``).
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.core import FileContext, Finding, Rule


class DeadHandlerRule(Rule):
    id = "rpc-dead-handler"
    family = "rpc"
    description = ("a handler is registered for a message kind whose "
                   "string appears nowhere else in the analysed tree — "
                   "nothing can send it")
    fixit = ("delete the registration and its handler (or fix the kind "
             "string at the sender)")

    def check_tree(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
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
