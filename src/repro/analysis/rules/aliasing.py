"""Zero-copy aliasing rules.

The invariant (PR 4's zero-copy data plane): ``read_range`` / ``peek`` /
log-index ``lookup*`` return **read-only views of live buffers**, valid
only until the next write to the underlying block — in practice, until
the next ``yield``, because any other process may run then and overwrite
the bytes.  Code must either consume a view synchronously (compute the
delta before yielding) or take an explicit snapshot (``.copy()`` /
``bytes(...)``) before parking.  Violations are silent use-after-
overwrite: the scenario completes, the parity is wrong, and only the
drain-consistency gate catches it — a full bench run later.

Two rules:

* ``alias-view-across-yield`` — a local variable bound to a view is read
  after a later yield point without an intervening snapshot;
* ``alias-view-escape`` — a view is stored onto an object attribute
  (``self.x = ...read_range(...)``), escaping the statement scope where
  its validity can be reasoned about at all.

The first rule is a linear, source-order scan (loops are treated
textually); that is the usual lint trade-off, and suppressions with
reasons cover the rare intentional case.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.vocab import view_call as _view_call


def _direct_view_source(node: ast.AST) -> Optional[str]:
    """Source description when ``node`` is a direct view-returning call."""
    call = _view_call(node)
    return call.func.attr if call is not None else None


class _Taint:
    __slots__ = ("epoch", "source", "line")

    def __init__(self, epoch: int, source: str, line: int):
        self.epoch = epoch
        self.source = source
        self.line = line


class _FunctionScan:
    """Source-order event scan of one function body."""

    def __init__(self, rule: Rule, ctx: FileContext, func: ast.FunctionDef):
        self.rule = rule
        self.ctx = ctx
        self.func = func
        self.epoch = 0
        self.taints: Dict[str, _Taint] = {}
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for stmt in self.func.body:
            self._visit(stmt)
        return self.findings

    # ------------------------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # nested scopes have their own scan / own variables
        if isinstance(node, ast.Assign):
            self._visit(node.value)
            self._assign(node.targets, node.value)
            return
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            self._visit(node.value)
            self._assign([node.target], node.value)
            return
        if isinstance(node, ast.AugAssign):
            self._visit(node.value)
            self._use_names(node.target)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._visit(node.value)
            self.epoch += 1
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._use(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _assign(self, targets: List[ast.AST], value: ast.AST) -> None:
        source = _direct_view_source(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if source is not None:
                    self.taints[target.id] = _Taint(
                        self.epoch, source, target.lineno
                    )
                else:
                    # Any other reassignment (including an explicit
                    # snapshot `x = x.copy()`) detaches the name.
                    self.taints.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.taints.pop(elt.id, None)

    def _use_names(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                self._use(sub)

    def _use(self, node: ast.Name) -> None:
        taint = self.taints.get(node.id)
        if taint is None or taint.epoch == self.epoch:
            return
        self.findings.append(self.rule.finding(
            self.ctx, node,
            f"`{node.id}` holds a zero-copy view from `{taint.source}` "
            f"(line {taint.line}) and is read after a yield point — the "
            "underlying buffer may have been overwritten",
        ))
        del self.taints[node.id]  # one report per tainted binding


class ViewAcrossYieldRule(Rule):
    id = "alias-view-across-yield"
    family = "aliasing"
    description = ("a read_range/peek/lookup view used after a later yield "
                   "point without an explicit snapshot is use-after-"
                   "overwrite")
    fixit = ("snapshot before parking: `x = x.copy()` (ndarray) or "
             "`x = bytes(x)`; or consume the view synchronously before "
             "the yield")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _FunctionScan(self, ctx, node).run()


class ViewEscapeRule(Rule):
    id = "alias-view-escape"
    family = "aliasing"
    description = ("storing a zero-copy view on an attribute lets it "
                   "outlive every lifetime bound the contract gives it")
    fixit = ("store a snapshot instead: `self.x = (...).copy()` — or keep "
             "the view local and consume it synchronously")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            call = _view_call(value)
            if call is None:
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    yield self.finding(
                        ctx, target,
                        f"zero-copy view from `{call.func.attr}` stored "
                        "into a non-local target — it can be read after "
                        "arbitrary later writes to the source buffer",
                    )
