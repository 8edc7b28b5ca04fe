"""Rule registry: every shipped rule, grouped by family.

Adding a rule = subclass :class:`repro.analysis.core.Rule`, give it a
unique kebab-case ``id`` and a ``family``, and list it in
:func:`all_rules`.  The CLI, the reporters and the fixture tests all
discover rules through this function, so registration is the single
point of truth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.core import Rule
from repro.analysis.rules.aliasing import ViewAcrossYieldRule, ViewEscapeRule
from repro.analysis.rules.baseline import DeadImportRule, UnreachableCodeRule
from repro.analysis.rules.determinism import (
    EntropyRule,
    UnorderedIterationRule,
    WallClockRule,
)
from repro.analysis.rules.hotpath import (
    HotPathAllocRule,
    HotPathClosureRule,
    HotPathFStringRule,
)
from repro.analysis.rules.locks import (
    NestedSerializeRule,
    UnserializedRMWRule,
    YieldWhileLockedRule,
)
from repro.analysis.rules.plane import PlaneBranchRule
from repro.analysis.rules.rpc import DeadHandlerRule


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule (rules are stateless)."""
    return [
        # determinism — bit-identical bench rows depend on these
        WallClockRule(),
        EntropyRule(),
        UnorderedIterationRule(),
        # lock discipline — per-stripe serialization contract
        UnserializedRMWRule(),
        NestedSerializeRule(),
        YieldWhileLockedRule(),
        # zero-copy aliasing — view lifetime across yields
        ViewAcrossYieldRule(),
        ViewEscapeRule(),
        # payload-plane discipline — generators stay plane-blind
        PlaneBranchRule(),
        # hot-path hygiene — the hand-optimised kernel files
        HotPathFStringRule(),
        HotPathClosureRule(),
        HotPathAllocRule(),
        # baseline hygiene — pyflakes-style floor
        DeadImportRule(),
        UnreachableCodeRule(),
        # rpc — a registered handler needs a sender (over the whole tree)
        DeadHandlerRule(),
    ]


def rules_by_id(ids: Optional[Sequence[str]] = None) -> Dict[str, Rule]:
    """Registered rules keyed by id, optionally restricted to ``ids``."""
    table: Dict[str, Rule] = {rule.id: rule for rule in all_rules()}
    if ids is None:
        return table
    unknown = sorted(set(ids) - set(table))
    if unknown:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown rule id(s) {unknown}; known: {known}")
    return {rid: table[rid] for rid in ids}
