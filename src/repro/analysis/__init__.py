"""Rule-based static analysis over Python ``ast`` — the ``repro lint`` gate.

The engine's correctness contracts (bit-identical bench rows, per-stripe
lock discipline, zero-copy view lifetimes, allocation-free kernel hot
paths) are runtime-enforced at best and convention-enforced at worst.
This package makes them machine-checked at review time: every rule
encodes one engine invariant, fires with a per-finding fix-it message,
and can be silenced only by an inline suppression that *states a reason*
(``# repro-lint: allow(<rule>) -- <why this is safe here>``).  Unused
suppressions are themselves findings, so the suppression inventory can
never rot.

See ``docs/lint.md`` for the rule catalogue and the invariant each rule
family encodes.
"""

from repro.analysis.core import (
    FileContext,
    Finding,
    LintConfig,
    Rule,
    Suppression,
    analyze_file,
    analyze_paths,
    iter_python_files,
)
from repro.analysis.reporters import render_github, render_json, render_text
from repro.analysis.rules import all_rules, rules_by_id

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "Rule",
    "Suppression",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "render_github",
    "render_json",
    "render_text",
    "rules_by_id",
]
