"""The ``repro lint`` command body (``repro.cli`` declares its options).
Imports only the analysis package and stdlib: a lint run must not drag the
engine (numpy, harness) in."""

from __future__ import annotations

import os
import sys

from repro.analysis.core import (
    SUPPRESSION_MISSING_REASON,
    SUPPRESSION_SYNTAX,
    UNUSED_SUPPRESSION,
    analyze_paths,
)
from repro.analysis.reporters import render_github, render_json, render_text
from repro.analysis.rules import rules_by_id


def run_lint(args) -> int:
    """Analyze ``args.paths``, print the report, return the exit code."""
    try:
        rules = list(rules_by_id(args.rules).values())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id:26s} [{rule.family}] {rule.description}")
        return 0
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2

    findings = analyze_paths(args.paths, rules)
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "github":
        print(render_github(findings))
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))

    active = [f for f in findings if not f.suppressed]
    if args.strict:
        # Strict is the CI gate: suppression-audit findings (unused
        # allows, allows without a reason, malformed allows) fail too.
        return 1 if active else 0
    # Non-strict: suppression-audit findings print but do not set the
    # exit code.  A parse error is NOT audit noise — the file was not
    # analyzed at all, so it fails in both modes.
    audit = (SUPPRESSION_MISSING_REASON, UNUSED_SUPPRESSION,
             SUPPRESSION_SYNTAX)
    return 1 if [f for f in active if f.rule not in audit] else 0
