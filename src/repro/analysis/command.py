"""The ``repro lint`` command body (``repro.cli`` declares its options).
Imports only the analysis package and stdlib: a lint run must not drag the
engine (numpy, harness) in."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.analysis.cache import DEFAULT_CACHE_NAME
from repro.analysis.core import (
    SUPPRESSION_MISSING_REASON,
    SUPPRESSION_SYNTAX,
    UNUSED_SUPPRESSION,
    ProjectRule,
    analyze_paths,
)
from repro.analysis.graph import graph_dump
from repro.analysis.project import analyze_project
from repro.analysis.reporters import render_github, render_json, render_text
from repro.analysis.rules import rules_by_id


def _git_changed_files():
    """Absolute paths of files changed vs HEAD (staged, unstaged, new).

    Returns None when not in a git checkout — ``lint --changed`` is a
    pre-commit convenience and refuses to guess.
    """

    def run(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True,
        ).stdout

    try:
        top = run("rev-parse", "--show-toplevel").strip()
        listed = run("diff", "--name-only", "HEAD") + \
            run("ls-files", "--others", "--exclude-standard")
    except (OSError, subprocess.CalledProcessError):
        return None
    return {
        os.path.join(top, line.strip())
        for line in listed.splitlines() if line.strip()
    }


def run_lint(args) -> int:
    """Analyze ``args.paths``, print the report, return the exit code."""
    try:
        selected = list(rules_by_id(args.rules).values())
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rules = [r for r in selected if not isinstance(r, ProjectRule)]
    prules = [r for r in selected if isinstance(r, ProjectRule)]
    if not args.ipd:
        prules = []
    if args.list_rules:
        for rule in rules + prules:
            print(f"{rule.id:26s} [{rule.family}] {rule.description}")
        return 0
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2

    changed = None
    if args.changed:
        changed = _git_changed_files()
        if changed is None:
            print("--changed needs a git checkout (git diff failed)",
                  file=sys.stderr)
            return 2

    if prules or args.graph_dump:
        cache_path = None
        if not args.no_cache:
            cache_path = args.cache
            if cache_path is None:
                root = args.paths[0]
                base = root if os.path.isdir(root) \
                    else os.path.dirname(root) or "."
                cache_path = os.path.join(
                    os.path.dirname(os.path.abspath(base)) or ".",
                    DEFAULT_CACHE_NAME,
                )
        result = analyze_project(
            args.paths, rules, prules,
            cache_path=cache_path, changed=changed,
        )
        findings = result.findings
        if args.graph_dump:
            with open(args.graph_dump, "w", encoding="utf-8") as fh:
                json.dump(graph_dump(result.project), fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.graph_dump}", file=sys.stderr)
    else:
        findings = analyze_paths(args.paths, rules)
        if changed is not None:
            real = {os.path.realpath(c) for c in changed}
            findings = [f for f in findings
                        if os.path.realpath(f.path) in real]
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
