"""The ``repro lint`` command body (``repro.cli`` declares its options).
Imports only the analysis package and stdlib: a lint run must not drag the
engine (numpy, harness) in."""

from __future__ import annotations

import os
import sys
from typing import List, Sequence

from repro.analysis.core import Finding, analyze_paths
from repro.analysis.rules import all_rules


def render_text(findings: Sequence[Finding]) -> str:
    """The human report: location, rule, message, then a fix-it line."""
    out: List[str] = []
    for f in findings:
        out.append(f"{f.path}:{f.line}:{f.col}: [{f.rule}] {f.message}")
        out.append(f"    fix: {f.fixit}")
    out.append(f"{len(findings)} finding(s)")
    return "\n".join(out)


def _gha_escape(value: str, property_value: bool = False) -> str:
    """GitHub Actions workflow-command data escaping."""
    out = value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        out = out.replace(":", "%3A").replace(",", "%2C")
    return out


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions ``::error`` annotations, one per finding, so the CI
    lint job's findings render inline on the PR diff."""
    out: List[str] = []
    for f in findings:
        out.append(
            "::error file={file},line={line},col={col},title={title}::"
            "{message}".format(
                file=_gha_escape(f.path, property_value=True),
                line=f.line,
                col=f.col,
                title=_gha_escape(f"repro-lint {f.rule}",
                                  property_value=True),
                message=_gha_escape(f"[{f.rule}] {f.message} | fix: {f.fixit}"),
            )
        )
    out.append(f"{len(findings)} finding(s)")
    return "\n".join(out)


def run_lint(args) -> int:
    """Analyze ``args.paths``, print the report, return the exit code:
    1 on any unsuppressed finding — suppression-audit findings (unused
    allows, allows without a reason) and parse errors included."""
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2
    active = [f for f in analyze_paths(args.paths, all_rules())
              if not f.suppressed]
    render = render_github if args.format == "github" else render_text
    print(render(active))
    return 1 if active else 0
