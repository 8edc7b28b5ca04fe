"""Framework core: findings, rules, suppressions, and the file driver.

Design notes
------------

* **Rules are AST visitors over parsed files.**  A rule gets the
  :class:`FileContext` (path, source lines, parsed tree) of every
  analysed file and yields :class:`Finding`\\ s.  No call graph and no
  summaries: ``rpc-dead-handler`` needs only the string literals of the
  whole analysed tree.

* **Suppressions must carry a reason.**  ``# repro-lint: allow(<rule>) --
  <reason>`` on the offending line (or on its own line directly above)
  silences exactly that rule there.  An ``allow`` without a ``--
  <reason>`` tail is itself a finding, and so is an ``allow`` that
  matched nothing — the gate treats a stale suppression the same way it
  treats a live violation, so the inventory of exceptions can never rot.

* **Determinism of the tool itself.**  File discovery sorts every
  directory listing and findings are reported in a total order, so two
  runs over the same tree emit byte-identical reports.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Meta rule ids emitted by the framework itself (not registered rules).
SUPPRESSION_MISSING_REASON = "suppression-missing-reason"
UNUSED_SUPPRESSION = "unused-suppression"
SUPPRESSION_SYNTAX = "suppression-syntax"
PARSE_ERROR = "parse-error"
META_RULES = (SUPPRESSION_MISSING_REASON, UNUSED_SUPPRESSION,
              SUPPRESSION_SYNTAX, PARSE_ERROR)


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    fixit: str
    suppressed: bool = False

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*allow\(\s*([^)]*?)\s*\)\s*(?:--\s*(\S.*))?$"
)


@dataclass
class Suppression:
    """One parsed ``# repro-lint: allow(...)`` comment."""

    comment_line: int          # 1-based line the comment sits on
    target_line: int           # line whose findings it suppresses
    rules: Tuple[str, ...]
    reason: Optional[str]
    used_rules: set = field(default_factory=set)


def _comment_tokens(
    lines: Sequence[str],
) -> Iterator[Tuple[int, int, str]]:
    """(lineno, col, text) for every *real* comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps suppression
    syntax quoted inside docstrings or string literals from being parsed
    as a live suppression.
    """
    src = "\n".join(lines) + "\n"
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.start[1], tok.string


def parse_suppressions(lines: Sequence[str]) -> List[Suppression]:
    """Extract suppressions; standalone comments bind to the next code line."""
    out: List[Suppression] = []
    for lineno, col, text in _comment_tokens(lines):
        m = _SUPPRESS_RE.match(text)
        if not m:
            continue
        # Rule lists split on commas *and* bare whitespace.
        rules = tuple(r for r in re.split(r"[\s,]+", m.group(1)) if r)
        reason = m.group(2).strip() if m.group(2) else None
        target = lineno
        if not lines[lineno - 1][:col].strip():
            # Standalone comment: applies to the next non-blank,
            # non-comment line (stacked suppressions skip each other).
            for j in range(lineno, len(lines)):
                stripped = lines[j].strip()
                if stripped and not stripped.startswith("#"):
                    target = j + 1
                    break
        out.append(Suppression(lineno, target, rules, reason))
    return out


class FileContext:
    """Everything a rule needs to check one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.lines = source.splitlines()
        self.tree = tree


class Rule:
    """Base class: one rule = one id, one invariant, one fix-it recipe."""

    id: str = ""
    fixit: str = ""

    def check(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        """Findings over every analysed file."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            fixit=self.fixit,
        )


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in a deterministic order."""
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            # Sorted traversal: the report (and any unused-suppression
            # diff) must not depend on readdir order.
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    yield os.path.join(dirpath, fn)


def load_context(path: str) -> Tuple[Optional[FileContext], List[Finding]]:
    """Read and parse one file.

    Returns ``(ctx, [])`` on success, ``(None, [parse-error finding])``
    when the file does not parse.
    """
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, [Finding(
            rule=PARSE_ERROR, path=path, line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            message=f"cannot parse: {exc.msg}",
            fixit="fix the syntax error; unparseable files are unanalyzable "
                  "and fail the gate",
        )]
    return FileContext(path, source, tree), []


def apply_suppressions(findings: Sequence[Finding],
                       suppressions: Sequence[Suppression]) -> None:
    """Mark suppressed findings in place; record rule usage on the allows."""
    by_line: Dict[int, List[Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.target_line, []).append(sup)
    for f in findings:
        for sup in by_line.get(f.line, ()):
            if f.rule in sup.rules:
                f.suppressed = True
                sup.used_rules.add(f.rule)
                break


def audit_suppressions(path: str,
                       suppressions: Sequence[Suppression]) -> List[Finding]:
    """Meta findings: malformed, unjustified, and dead suppressions.

    Run *after* :func:`apply_suppressions` over this file's findings.
    """
    findings: List[Finding] = []
    for sup in suppressions:
        if not sup.rules:
            findings.append(Finding(
                rule=SUPPRESSION_SYNTAX, path=path,
                line=sup.comment_line, col=1,
                message="allow() names no rules — it suppresses nothing",
                fixit="write `allow(<rule-id>[, <rule-id>...]) -- <reason>` "
                      "or delete the comment",
            ))
            continue
        if sup.reason is None:
            findings.append(Finding(
                rule=SUPPRESSION_MISSING_REASON, path=path,
                line=sup.comment_line, col=1,
                message="suppression has no justification "
                        f"(allow({', '.join(sup.rules)}) without `-- <reason>`)",
                fixit="append `-- <why this is safe here>` to the allow() "
                      "comment; unexplained exceptions do not pass review",
            ))
        for rule_id in sup.rules:
            if rule_id in sup.used_rules:
                continue
            findings.append(Finding(
                rule=UNUSED_SUPPRESSION, path=path,
                line=sup.comment_line, col=1,
                message=f"allow({rule_id}) matched no finding on line "
                        f"{sup.target_line}",
                fixit="delete the stale allow() (or fix its rule name); "
                      "dead suppressions hide future violations",
            ))
    return findings


def _analyze(ctxs: Sequence[FileContext],
             rules: Sequence[Rule]) -> List[Finding]:
    """Every rule over ``ctxs``; suppressions applied and audited per file."""
    by_path: Dict[str, List[Finding]] = {ctx.path: [] for ctx in ctxs}
    for rule in rules:
        for f in rule.check(ctxs):
            by_path[f.path].append(f)
    findings: List[Finding] = []
    for ctx in ctxs:
        suppressions = parse_suppressions(ctx.lines)
        apply_suppressions(by_path[ctx.path], suppressions)
        findings.extend(by_path[ctx.path])
        findings.extend(audit_suppressions(ctx.path, suppressions))
    return findings


def analyze_file(path: str, rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over one file as if it were the whole tree."""
    ctx, errors = load_context(path)
    return errors if ctx is None else _analyze([ctx], rules)


def analyze_paths(paths: Sequence[str], rules: Sequence[Rule]) -> List[Finding]:
    """Analyze every Python file under ``paths``; total-ordered findings."""
    ctxs: List[FileContext] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        ctx, errors = load_context(path)
        findings.extend(errors)
        if ctx is not None:
            ctxs.append(ctx)
    findings.extend(_analyze(ctxs, rules))
    findings.sort(key=Finding.sort_key)
    return findings
