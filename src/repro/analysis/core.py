"""Framework core: findings, rules, suppressions, and the file driver.

Design notes
------------

* **Rules are AST visitors over parsed files.**  A rule gets a
  :class:`FileContext` (source, parsed tree, import-alias map, config) and
  yields :class:`Finding`\\ s.  No call graph and no summaries: every
  invariant is checked on one file's AST, except ``rpc-dead-handler``,
  which needs the set of string literals of the whole analysed tree and
  gets it through :meth:`Rule.check_tree` over the same parsed files.

* **Suppressions must carry a reason.**  ``# repro-lint: allow(<rule>) --
  <reason>`` on the offending line (or on its own line directly above)
  silences exactly that rule there.  An ``allow`` without a ``--
  <reason>`` tail is itself a finding, and so is an ``allow`` that
  matched nothing — the gate treats a stale suppression the same way it
  treats a live violation, so the inventory of exceptions can never rot.

* **Determinism of the tool itself.**  File discovery sorts every
  directory listing and findings are reported in a total order, so two
  runs over the same tree emit byte-identical reports — the linter obeys
  the invariant it enforces.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    suppress_reason: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fixit": self.fixit,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }


@dataclass(frozen=True)
class LintConfig:
    """Scoping knobs.  Defaults describe the shipped tree; tests override."""

    # Modules under hot-path hygiene (PR 4's hand-optimised kernel files).
    # Matched as posix-path suffixes of the analyzed file.
    hot_module_suffixes: Tuple[str, ...] = (
        "repro/sim/core.py",
        "repro/sim/events.py",
    )
    # Path fragments that exclude a file from analysis entirely.
    exclude_parts: Tuple[str, ...] = ("__pycache__",)
    # Name fragments identifying payload-plane mode flags (ghost_dataplane
    # and friends).  The plane-branch rule flags branches on these inside
    # generator functions: plane selection is an __init__-time binding
    # decision, never a per-event one.
    plane_flag_markers: Tuple[str, ...] = ("ghost",)
    # ``__init__.py`` re-exports names on purpose; the dead-import rule
    # skips them unless configured otherwise.
    dead_import_skip_init: bool = True


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
    try:
        for tok in tokenize.generate_tokens(io.StringIO(src).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.start[1], tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable tail (analyze_file already reports parse errors);
        # fall back to a crude per-line scan so suppressions near the
        # breakage still resolve.
        for i, raw in enumerate(lines):
            idx = raw.find("#")
            if idx >= 0:
                yield i + 1, idx, raw[idx:]


def parse_suppressions(lines: Sequence[str]) -> List[Suppression]:
    """Extract suppressions; standalone comments bind to the next code line."""
    out: List[Suppression] = []
    for lineno, col, text in _comment_tokens(lines):
        m = _SUPPRESS_RE.match(text)
        if not m:
            continue
        # Rule lists split on commas *and* bare whitespace: before this,
        # `allow(rule-a rule-b)` parsed as one bogus rule id that matched
        # nothing and then fired `unused-suppression` with a confusing
        # message.
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

    def __init__(self, path: str, source: str, tree: ast.Module,
                 config: LintConfig):
        self.path = path
        self.posix_path = path.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self._aliases: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------
    def path_endswith(self, suffixes: Iterable[str]) -> bool:
        return any(self.posix_path.endswith(s) for s in suffixes)

    @property
    def module_aliases(self) -> Dict[str, str]:
        """Local name -> canonical dotted origin, from every import stmt.

        ``import time as _time`` maps ``_time`` -> ``time``;
        ``from os import urandom`` maps ``urandom`` -> ``os.urandom``.
        Function-local imports are included — rules care about what a name
        *means*, not where it was bound.
        """
        if self._aliases is None:
            aliases: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for a in node.names:
                        aliases[a.asname or a.name.split(".")[0]] = (
                            a.name if a.asname else a.name.split(".")[0]
                        )
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for a in node.names:
                        if a.name == "*":
                            continue
                        aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            self._aliases = aliases
        return self._aliases

    def dotted(self, node: ast.AST) -> Optional[str]:
        """``a.b.c`` for an attribute chain rooted at a Name, else None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def canonical_call(self, call: ast.Call) -> Optional[str]:
        """The called name with import aliases resolved to their origin.

        ``_time.perf_counter()`` -> ``time.perf_counter`` when the file
        holds ``import time as _time``; plain calls resolve through
        ``from``-imports (``urandom()`` -> ``os.urandom``).
        """
        name = self.dotted(call.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        origin = self.module_aliases.get(head)
        if origin is None:
            return name
        return f"{origin}.{rest}" if rest else origin


class Rule:
    """Base class: one rule = one id, one invariant, one fix-it recipe."""

    id: str = ""
    family: str = ""
    description: str = ""
    fixit: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Findings in one file (most rules implement only this)."""
        return iter(())

    def check_tree(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        """Findings that need every analysed file at once."""
        return iter(())

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                fixit: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            fixit=fixit if fixit is not None else self.fixit,
        )


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str],
                      config: Optional[LintConfig] = None) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` in a deterministic order."""
    config = config or LintConfig()

    def excluded(p: str) -> bool:
        posix = p.replace(os.sep, "/")
        return any(part in posix for part in config.exclude_parts)

    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and not excluded(path):
                yield path
            continue
        # repro-lint: allow(det-set-order) -- dirnames/filenames are sorted in the loop body; traversal order is pinned
        for dirpath, dirnames, filenames in os.walk(path):
            # Sorted traversal: the report (and any unused-suppression
            # diff) must not depend on readdir order.
            dirnames.sort()
            for fn in sorted(filenames):
                full = os.path.join(dirpath, fn)
                if fn.endswith(".py") and not excluded(full):
                    yield full


def load_context(path: str, config: Optional[LintConfig] = None,
                 source: Optional[str] = None,
                 ) -> Tuple[Optional[FileContext], List[Finding]]:
    """Read and parse one file.

    Returns ``(ctx, [])`` on success, ``(None, [parse-error finding])``
    when the file does not parse.
    """
    config = config or LintConfig()
    if source is None:
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
    return FileContext(path, source, tree, config), []


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
                f.suppress_reason = sup.reason
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
            # `allow()` with no rule ids suppresses nothing and, before
            # this audit existed, produced no finding either — silent
            # dead weight in the exception inventory.
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
            if rule_id not in sup.used_rules:
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
        for ctx in ctxs:
            by_path[ctx.path].extend(rule.check(ctx))
        for f in rule.check_tree(ctxs):
            by_path[f.path].append(f)
    findings: List[Finding] = []
    for ctx in ctxs:
        suppressions = parse_suppressions(ctx.lines)
        apply_suppressions(by_path[ctx.path], suppressions)
        findings.extend(by_path[ctx.path])
        findings.extend(audit_suppressions(ctx.path, suppressions))
    return findings


def analyze_file(path: str, rules: Sequence[Rule],
                 config: Optional[LintConfig] = None,
                 source: Optional[str] = None) -> List[Finding]:
    """Run ``rules`` over one file; tree-wide rules see only this file."""
    ctx, errors = load_context(path, config, source)
    return errors if ctx is None else _analyze([ctx], rules)


def analyze_paths(paths: Sequence[str], rules: Sequence[Rule],
                  config: Optional[LintConfig] = None) -> List[Finding]:
    """Analyze every Python file under ``paths``; total-ordered findings."""
    config = config or LintConfig()
    ctxs: List[FileContext] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths, config):
        ctx, errors = load_context(path, config)
        findings.extend(errors)
        if ctx is not None:
            ctxs.append(ctx)
    findings.extend(_analyze(ctxs, rules))
    findings.sort(key=Finding.sort_key)
    return findings
