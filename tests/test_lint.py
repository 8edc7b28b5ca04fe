"""Tests for ``repro.analysis`` / the ``repro lint`` gate.

Every rule is proven against a known-positive and known-negative fixture
(``tests/lint_fixtures/``), the suppression discipline is exercised end
to end (reasons required, stale allows flagged, docstring mentions
inert), and the shipped tree itself must pass ``--strict`` — the same
check CI runs.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_file, analyze_paths, rules
from repro.analysis.command import render_text
from repro.analysis.core import META_RULES, parse_suppressions
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = str(Path(__file__).parents[1] / "src")


def lint(name):
    return analyze_file(str(FIXTURES / name), all_rules())


def rule_counts(findings, active_only=True):
    return Counter(
        f.rule for f in findings if not (active_only and f.suppressed)
    )


# ----------------------------------------------------------------------
# rules: each fires on its positive corpus, stays silent on the
# negative one
# ----------------------------------------------------------------------
def test_rpc_rule_fires():
    findings = [f for f in lint("rpc_positive.py") if not f.suppressed]
    assert [(f.rule, f.line) for f in findings] == [("rpc-dead-handler", 7)]
    assert "`orphan`" in findings[0].message


def test_rpc_rule_negative():
    # Kinds sent through a helper that takes `kind` as a parameter stay
    # alive: the literal is at the helper's call site.
    assert rule_counts(lint("rpc_negative.py")) == {}


def test_rpc_rule_sees_the_whole_tree():
    # A kind registered in one file and sent from another is alive only
    # when both files are analysed together.
    alone = analyze_file(str(FIXTURES / "rpc_positive.py"), all_rules())
    both = analyze_paths([str(FIXTURES / "rpc_positive.py"),
                          str(FIXTURES / "rpc_negative.py")], all_rules())
    assert rule_counts(alone) == rule_counts(both) == {"rpc-dead-handler": 1}


@pytest.fixture
def hot_fixtures(monkeypatch):
    """Point the hot-path rules at the hot fixtures."""
    monkeypatch.setattr(rules, "HOT_MODULES", (
        "lint_fixtures/hot_positive.py", "lint_fixtures/hot_negative.py",
    ))


def test_hotpath_rules_fire(hot_fixtures):
    counts = rule_counts(lint("hot_positive.py"))
    assert counts == {
        "hot-fstring": 3, "hot-closure": 1, "hot-alloc": 1,
    }


def test_hotpath_rules_negative(hot_fixtures):
    # raise subtrees, fail(...) arguments, and __repr__ are cold.
    assert rule_counts(lint("hot_negative.py")) == {}


def test_hotpath_rules_scoped_to_hot_modules():
    # Outside the kernel modules nothing fires at all.
    assert rule_counts(lint("hot_positive.py")) == {}


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_reasoned_suppressions_silence_findings():
    findings = lint("suppress_ok.py")
    assert [f for f in findings if not f.suppressed] == []
    assert rule_counts(findings, active_only=False) == {
        "rpc-dead-handler": 2,
    }


def test_docstring_mention_is_not_a_suppression():
    # suppress_ok.py quotes the allow() syntax inside its docstring; a
    # line-based scanner would register (and then flag) a stale allow.
    findings = lint("suppress_ok.py")
    assert not any(f.rule == "unused-suppression" for f in findings)


def test_suppression_audit_findings():
    counts = rule_counts(lint("suppress_bad.py"))
    assert counts == {
        "suppression-missing-reason": 1,  # allow() without -- <reason>
        "unused-suppression": 2,          # stale allow + wrong rule id
        "rpc-dead-handler": 1,            # the violation the wrong id missed
    }


def test_suppression_syntax_fixture():
    findings = lint("suppress_syntax.py")
    assert rule_counts(findings) == {
        "suppression-syntax": 1,   # allow() names no rules
        "rpc-dead-handler": 1,     # ...so the handler under it stays active
        "unused-suppression": 1,   # the listed rule that did not fire
    }
    suppressed = rule_counts(findings, active_only=False) - \
        rule_counts(findings)
    # The space-separated two-rule allow consumed the rule that fired.
    assert suppressed == {"rpc-dead-handler": 1}


def test_suppression_syntax_has_fixit():
    syn = [f for f in lint("suppress_syntax.py")
           if f.rule == "suppression-syntax"]
    assert len(syn) == 1 and syn[0].fixit
    assert "allow(" in syn[0].fixit


def test_standalone_suppression_binds_to_next_code_line():
    sups = parse_suppressions([
        "# repro-lint: allow(rpc-dead-handler) -- why",
        "# an ordinary comment in between",
        "",
        'self.register("probe", self._h_probe)',
    ])
    assert len(sups) == 1
    assert sups[0].target_line == 4
    assert sups[0].rules == ("rpc-dead-handler",)
    assert sups[0].reason == "why"


def test_same_line_suppression_with_rule_list():
    sups = parse_suppressions([
        "x = 1  # repro-lint: allow(rpc-dead-handler, other-rule) -- both",
    ])
    assert len(sups) == 1
    assert sups[0].target_line == 1
    assert sups[0].rules == ("rpc-dead-handler", "other-rule")


# ----------------------------------------------------------------------
# drivers and reporters
# ----------------------------------------------------------------------
def test_analyze_paths_is_deterministic():
    first = analyze_paths([str(FIXTURES)], all_rules())
    second = analyze_paths([str(FIXTURES)], all_rules())
    assert first == second
    keys = [f.sort_key() for f in first]
    assert keys == sorted(keys)


def test_parse_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = analyze_file(str(bad), all_rules())
    assert [f.rule for f in findings] == ["parse-error"]


def test_render_text_shape():
    findings = lint("rpc_positive.py")
    out = render_text(findings)
    assert "rpc_positive.py:7:" in out
    assert "[rpc-dead-handler]" in out
    assert "fix:" in out
    assert out.endswith("1 finding(s)")


def test_every_rule_has_fixture_coverage(hot_fixtures):
    # The registry and the fixture corpus must not drift apart: every
    # registered rule id fires somewhere in the positive fixtures.
    fired = set()
    for name in ("rpc_positive.py", "hot_positive.py"):
        fired |= set(rule_counts(lint(name)))
    registered = {r.id for r in all_rules()}
    assert registered <= fired


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(capsys, tmp_path):
    fixture = str(FIXTURES / "rpc_positive.py")
    clean = str(FIXTURES / "rpc_negative.py")
    assert cli_main(["lint", fixture]) == 1
    assert cli_main(["lint", clean]) == 0
    assert cli_main(["lint", "--strict", clean]) == 0
    assert cli_main(["lint", "/no/such/path"]) == 2
    # A stale allow alone fails the run: there is one mode.
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # repro-lint: allow(rpc-dead-handler) -- stale\n")
    assert cli_main(["lint", str(stale)]) == 1
    capsys.readouterr()


def test_cli_github_format(capsys):
    code = cli_main(["lint", "--format", "github",
                     str(FIXTURES / "suppress_bad.py")])
    out = capsys.readouterr().out
    assert code == 1
    errors = [ln for ln in out.splitlines() if ln.startswith("::error ")]
    assert len(errors) == 4
    assert all("file=" in ln and "line=" in ln and "col=" in ln
               for ln in errors)
    assert "title=repro-lint rpc-dead-handler" in out
    assert "title=repro-lint unused-suppression" in out


def test_meta_rules_are_registered_nowhere():
    # Audit findings come from the framework, not the registry — they can
    # never be suppressed by rule id.
    registered = {r.id for r in all_rules()}
    assert registered.isdisjoint(META_RULES)


# ----------------------------------------------------------------------
# the gate itself: the shipped tree is lint-clean under --strict
# ----------------------------------------------------------------------
def test_shipped_tree_is_strict_clean(capsys):
    assert cli_main(["lint", "--strict", REPO_SRC]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_lint_imports_no_engine():
    # A fresh interpreter: the lint command must not pull numpy in.
    code = ("import sys; from repro.cli import main; "
            f"main(['lint', {str(FIXTURES / 'rpc_negative.py')!r}]); "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": REPO_SRC})
    assert proc.returncode == 0, proc.stderr
