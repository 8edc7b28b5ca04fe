"""Tests for ``repro.analysis`` / the ``repro lint`` gate.

Every rule family is proven against a known-positive and known-negative
fixture (``tests/lint_fixtures/``), the suppression discipline is
exercised end to end (reasons required, stale allows flagged, docstring
mentions inert), and the shipped tree itself must pass ``--strict`` —
the same check CI runs.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    all_rules,
    analyze_file,
    analyze_paths,
    render_json,
    render_text,
    rules_by_id,
)
from repro.analysis.core import META_RULES, parse_suppressions
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = str(Path(__file__).parents[1] / "src")


def lint(name, rule_ids=None, config=None):
    rules = (list(rules_by_id(rule_ids).values()) if rule_ids
             else all_rules())
    return analyze_file(str(FIXTURES / name), rules, config)


def rule_counts(findings, active_only=True):
    return Counter(
        f.rule for f in findings if not (active_only and f.suppressed)
    )


HOT_CONFIG = LintConfig(hot_module_suffixes=(
    "lint_fixtures/hot_positive.py", "lint_fixtures/hot_negative.py",
))


# ----------------------------------------------------------------------
# rule families: each fires on its positive corpus, stays silent on the
# negative one
# ----------------------------------------------------------------------
def test_determinism_rules_fire():
    counts = rule_counts(lint("det_positive.py"))
    assert counts == {
        "det-wallclock": 2, "det-entropy": 3, "det-set-order": 2,
    }


def test_determinism_rules_negative():
    assert rule_counts(lint("det_negative.py")) == {}


def test_wallclock_resolves_import_aliases():
    findings = lint("det_positive.py", rule_ids=["det-wallclock"])
    assert any("time.perf_counter" in f.message for f in findings)


def test_lock_rules_fire():
    counts = rule_counts(lint("locks_positive.py"))
    assert counts == {
        "lock-rmw-unserialized": 1,
        "lock-nested-serialize": 2,
        "lock-yield-while-locked": 7,
    }


def test_lock_scope_is_closed():
    # The two closed-scope cases: a serialize_stripe body that is not a
    # `*_locked` call, and a `*_locked` body delegating to a helper that
    # is not `*_locked`.  Store I/O through self.osd stays exempt.
    found = {f.line: f.message for f in lint("locks_positive.py")
             if f.rule == "lock-yield-while-locked"}
    assert any("is not a `*_locked` call" in m for m in found.values())
    assert any("delegates to `_pace`" in m for m in found.values())
    assert not any("write_range" in m for m in found.values())
    # The wait is flagged, not the issue: `sent = fan_out(...)` is legal,
    # `yield sent` under the lock is the finding.
    assert not any("fan_out" in m for m in found.values())
    assert sum("`yield` inside `_forward_locked`" in m
               for m in found.values()) == 1


def test_lock_rules_negative():
    assert rule_counts(lint("locks_negative.py")) == {}


def test_aliasing_rules_fire():
    counts = rule_counts(lint("alias_positive.py"))
    assert counts == {
        "alias-view-across-yield": 2, "alias-view-escape": 1,
    }


def test_aliasing_rules_negative():
    assert rule_counts(lint("alias_negative.py")) == {}


def test_hotpath_rules_fire():
    counts = rule_counts(lint("hot_positive.py", config=HOT_CONFIG))
    assert counts == {
        "hot-fstring": 3, "hot-closure": 1, "hot-alloc": 1,
    }


def test_hotpath_rules_negative():
    # raise subtrees, fail(...) arguments, and __repr__ are cold.
    assert rule_counts(lint("hot_negative.py", config=HOT_CONFIG)) == {}


def test_hotpath_rules_scoped_to_hot_modules():
    # Without the config naming this file hot, nothing fires at all.
    assert rule_counts(lint("hot_positive.py")) == {}


def test_plane_rules_fire():
    counts = rule_counts(lint("plane_positive.py"))
    assert counts == {"plane-branch": 3}


def test_plane_rules_negative():
    # Constructors and non-generator helpers may branch on the flag;
    # generators may branch on non-plane flags; only the last dotted
    # component of a test name identifies a plane flag.
    assert rule_counts(lint("plane_negative.py")) == {}


def test_plane_rule_scoped_by_markers():
    # An empty marker tuple disables the rule entirely.
    cfg = LintConfig(plane_flag_markers=())
    assert rule_counts(lint("plane_positive.py", config=cfg)) == {}


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


def test_baseline_rules_fire():
    counts = rule_counts(lint("baseline_positive.py"))
    assert counts == {"dead-import": 3, "unreachable-code": 2}


def test_baseline_rules_negative():
    # __all__ exports, TYPE_CHECKING imports, conditional returns, and the
    # raise-then-bare-yield generator idiom are all clean.
    assert rule_counts(lint("baseline_negative.py")) == {}


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_reasoned_suppressions_silence_findings():
    findings = lint("suppress_ok.py")
    assert [f for f in findings if not f.suppressed] == []
    suppressed = [f for f in findings if f.suppressed]
    assert sorted(f.rule for f in suppressed) == [
        "det-entropy", "det-wallclock",
    ]
    assert all(f.suppress_reason for f in suppressed)


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
        "det-entropy": 1,                 # the violation the wrong id missed
    }


def test_suppression_syntax_fixture():
    findings = lint("suppress_syntax.py")
    assert rule_counts(findings) == {
        "suppression-syntax": 1,   # allow() names no rules
        "det-entropy": 1,          # ...so the call under it stays active
    }
    suppressed = rule_counts(findings, active_only=False) - \
        rule_counts(findings)
    # The space-separated two-rule allow consumed both rules.
    assert suppressed == {"det-wallclock": 1, "det-entropy": 1}


def test_suppression_syntax_has_fixit():
    syn = [f for f in lint("suppress_syntax.py")
           if f.rule == "suppression-syntax"]
    assert len(syn) == 1 and syn[0].fixit
    assert "allow(" in syn[0].fixit


def test_standalone_suppression_binds_to_next_code_line():
    sups = parse_suppressions([
        "# repro-lint: allow(det-wallclock) -- why",
        "# an ordinary comment in between",
        "",
        "t = time.time()",
    ])
    assert len(sups) == 1
    assert sups[0].target_line == 4
    assert sups[0].rules == ("det-wallclock",)
    assert sups[0].reason == "why"


def test_same_line_suppression_with_rule_list():
    sups = parse_suppressions([
        "x = os.urandom(4)  # repro-lint: allow(det-entropy, det-wallclock) -- both",
    ])
    assert len(sups) == 1
    assert sups[0].target_line == 1
    assert sups[0].rules == ("det-entropy", "det-wallclock")


# ----------------------------------------------------------------------
# drivers and reporters
# ----------------------------------------------------------------------
def test_analyze_paths_is_deterministic():
    first = analyze_paths([str(FIXTURES)], all_rules())
    second = analyze_paths([str(FIXTURES)], all_rules())
    assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
    keys = [f.sort_key() for f in first]
    assert keys == sorted(keys)


def test_parse_error_is_a_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings = analyze_file(str(bad), all_rules())
    assert [f.rule for f in findings] == ["parse-error"]


def test_render_text_shape():
    findings = lint("baseline_positive.py")
    out = render_text(findings)
    assert "baseline_positive.py" in out
    assert "[dead-import]" in out and "[unreachable-code]" in out
    assert "fix:" in out
    assert "finding(s)" in out


def test_render_json_round_trips():
    findings = lint("suppress_bad.py")
    payload = json.loads(render_json(findings))
    assert payload["summary"]["total"] == len(findings)
    rules = {f["rule"] for f in payload["findings"]}
    assert "det-entropy" in rules and "unused-suppression" in rules


def test_rules_by_id_rejects_unknown():
    with pytest.raises(ValueError):
        rules_by_id(["no-such-rule"])


def test_every_rule_has_fixture_coverage():
    # The registry and the fixture corpus must not drift apart: every
    # registered rule id fires somewhere in the positive fixtures.
    fired = set()
    for name in ("det_positive.py", "locks_positive.py",
                 "alias_positive.py", "baseline_positive.py",
                 "plane_positive.py", "rpc_positive.py"):
        fired |= set(rule_counts(lint(name)))
    fired |= set(rule_counts(lint("hot_positive.py", config=HOT_CONFIG)))
    registered = {r.id for r in all_rules()}
    assert registered <= fired


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(capsys):
    fixture = str(FIXTURES / "baseline_positive.py")
    clean = str(FIXTURES / "det_negative.py")
    assert cli_main(["lint", fixture]) == 1
    assert cli_main(["lint", clean]) == 0
    assert cli_main(["lint", "--strict", clean]) == 0
    assert cli_main(["lint", "/no/such/path"]) == 2
    assert cli_main(["lint", fixture, "--rules", "no-such-rule"]) == 2
    capsys.readouterr()


def test_cli_meta_findings_gate_only_strict(capsys):
    # suppress_bad.py's only *unsuppressed* real violation is det-entropy;
    # scope the run to det-wallclock so the remaining findings are all
    # meta (audit) findings: non-strict passes, strict fails.
    fixture = str(FIXTURES / "suppress_bad.py")
    assert cli_main(["lint", fixture, "--rules", "det-wallclock"]) == 0
    assert cli_main(["lint", "--strict", fixture,
                     "--rules", "det-wallclock"]) == 1
    capsys.readouterr()


def test_cli_json_output(capsys):
    cli_main(["lint", "--format", "json", str(FIXTURES / "suppress_ok.py")])
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["suppressed"] == 2
    assert payload["summary"]["active"] == 0


def test_cli_github_format(capsys):
    code = cli_main(["lint", "--format", "github",
                     str(FIXTURES / "locks_positive.py")])
    out = capsys.readouterr().out
    assert code == 1
    errors = [ln for ln in out.splitlines() if ln.startswith("::error ")]
    assert len(errors) == 10
    assert all("file=" in ln and "line=" in ln and "col=" in ln
               for ln in errors)
    assert "title=repro-lint lock-yield-while-locked" in out


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_meta_rules_are_registered_nowhere():
    # Audit findings come from the framework, not the registry — they can
    # never be selected, and therefore never suppressed, by rule id.
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
            "main(['lint', '--list-rules']); "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env={**os.environ, "PYTHONPATH": REPO_SRC})
    assert proc.returncode == 0, proc.stderr
