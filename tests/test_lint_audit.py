"""The lint mutation audit (``docs/lint_audit.md``), checked against the
dynamic gates that replaced the last four lint rules.

Each mutant re-introduces one bug class of a deleted rule into a temp copy
of the shipped tree and asserts the gate that now catches it:

* ``hot-fstring`` / ``hot-closure`` / ``hot-alloc`` -> the instruction
  ledger (``repro.metrics.instructions``): the mutant changes the count of
  one cell, ``steady`` / ``tsue`` at 2 x 10.  C2 and H1 edit
  ``Simulator.run`` and ``Simulator.step``, which only tests call (a model
  run drives ``Simulator.drive`` -> ``run_until_fired``), so their count is
  asserted unchanged: they add no cost to any run.
* ``rpc-dead-handler`` -> handler coverage (``tests/test_instructions.py``):
  R2 and R5 declare and register a kind nothing sends, and coverage
  reports it.  R1 sends an undeclared kind, which raises in the caller;
  R3 and R4 send a declared kind nothing handles, which fails at the
  destination.  The tier-1 test the audit recorded for each fails on it.
* a dropped change notification (K1: ``Cluster.mark_up`` clears the down
  mark without notifying ``down_changed``) -> the wait budget
  (``tests/test_waits.py``): the fenced clients never wake, and the fence
  wait's budget error names them and their stripes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

SRC = Path(__file__).parents[1] / "src"
TESTS = Path(__file__).parent
DOC = Path(__file__).parents[1] / "docs" / "lint_audit.md"

ONE_CELL = (("steady", "tsue", 2, 10),)


@dataclass(frozen=True)
class Mutant:
    id: str
    # (path relative to src/, old, new); each old string occurs exactly
    # once in its file
    edits: Tuple[Tuple[str, str, str], ...]
    runs: bool = True                   # the edit is on a path a run executes
    dead_kind: Optional[str] = None     # coverage reports it undispatched
    caught_by: Optional[str] = None     # the tier-1 test that fails on it


def _m(id, path, edits, **gate):
    """A mutant of ``path``; an edit that names its own file as a third
    element, ``(path, old, new)``, applies there instead."""
    return Mutant(id, tuple(e if len(e) == 3 else (path, *e) for e in edits), **gate)


MESSAGES = "repro/fs/messages.py"


MUTANTS = [
    # rpc: message kinds sent vs handlers registered
    _m("R1", "repro/update/base.py",
       [('kind: str = "parity_apply"', 'kind: str = "parity_aply"')],
       caught_by="test_cli_run_smoke"),
    _m("R2", "repro/update/base.py",
       [(MESSAGES,
         '    MessageKind("parity_apply", lambda pkey, entries: _entries(entries), ack, "cached"),\n',
         '    MessageKind("parity_apply", lambda pkey, entries: _entries(entries), ack, "cached"),\n'
         '    MessageKind("parity_flush", lambda pkey, entries: _entries(entries), ack, "cached"),\n'),
        ('        osd.register("parity_apply", self.apply_parity_entries)\n',
         '        osd.register("parity_apply", self.apply_parity_entries)\n'
         '        osd.register("parity_flush", self.apply_parity_entries)\n')],
       dead_kind="parity_flush"),
    _m("R3", "repro/update/pl.py",
       [('register("pl_append"', 'register("pl_apend"')],
       caught_by="test_scale_in_live_all_methods[pl]"),
    _m("R4", "repro/update/plr.py",
       [('        self.osd.register("plr_append", self._h_append)\n',
         "        pass\n")],
       caught_by="test_scale_in_live_all_methods[plr]"),
    _m("R5", "repro/fs/mds.py",
       [(MESSAGES,
         '    MessageKind("create_file", lambda inode, size: 32, lambda _: 16, "cached"),\n',
         '    MessageKind("create_file", lambda inode, size: 32, lambda _: 16, "cached"),\n'
         '    MessageKind("stat", lambda inode: 8, lambda _: 16, "cached"),\n'),
        ('        self.register("create_file", self._h_create)\n',
         '        self.register("create_file", self._h_create)\n'
         '        self.register("stat", self._h_stat)\n'),
        ("    def _h_heartbeat(",
         "    def _h_stat(self, inode: int):\n"
         "        meta = self.files.get(inode)\n"
         "        yield self.sim.timeout(0)\n"
         "        return meta is not None\n\n"
         "    def _h_heartbeat(")],
       dead_kind="stat"),
    # hot path: per-transition allocation back in the kernel
    _m("F1", "repro/sim/events.py",
       [('        self.name = "timeout"\n',
         '        self.name = f"timeout({delay!r})"\n')]),
    _m("F2", "repro/sim/core.py",
       [("        prev = sim._current\n        sim._current = self\n",
         "        prev = sim._current\n        sim._current = self\n"
         '        sim.label = f"{self.name}@{sim.now}"\n')]),
    _m("F3", "repro/sim/core.py",
       [("        return Process(self, gen, name=name)\n",
         '        return Process(self, gen, name=name or "proc-%d" % '
         "self._seq)\n")]),
    _m("C1", "repro/sim/events.py",
       [("            self.callbacks = [cb]\n",
         "            self.callbacks = [lambda ev: cb(ev)]\n")]),
    _m("C2", "repro/sim/core.py",
       [("        every = _collector.COLLECT_EVERY_EVENTS\n",
         "        every = _collector.COLLECT_EVERY_EVENTS\n"
         "        fire = lambda ev: ev._fire()  # noqa: E731\n"),
        ("                    fired += 1\n                    event._fire()\n",
         "                    fired += 1\n                    fire(event)\n")],
       runs=False),
    _m("C3", "repro/sim/events.py",
       [("                ev.add_callback(self)\n",
         "                ev.add_callback(lambda e: self(e))\n")]),
    _m("H1", "repro/sim/core.py",
       [("        event = self._next()\n        if event is None:\n",
         "        event = self._next()\n"
         "        if any(e is None for e in (event,)):\n")],
       runs=False),
    _m("H2", "repro/sim/events.py",
       [("            else:\n                cb(self)\n",
         "            else:\n                [cb(self) for cb in callbacks]\n")]),
    _m("H3", "repro/sim/events.py",
       [("        self.events: List[Event] = list(events)\n",
         "        self.events: List[Event] = [ev for ev in events]\n")]),
    # waits: a change nobody is notified of
    _m("K1", "repro/cluster/cluster.py",
       [("        self.down_osds.discard(name)\n        self.down_changed.notify()\n",
         "        self.down_osds.discard(name)\n")],
       caught_by="test_a_dropped_mark_up_notification_raises_the_fence_budget_error"),
]


def mutate(m: Mutant) -> Dict[str, str]:
    """The mutated text of each file ``m`` edits."""
    texts: Dict[str, str] = {}
    for path, old, new in m.edits:
        text = texts.get(path) or (SRC / path).read_text()
        assert text.count(old) == 1, f"{m.id}: the shipped source moved"
        texts[path] = text.replace(old, new)
    return texts


def run_in(src: Path, code: str):
    """``code``'s printed JSON, run in a fresh interpreter on tree ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{TESTS}"},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


COUNT = ("import json; from repro.metrics.instructions import count; "
         f"print(json.dumps(count({ONE_CELL!r})))")
UNDISPATCHED = ("import json; from test_instructions import undispatched_kinds; "
                "print(json.dumps(sorted(undispatched_kinds())))")


@pytest.fixture(scope="module")
def clean_count():
    return run_in(SRC, COUNT)


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.id)
def test_mutant_is_caught_as_documented(m, tmp_path, clean_count):
    texts = mutate(m)
    if m.caught_by is not None:
        name = m.caught_by.split("[")[0]
        assert any(f"def {name}(" in p.read_text() for p in TESTS.glob("test_*.py"))
        assert m.caught_by in _matrix()[m.id]
        return
    tree = tmp_path / "src"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    for path, text in texts.items():
        (tree / path).write_text(text)
    if m.dead_kind is not None:
        assert m.dead_kind in run_in(tree, UNDISPATCHED)
    else:
        assert (run_in(tree, COUNT) != clean_count) == m.runs


def _matrix():
    """The rows of the audit's replacement matrix, by mutant id."""
    section = DOC.read_text().split("## The replacement gates", 1)[1]
    section = section.split("\n## ", 1)[0]
    return dict(re.findall(r"^\| \*\*(\w+)\*\* \|(.*)$", section, re.MULTILINE))


def test_the_matrix_lists_every_mutant():
    assert list(_matrix()) == [m.id for m in MUTANTS]
