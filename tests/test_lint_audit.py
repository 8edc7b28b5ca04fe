"""The lint mutation audit (``docs/lint_audit.md``) as a test.

Each mutant re-introduces one historical bug class into a temp copy of
the shipped tree, and the test asserts which rules the mutant makes fire
— or that none does, where the audit names another gate (a ``tests/``
failure or the baseline check) as the one that catches it.  A mutant
lints only the mutated file, against the same file unmutated; a
``whole`` mutant (a kind whose sender lives in another file) lints the
whole copy with the tree-wide rule.
"""

import re
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Tuple

import pytest

from repro.analysis import all_rules, analyze_file, analyze_paths, rules_by_id

SRC = Path(__file__).parents[1] / "src"
DOC = Path(__file__).parents[1] / "docs" / "lint_audit.md"


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str                         # relative to src/
    edits: Tuple[Tuple[str, str], ...]  # each old string occurs exactly once
    fires: FrozenSet[str]             # rules the mutant makes fire
    whole: bool = False


def _m(id, path, edits, *fires, whole=False):
    return Mutant(id, path, tuple(edits), frozenset(fires), whole)


_RMW_READ = ('        old = yield from self.osd.store.read_range('
             'key, offset, data.size, pattern="rand")\n')
_RMW_WRITE = ('        yield from self.osd.store.write_range('
              'key, offset, data, pattern="rand")\n')
_RMW_FORWARD = ("        sent = self.osd.fan_out(self.forward_calls("
                "key, offset, old ^ data, kind))\n")
_TSUE_RMW = (
    '            old = yield from store.read_range(key, offset, data.size, '
    'pattern="rand")\n'
    "            # ``old`` is a view of the live block — delta before the "
    "write.\n"
    "            delta = old ^ data\n"
    '            yield from store.write_range(key, offset, data, '
    'pattern="rand")\n'
)

MUTANTS = [
    # locks: the stripe lock held across simulated time
    _m("Y1", "repro/update/base.py",
       [(_RMW_WRITE, _RMW_WRITE + "        yield self.sim.timeout(1e-6)\n")],
       "lock-yield-while-locked"),
    _m("Y2", "repro/update/base.py",
       [(_RMW_WRITE, _RMW_WRITE + "        yield from self._pace()\n"),
        ("    def parity_targets(",
         "    def _pace(self):\n"
         "        yield self.sim.timeout(1e-6)\n\n"
         "    def parity_targets(")],
       "lock-yield-while-locked"),
    _m("Y3", "repro/update/base.py",
       [("        sent = yield from self.serialize_stripe(\n"
         "            key, self.rmw_forward_locked(key, offset, data, kind)\n"
         "        )\n"
         "        yield sent\n",
         "        return (yield from self.serialize_stripe(\n"
         "            key, self._update_and_wait(key, offset, data, kind)))\n"
         "\n"
         "    def _update_and_wait(self, key, offset, data, kind):\n"
         "        sent = yield from self.rmw_forward_locked("
         "key, offset, data, kind)\n"
         "        yield sent\n"
         )],
       "lock-yield-while-locked", "lock-rmw-unserialized"),
    # aliasing: a zero-copy view read after the write that overwrites it
    _m("V1", "repro/update/base.py",
       [(_RMW_READ, "        old = yield from self._read_old_locked("
                    "key, offset, data.size)\n"),
        (_RMW_FORWARD + _RMW_WRITE, _RMW_WRITE + _RMW_FORWARD),
        ("    def parity_targets(",
         "    def _read_old_locked(self, key, offset, n):\n"
         "        return (yield from self.osd.store.read_range("
         "key, offset, n, pattern=\"rand\"))\n\n"
         "    def parity_targets(")]),
    _m("V2", "repro/update/base.py",
       [(_RMW_FORWARD + _RMW_WRITE, _RMW_WRITE + _RMW_FORWARD)],
       "alias-view-across-yield"),
    _m("V3", "repro/tsue/engine.py",
       [(_TSUE_RMW,
         "            old = yield from self._read_old(key, offset, data.size)\n"
         '            yield from store.write_range(key, offset, data, '
         'pattern="rand")\n'
         "            delta = old ^ data\n"),
        ("    def _recycle_data_block(",
         "    def _read_old(self, key, offset, n):\n"
         "        return (yield from self.osd.store.read_range("
         "key, offset, n, pattern=\"rand\"))\n\n"
         "    def _recycle_data_block(")]),
    # payload plane: bytes materialised on a ghost-plane path
    _m("G1", "repro/update/base.py",
       [('(p["pkey"], p["entries"])',
         '(p["pkey"], [(o, np.asarray(d)) for o, d in p["entries"]])')]),
    _m("G2", "repro/update/tsue_strategy.py",
       [("        t0 = self.sim.now\n"
         "        persisted = yield from self.engine.append_datalog(",
         "        data = np.ascontiguousarray(data)\n"
         "        t0 = self.sim.now\n"
         "        persisted = yield from self.engine.append_datalog(")]),
    _m("G3", "repro/fs/osd.py",
       [("from typing import Optional\n\n",
         "from typing import Optional\n\nimport numpy as np\n\n"),
        ('        data = msg.payload["data"]\n'
         "        yield from self.strategy.on_update(",
         '        data = np.asarray(msg.payload["data"])\n'
         "        yield from self.strategy.on_update(")]),
    # determinism: a host reading reaches a bench row
    _m("D1", "repro/workload/results.py",
       [("import json\n", "import json\nimport time\n"),
        ('            "seed": self.seed,\n',
         '            "seed": self.seed,\n            "stamp": _stamp(),\n'),
        ("\n\n@dataclass\nclass ScenarioResult:",
         "\n\ndef _stamp():\n    return time.time()\n\n\n"
         "@dataclass\nclass ScenarioResult:")],
       "det-wallclock"),
    _m("D2", "repro/workload/results.py",
       [("import json\n", "import json\nimport random\n"),
        ('            "iops": self.iops,\n',
         '            "iops": self.iops + _jitter(),\n'),
        ("\n\n@dataclass\nclass ScenarioResult:",
         "\n\ndef _jitter():\n    return random.random()\n\n\n"
         "@dataclass\nclass ScenarioResult:")],
       "det-entropy"),
    _m("D3", "repro/workload/results.py",
       [('            "seed": self.seed,\n',
         '            "seed": self.seed,\n'
         '            "wall_s": _host_clock()[0],\n'),
        ("    def to_dict(self) -> dict:\n",
         "    def to_dict(self) -> dict:\n"
         "        from repro.harness.experiment import _host_clock\n\n")]),
    # rpc: message kinds sent vs handlers registered
    _m("R1", "repro/update/base.py",
       [('kind: str = "parity_apply"', 'kind: str = "parity_aply"')],
       "rpc-dead-handler"),
    _m("R2", "repro/update/base.py",
       [('        osd.register("parity_apply", self._h_parity_apply)\n',
         '        osd.register("parity_apply", self._h_parity_apply)\n'
         '        osd.register("parity_flush", self._h_parity_apply)\n')],
       "rpc-dead-handler", whole=True),
    _m("R3", "repro/update/pl.py",
       [('register("pl_append"', 'register("pl_apend"')],
       "rpc-dead-handler"),
    _m("R4", "repro/update/plr.py",
       [('        self.osd.register("plr_append", self._h_append)\n',
         "        pass\n")]),
    _m("R5", "repro/fs/mds.py",
       [('        self.register("create_file", self._h_create)\n',
         '        self.register("create_file", self._h_create)\n'
         '        self.register("stat", self._h_stat)\n'),
        ("    def _h_heartbeat(",
         "    def _h_stat(self, msg: Message):\n"
         '        meta = self.files.get(msg.payload["inode"])\n'
         "        yield self.sim.timeout(0)\n"
         '        return {"exists": meta is not None}, 16\n\n'
         "    def _h_heartbeat(")],
       "rpc-dead-handler", whole=True),
]


def mutate(m: Mutant) -> str:
    text = (SRC / m.path).read_text()
    for old, new in m.edits:
        assert text.count(old) == 1, f"{m.id}: the shipped source moved"
        text = text.replace(old, new)
    return text


def active(findings) -> Counter:
    return Counter(f.rule for f in findings if not f.suppressed)


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.id)
def test_mutant_is_caught_as_documented(m, tmp_path):
    if m.whole:
        shutil.copytree(SRC / "repro", tmp_path / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rules = list(rules_by_id(["rpc-dead-handler"]).values())
        clean = active(analyze_paths([str(tmp_path)], rules))
        (tmp_path / m.path).write_text(mutate(m))
        fired = active(analyze_paths([str(tmp_path)], rules)) - clean
    else:
        target = tmp_path / m.path
        target.parent.mkdir(parents=True)
        clean = active(analyze_file(str(SRC / m.path), all_rules()))
        target.write_text(mutate(m))
        fired = active(analyze_file(str(target), all_rules())) - clean
    assert set(fired) == m.fires


def test_the_matrix_lists_every_mutant():
    rows = re.findall(r"^\| \*\*(\w+)\*\* \|", DOC.read_text(), re.MULTILINE)
    assert rows == [m.id for m in MUTANTS]
