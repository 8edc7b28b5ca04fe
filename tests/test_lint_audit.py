"""The lint mutation audit (``docs/lint_audit.md``) as a test.

Each mutant re-introduces one historical bug class into a temp copy of
the shipped tree, and the test asserts which rules the mutant makes fire
— or that none does, where the audit names another gate (a ``tests/``
failure, the baseline check or the perf benchmark) as the one that
catches it.  A mutant lints only the mutated file, against the same file
unmutated; a ``whole`` mutant (a kind whose sender lives in another
file) lints the whole copy.
"""

import re
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Tuple

import pytest

from repro.analysis import all_rules, analyze_file, analyze_paths

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
       [(_RMW_WRITE, _RMW_WRITE + "        yield self.sim.timeout(1e-6)\n")]),
    _m("Y2", "repro/update/base.py",
       [(_RMW_WRITE, _RMW_WRITE + "        yield from self._pace()\n"),
        ("    def parity_targets(",
         "    def _pace(self):\n"
         "        yield self.sim.timeout(1e-6)\n\n"
         "    def parity_targets(")]),
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
         )]),
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
       [(_RMW_FORWARD + _RMW_WRITE, _RMW_WRITE + _RMW_FORWARD)]),
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
         "@dataclass\nclass ScenarioResult:")]),
    _m("D2", "repro/workload/results.py",
       [("import json\n", "import json\nimport random\n"),
        ('            "iops": self.iops,\n',
         '            "iops": self.iops + _jitter(),\n'),
        ("\n\n@dataclass\nclass ScenarioResult:",
         "\n\ndef _jitter():\n    return random.random()\n\n\n"
         "@dataclass\nclass ScenarioResult:")]),
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
    # determinism: a host clock or ambient entropy reaches the model
    _m("W1", "repro/fs/client.py",
       [("import numpy as np\n", "import time\n\nimport numpy as np\n"),
        ("        self.update_latency.record(self.sim.now, self.sim.now - start)\n",
         "        self.update_latency.record(time.monotonic(), "
         "self.sim.now - start)\n")]),
    _m("W2", "repro/sim/rng.py",
       [("import zlib\n", "import time\nimport zlib\n"),
        ("        self.seed = int(seed)\n",
         "        self.seed = int(seed) ^ int(time.time())\n")]),
    _m("W3", "repro/cluster/cluster.py",
       [("import zlib\n", "import time\nimport zlib\n"),
        ("        self.down_osds: Set[str] = set()\n",
         "        self.built_at = time.time()\n"
         "        self.down_osds: Set[str] = set()\n")]),
    _m("E1", "repro/fs/messages.py",
       [("from collections import OrderedDict\n",
         "import random\nfrom collections import OrderedDict\n"),
        ("        return AllOf(sim, [sim.process(call(dst, kind, payload, nbytes))\n",
         "        calls = list(calls)\n"
         "        random.shuffle(calls)\n"
         "        return AllOf(sim, [sim.process(call(dst, kind, payload, nbytes))\n")]),
    _m("E2", "repro/workload/generator.py",
       [('        return ("update", inode, offset, draw.payload(size))\n',
         "        draw.skip_payload(size)\n"
         '        return ("update", inode, offset, np.random.default_rng()'
         ".integers(0, 256, size, dtype=np.uint8))\n")]),
    _m("E3", "repro/cluster/cluster.py",
       [("import zlib\n", "import uuid\nimport zlib\n"),
        ("        self.down_osds: Set[str] = set()\n",
         "        self.run_id = uuid.uuid4().hex\n"
         "        self.down_osds: Set[str] = set()\n")]),
    _m("S1", "repro/recovery/recovery.py",
       [("        for name in sorted(cluster.down_osds):\n",
         "        for name in set(cluster.down_osds):\n")]),
    _m("S2", "repro/update/parix.py",
       [('"orig": False},\n             int(data.size))\n'
         "            for _p, osd_name in targets\n",
         '"orig": False},\n             int(data.size))\n'
         "            for osd_name in {name for _p, name in targets}\n")]),
    _m("S3", "repro/update/base.py",
       [("        for p, osd_name in self.parity_targets(key):\n",
         "        for p, osd_name in set(self.parity_targets(key)):\n")]),
    # locks: the stripe-lock contract broken without a wait under it
    _m("L1", "repro/update/base.py",
       [("        sent = yield from self.serialize_stripe(\n"
         "            key, self.rmw_forward_locked(key, offset, data, kind)\n"
         "        )\n",
         "        sent = yield from self.rmw_forward_locked("
         "key, offset, data, kind)\n")]),
    _m("L2", "repro/update/parix.py",
       [('        yield from self.osd.store.write_range(key, offset, data, '
         'pattern="rand")\n', ""),
        ("        yield from self.serialize_stripe(key, self._update_locked("
         "key, offset, data))\n",
         "        yield from self.serialize_stripe(key, self._update_locked("
         "key, offset, data))\n"
         '        yield from self.osd.store.write_range(key, offset, data, '
         'pattern="rand")\n')]),
    _m("L3", "repro/update/cord.py",
       [('        return self.update_in_place(key, offset, data, '
         '"cord_collect")\n',
         "        sent = yield from self.rmw_forward_locked("
         'key, offset, data, "cord_collect")\n'
         "        yield sent\n")]),
    _m("N1", "repro/update/parix.py",
       [("        yield from self.serialize_stripe(key, self._update_locked("
         "key, offset, data))\n",
         "        yield from self.serialize_stripe(key, self.serialize_stripe("
         "key, self._update_locked(key, offset, data)))\n")]),
    _m("N2", "repro/update/base.py",
       [("            key, self.rmw_forward_locked(key, offset, data, kind)\n",
         "            key, self.serialize_stripe(key, self.rmw_forward_locked("
         "key, offset, data, kind))\n")]),
    _m("N3", "repro/update/parix.py",
       [('        yield from self.osd.store.write_range(key, offset, data, '
         'pattern="rand")\n',
         "        yield from self.serialize_stripe(key, self.osd.store."
         'write_range(key, offset, data, pattern="rand"))\n')]),
    _m("Y4", "repro/update/parix.py",
       [("            self.repeat_updates += 1\n",
         "            self.repeat_updates += 1\n"
         "            yield self.sim.timeout(1e-6)\n")]),
    _m("Y5", "repro/update/parix.py",
       [("        k = self.cluster.config.k\n        jobs = []\n",
         "        yield self.sim.timeout(1e-6)\n"
         "        k = self.cluster.config.k\n        jobs = []\n")]),
    _m("Y6", "repro/update/base.py",
       [("        return sent\n", "        yield sent\n        return sent\n")]),
    # aliasing: a view outlives the write that overwrites it
    _m("V4", "repro/update/parix.py",
       [("            old = old.copy()\n", "")]),
    _m("V5", "repro/tsue/engine.py",
       [(_TSUE_RMW,
         '            old = yield from store.read_range(key, offset, data.size, '
         'pattern="rand")\n'
         '            yield from store.write_range(key, offset, data, '
         'pattern="rand")\n'
         "            delta = old ^ data\n")]),
    _m("A1", "repro/fs/osd.py",
       [('        base = yield from self.store.read_range(key, offset, length, '
         'pattern="rand")\n',
         '        self.last_read = base = yield from self.store.read_range('
         'key, offset, length, pattern="rand")\n')]),
    _m("A2", "repro/tsue/engine.py",
       [('            old = yield from store.read_range(key, offset, data.size, '
         'pattern="rand")\n',
         '            self.last_old = old = yield from store.read_range('
         'key, offset, data.size, pattern="rand")\n')]),
    _m("A3", "repro/update/parix.py",
       [("            old = yield from self.osd.store.read_range(\n",
         "            self.orig_view = yield from self.osd.store.read_range(\n"),
        ("            old = old.copy()\n", "            old = self.orig_view\n")]),
    # payload plane: a per-event branch on the plane flag
    _m("P1", "repro/fs/blockstore.py",
       [("        data = as_payload(data)\n"
         "        self._check_range(offset, data.size)\n"
         "        blk = self._materialize(key)\n",
         "        data = as_payload(data)\n"
         "        self._check_range(offset, data.size)\n"
         "        blk = self._materialize(key)\n"
         "        if self.ghost:\n"
         "            yield self.sim.timeout(0)\n")]),
    _m("P2", "repro/fs/blockstore.py",
       [("        delta = as_payload(delta)\n",
         "        delta = as_payload(delta) if self.ghost "
         "else as_payload(delta)\n")]),
    _m("P3", "repro/fs/blockstore.py",
       [("        yield from self.device.read(\n"
         "            delta.size, zone=self.ZONE, offset=base, pattern=pattern\n"
         "        )\n",
         "        if not self.ghost:\n"
         "            yield from self.device.read(\n"
         "                delta.size, zone=self.ZONE, offset=base, "
         "pattern=pattern\n"
         "            )\n")]),
    # hot path: per-transition allocation back in the kernel
    _m("F1", "repro/sim/events.py",
       [('        self.name = "timeout"\n',
         '        self.name = f"timeout({delay!r})"\n')],
       "hot-fstring"),
    _m("F2", "repro/sim/core.py",
       [("        prev = sim._current\n        sim._current = self\n",
         "        prev = sim._current\n        sim._current = self\n"
         '        sim.label = f"{self.name}@{sim.now}"\n')],
       "hot-fstring"),
    _m("F3", "repro/sim/core.py",
       [("        return Process(self, gen, name=name)\n",
         '        return Process(self, gen, name=name or "proc-%d" % '
         "self._seq)\n")],
       "hot-fstring"),
    _m("C1", "repro/sim/events.py",
       [("            self.callbacks = [cb]\n",
         "            self.callbacks = [lambda ev: cb(ev)]\n")],
       "hot-closure"),
    _m("C2", "repro/sim/core.py",
       [("        every = _collector.COLLECT_EVERY_EVENTS\n",
         "        every = _collector.COLLECT_EVERY_EVENTS\n"
         "        fire = lambda ev: ev._fire()  # noqa: E731\n"),
        ("                    fired += 1\n                    event._fire()\n",
         "                    fired += 1\n                    fire(event)\n")],
       "hot-closure"),
    _m("C3", "repro/sim/events.py",
       [("                ev.add_callback(self._on_child)\n",
         "                ev.add_callback(lambda e: self._on_child(e))\n")],
       "hot-closure"),
    _m("H1", "repro/sim/core.py",
       [("        event = self._next()\n        if event is None:\n",
         "        event = self._next()\n"
         "        if any(e is None for e in (event,)):\n")],
       "hot-alloc"),
    _m("H2", "repro/sim/events.py",
       [("            for cb in callbacks:\n                cb(self)\n",
         "            [cb(self) for cb in callbacks]\n")],
       "hot-alloc"),
    _m("H3", "repro/sim/events.py",
       [("        self.events: List[Event] = list(events)\n",
         "        self.events: List[Event] = [ev for ev in events]\n")],
       "hot-alloc"),
    # baseline: dead imports and dead statements
    _m("I1", "repro/sim/core.py",
       [("import heapq\n", "import heapq\nimport json\n")]),
    _m("I2", "repro/update/base.py",
       [("from typing import Dict, List, Optional, Tuple\n",
         "from typing import Dict, List, Optional, Set, Tuple\n")]),
    _m("I3", "repro/cli.py",
       [("import argparse\nimport sys\n",
         "import argparse\nimport sys\n\nimport numpy as np\n")]),
    _m("U1", "repro/fs/osd.py",
       [("        yield from self.strategy.on_update(key, offset, data)\n"
         "        self.updates_served += 1\n"
         '        return {"ok": True}, 8\n',
         "        yield from self.strategy.on_update(key, offset, data)\n"
         '        return {"ok": True}, 8\n'
         "        self.updates_served += 1\n")]),
    _m("U2", "repro/harness/experiment.py",
       [("    return wall, time.process_time() - since[1]\n",
         "    return wall, time.process_time() - since[1]\n    wall = 0.0\n")]),
    _m("U3", "repro/update/parix.py",
       [("        if not self.log_entries:\n            return [], 0\n",
         "        if not self.log_entries:\n            return [], 0\n"
         "            self.threshold_recycles += 1\n")]),
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
        clean = active(analyze_paths([str(tmp_path)], all_rules()))
        (tmp_path / m.path).write_text(mutate(m))
        fired = active(analyze_paths([str(tmp_path)], all_rules())) - clean
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
