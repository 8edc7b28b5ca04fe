"""The two dynamic gates that replaced the static lint (``docs/lint_audit.md``).

* **The instruction ledger** (``repro.metrics.instructions``) is recomputed
  in a fresh interpreter and must equal the committed
  ``BENCH_instructions.json`` exactly, the cluster build and the drive
  counted apart.  Host cost added on a path the model
  runs (an f-string, a closure or a comprehension per kernel event) moves
  it, however small; so does a kernel event added or removed per request
  (the ledger's ``events``), and a process step, process or queue entry
  (its ``resumes``, ``processes`` and ``queued``, counted by the tracer).  It skips only where the count legitimately differs:
  on another Python minor, or without the native GF kernel, whose numpy
  fallback runs different code of this package.
* **RPC handler coverage.**  Every message kind the wire protocol declares
  (``repro.fs.messages.KINDS``), and every kind some host registers, must
  be dispatched by the same slice of runs, plus one create + write and one
  scrub repair (the only senders of ``create_file``, ``write_block`` and
  ``recovery_write``).  A declaration or a handler nothing sends changes
  nothing any run computes, so no other gate sees it.
"""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.gf import arithmetic
from repro.metrics.instructions import SLICE, run_cells

ROOT = Path(__file__).parents[1]
LEDGER = ROOT / "BENCH_instructions.json"


def test_instruction_ledger_matches_the_committed_file():
    committed = json.loads(LEDGER.read_text())
    if committed["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"the ledger is pinned to Python {committed['python']}")
    if arithmetic._KERNEL is None:
        pytest.skip("native GF kernel absent: the numpy fallback runs "
                    "different code")
    fresh = json.loads(subprocess.run(
        [sys.executable, "-m", "repro.metrics.instructions"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    ).stdout)
    # numpy runs untraced: its version is provenance, not part of the count.
    del fresh["numpy"], committed["numpy"]
    moved = {
        f"{phase}.{pkg}": fresh["instructions"][phase].get(pkg, 0) - n
        for phase, counts in committed["instructions"].items()
        for pkg, n in counts.items()
        if fresh["instructions"][phase].get(pkg, 0) != n
    }
    for counter in ("events", "resumes", "processes", "queued"):
        if fresh[counter] != committed[counter]:
            moved[counter] = fresh[counter] - committed[counter]
    assert fresh == committed, (
        f"ledger moved {moved}; if the change is intended, "
        "regenerate with `PYTHONPATH=src python -m repro.metrics.instructions "
        "> BENCH_instructions.json` and name the cause"
    )


@contextmanager
def rpc_kinds():
    """Record every kind registered and every kind dispatched meanwhile."""
    from repro.fs.messages import RpcHost

    registered, dispatched = set(), set()
    register, spawn = RpcHost.register, RpcHost._spawn_handler

    def recording_register(self, kind, handler):
        registered.add(kind)
        return register(self, kind, handler)

    def recording_spawn(self, sim, msg):
        dispatched.add(msg.kind.name)
        return spawn(self, sim, msg)

    RpcHost.register, RpcHost._spawn_handler = recording_register, recording_spawn
    try:
        yield registered, dispatched
    finally:
        RpcHost.register, RpcHost._spawn_handler = register, spawn


def _create_write_and_repair():
    """One file created and written whole, then one corrupted parity
    block repaired by the scrub."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.recovery.scrub import check_stripe
    from repro.sim import Simulator
    from repro.update import make_strategy_factory

    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(n_osds=8, k=4, m=2, block_size=1024, seed=1),
                      make_strategy_factory("fo"))
    cluster.start()
    client = cluster.add_client("c0")
    data = np.arange(4 * 1024, dtype=np.uint8)

    def run():
        yield from client.create(7, data.size)
        yield from client.write(7, 0, data)
        parity = cluster.osd_by_name(cluster.placement(7, 0)[4])
        parity.store.fold_xor((7, 0, 4), 0, np.array([1], dtype=np.uint8))
        return (yield from check_stripe(cluster, 7, 0, rewrite=True))

    assert sim.drive(sim.process(run())) == [0]
    cluster.stop()


def undispatched_kinds():
    """Kinds declared or registered but never dispatched over the ledger's
    slice."""
    from repro.fs.messages import KINDS

    with rpc_kinds() as (registered, dispatched):
        run_cells(SLICE)
        _create_write_and_repair()
    return (set(KINDS) | registered) - dispatched


def test_every_registered_rpc_kind_is_dispatched():
    assert undispatched_kinds() == set()
