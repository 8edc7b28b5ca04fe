"""The instruction ledger: Python bytecode the model executes, per package.

Host time is noisy; the number of bytecode instructions a run executes is
not.  :func:`count` runs scenario cells under a ``sys.settrace`` opcode
tracer that counts only frames whose code lives in this package, keyed by
the top-level subpackage (``sim``, ``fs``, ``logstruct``, ...).  Every
other frame (numpy, the standard library, the C kernels behind them) is
left untraced, so their versions cannot move the count: what is counted
is the Python-level work of this reproduction, and it is a pure function
of the source, the interpreter's minor version and whether the native GF
kernel loaded (its numpy fallback is code of this package).

The ledger is :data:`SLICE` at seed 1: ``steady`` on all seven methods,
the ghost-plane ``scale_out`` tier and ``rebuild_under_load`` on TSUE.
Each cell runs once untraced first, so lazy imports and first-use caches
are not charged to requests.

The count is split in two phases.  ``build`` is everything executed
inside the run protocol's build step — the frame of
``repro.harness.experiment.build_cluster`` and every frame it calls: the
simulator, the cluster, its hosts and their strategies' state.  ``drive``
is the rest: attaching the workload, the run, the drain, the gates and
the aggregation.  A build cost is paid once per cluster whatever the run
does, a drive cost per request, so ``per_request`` is ``drive`` divided by
the slice's requests; the ledger reports both phases per package and in
total.  This module's own frames (the cell loop) are not counted.

The ledger also carries the slice's kernel events
(``ScenarioResult.perf["events"]`` summed, total and per request), the
other deterministic host-work counter, and three kernel primitives the
traced pass counts from the tracer's call events, not from kernel
counters: ``resumes`` (calls of ``Process._step``, one per generator
step), ``processes`` (calls of ``Process.__init__``) and ``queued``
(entries that went through the queue: an entry's ``_fire`` called by a
kernel loop, ``Simulator.run``, ``run_until_fired`` or ``step``).  ``python -m
repro.metrics.instructions`` prints it as JSON; the committed copy is
``BENCH_instructions.json`` at the repo root, and
``tests/test_instructions.py`` recomputes it exactly.  A change that moves
either count regenerates the file and names the cause.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.sim import collector

# (scenario, method, clients, requests per client), all at seed 1.
Cell = Tuple[str, str, int, int]

SLICE: Tuple[Cell, ...] = (
    *(("steady", m, 2, 40) for m in ("fo", "fl", "pl", "plr", "parix", "cord", "tsue")),
    ("scale_out", "tsue", 16, 8),
    ("rebuild_under_load", "tsue", 2, 40),
)

_ROOT = os.path.dirname(os.path.dirname(__file__)) + os.sep
PHASES = ("build", "drive")


def run_cells(cells: Iterable[Cell]) -> int:
    """Run each cell to completion at seed 1; returns the kernel events
    the cells fired."""
    from repro.workload import run_scenario

    return sum(
        int(run_scenario(name, seed=1, n_clients=clients,
                         requests_per_client=requests, method=method).perf["events"])
        for name, method, clients, requests in cells
    )


def count(cells: Iterable[Cell]) -> Dict[str, Dict[str, int]]:
    """Instructions executed in this package's frames while ``cells`` run,
    per phase (:data:`PHASES`) and top-level subpackage (after one
    untraced warm-up pass), and the kernel primitives of that pass under
    ``"primitives"``."""
    from repro.harness.experiment import build_cluster
    from repro.sim.core import Process, Simulator

    cells = tuple(cells)
    run_cells(cells)
    counts: Dict[str, Dict[str, int]] = {phase: {} for phase in PHASES}
    primitives = {"resumes": 0, "processes": 0, "queued": 0}
    step_code, init_code = Process._step.__code__, Process.__init__.__code__
    loops = {Simulator.run.__code__, Simulator.run_until_fired.__code__,
             Simulator.step.__code__}
    hits = counts["drive"]  # the phase being counted
    tracers: Dict[str, object] = {}
    build_code = build_cluster.__code__

    def tracer_for(filename):
        if not filename.startswith(_ROOT) or filename == __file__:
            return None
        pkg = os.path.splitext(filename[len(_ROOT):].split(os.sep, 1)[0])[0]
        for phase in counts.values():
            phase.setdefault(pkg, 0)

        def local(frame, event, arg):
            if event == "opcode":
                hits[pkg] += 1
            return local

        return local

    def in_build(local):
        """``local`` for the build step's own frame: its return ends the
        build phase."""

        def tracer(frame, event, arg):
            nonlocal hits
            local(frame, event, arg)
            if event == "return":
                hits = counts["drive"]
            return tracer

        return tracer

    def enter(frame, event, arg):
        nonlocal hits
        code = frame.f_code
        if code is step_code:
            primitives["resumes"] += 1
        elif code is init_code:
            primitives["processes"] += 1
        elif code.co_name == "_fire" and frame.f_back.f_code in loops:
            primitives["queued"] += 1
        try:
            local = tracers[code.co_filename]
        except KeyError:
            local = tracers[code.co_filename] = tracer_for(code.co_filename)
        if local is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        if code is build_code:
            hits = counts["build"]
            return in_build(local)
        return local

    # No collection may resume a traced frame at a host-dependent point.
    with collector.paused():
        sys.settrace(enter)
        try:
            run_cells(cells)
        finally:
            sys.settrace(None)
    return {**{phase: dict(sorted(hits.items())) for phase, hits in counts.items()},
            "primitives": primitives}


def ledger() -> dict:
    """The committed ledger: :data:`SLICE` counted, with its provenance."""
    events = run_cells(SLICE)
    counts = count(SLICE)
    primitives = counts.pop("primitives")
    requests = sum(clients * per for _n, _m, clients, per in SLICE)
    totals = {phase: sum(counts[phase].values()) for phase in PHASES}
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "requests": requests,
        "total": sum(totals.values()),
        **totals,
        "per_request": round(totals["drive"] / requests, 1),
        "events": events,
        "events_per_request": round(events / requests, 2),
        **primitives,
        "primitives_per_request": {
            name: round(n / requests, 2) for name, n in primitives.items()
        },
        "instructions": counts,
    }


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=2))
