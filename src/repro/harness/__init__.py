"""The experiment harness.

:func:`~repro.harness.experiment.run_experiment` builds a cluster, preloads
files, replays traces through closed-loop clients, drains logs, verifies
consistency, and returns an :class:`~repro.harness.experiment.ExperimentResult`
with every quantity the paper's tables and figures report.

:mod:`repro.harness.artifacts` holds the paper's artifacts (Fig. 5-8,
Tables 1-2, the lifespan comparison, three ablations), one ``run_*`` each:
a :func:`~repro.harness.artifacts.sweep` of such runs that returns a
printable :class:`~repro.harness.artifacts.Grid`.  The benchmarks under
``benchmarks/`` archive each render and assert the paper's shapes on it.
"""

from repro.harness.artifacts import Grid, run_cells, sweep
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    build_cluster,
    drain_all,
    make_trace,
    run_experiment,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Grid",
    "build_cluster",
    "drain_all",
    "make_trace",
    "run_cells",
    "run_experiment",
    "sweep",
]
