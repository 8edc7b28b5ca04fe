"""Open-loop workload generation and named end-to-end scenarios.

The seed repo drove every experiment through one closed-loop replayer (one
outstanding update per client).  This package opens the workload axis:

* :mod:`~repro.workload.arrival` — pluggable inter-arrival processes
  (Poisson, ON/OFF bursts, diurnal ramps, zero-gap closed loop);
* :mod:`~repro.workload.generator` — :class:`OpenLoopGenerator`, an
  arrival-driven client driver with bounded pipelining (``iodepth``),
  mixed read/update ratios and multi-file tenant sharding;
* :mod:`~repro.workload.faults` — schedulable fault injection
  (fail/restore, fail-slow devices, degraded/lossy fabric links, rolling
  restarts and elastic membership changes on the sim clock; the full
  taxonomy is in ``docs/faults.md``);
* :mod:`~repro.workload.scenarios` — the registry of named end-to-end
  scenarios (``steady``, ``burst``, ``diurnal``, ``mixed_rw``,
  ``multi_tenant``, ``hot_stripe``, the failure axis ``degraded_read``,
  ``rebuild_under_load``, ``double_fault``, plus the live-change axis
  :data:`~repro.workload.scenarios.ELASTIC_SCENARIOS`) behind
  ``repro scenario`` / ``repro bench``;
* :mod:`~repro.workload.runner` — :func:`run_scenario` (one cell through
  the harness's run protocol, behind a hard parity-consistency gate on
  every drain and a forced post-recovery scrub on every fault run) and
  :func:`run_bench_cells`, many through the paper grids' cell executor;
* :mod:`~repro.workload.metrics` / :mod:`~repro.workload.results` — the
  recovery + elastic sections, :class:`ScenarioResult`, the bench JSON.
"""

from repro.workload.arrival import (
    ArrivalProcess,
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.workload.faults import (
    FaultEvent,
    FaultInjector,
    client_victim,
    primary_victim,
    secondary_victim,
    stripe_member,
)
from repro.workload.generator import OpenLoopGenerator, WorkloadSpec
from repro.workload.results import ScenarioResult, results_to_json
from repro.workload.runner import (
    METHODS,
    InconsistentDrainError,
    PostRecoveryScrubError,
    run_bench_cells,
    run_scenario,
)
from repro.workload.scenarios import (
    ELASTIC_SCENARIOS,
    SCENARIOS,
    Scenario,
    register_scenario,
    scenario_config,
)

__all__ = [
    "ArrivalProcess",
    "ClosedLoop",
    "DiurnalArrivals",
    "ELASTIC_SCENARIOS",
    "FaultEvent",
    "FaultInjector",
    "InconsistentDrainError",
    "METHODS",
    "OnOffArrivals",
    "OpenLoopGenerator",
    "PoissonArrivals",
    "PostRecoveryScrubError",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "WorkloadSpec",
    "client_victim",
    "primary_victim",
    "register_scenario",
    "results_to_json",
    "run_bench_cells",
    "run_scenario",
    "scenario_config",
    "secondary_victim",
    "stripe_member",
]
