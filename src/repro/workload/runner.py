"""Running scenarios: one cell (:func:`run_scenario`) or many
(:func:`run_bench_cells`, through the paper grids' cell executor).

A scenario run is the harness's run protocol
(:func:`repro.harness.experiment.run_protocol`) with open-loop generators
attached and hard gates on what it leaves behind.  The drain gate checks
*parity consistency* (stored parity equals re-encoded stored data for every
stripe of every file); the protocol's acked-update oracle checks the data
bytes, and with ``iodepth > 1`` it accepts either of two overlapping
updates that were in flight together (the final bytes depend on OSD
arrival order).  Log-structured strategies (``tsue``,
``fl``) are immune to same-stripe races by construction (commutative
XOR-delta appends); the read-modify-write baselines serialize same-stripe
updates through their OSD's per-stripe FIFO lock
(:class:`~repro.sim.resources.KeyedLock`), as real deployments of those
schemes do, and every row carries what that costs as stripe-lock wait
metrics.  Fault runs must also heal every failure before the drain (the
protocol's gate) and pass a forced post-recovery scrub.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

# NB: repro.harness imports are deferred to call time — the harness pulls in
# repro.traces.replay, which builds on repro.workload.generator, so a
# module-level import here would close an import cycle.
from repro.metrics.latency import LatencyRecorder
from repro.update import STRATEGIES
from repro.workload.generator import OpenLoopGenerator, WorkloadSpec
from repro.workload.metrics import elastic_metrics, recovery_metrics
from repro.workload.results import ScenarioResult
from repro.workload.scenarios import (
    ELASTIC_ACTIONS,
    SCENARIOS,
    Scenario,
    scenario_config,
)


class InconsistentDrainError(RuntimeError):
    """A drained fault-free scenario left parity-inconsistent stripes
    behind (a fault run's scrub raises :class:`PostRecoveryScrubError`).

    Raised by :func:`run_scenario` for *any* method: with per-stripe update
    serialization in place there is no legal way to drain inconsistent, so
    this always indicates a strategy bug, never expected behaviour.
    """


class PostRecoveryScrubError(RuntimeError):
    """The forced post-recovery scrub of a failure scenario was not clean.

    After every failure is recovered/restored and logs are drained, a
    forced scrub of every stripe the workload could have touched must find
    parity exactly re-encodable from data — anything else means a failure
    path (crash tearing, rebuild, repair, restore) leaked bad state.
    """


def run_scenario(
    name: str,
    seed: int = 7,
    n_clients: Optional[int] = None,
    requests_per_client: Optional[int] = None,
    method: str = "tsue",
    device: str = "ssd",
    ghost_dataplane: Optional[bool] = None,
) -> ScenarioResult:
    """Run one named scenario end to end (pure function of its arguments).

    ``n_clients`` / ``requests_per_client`` of ``None`` mean "the
    scenario's native size" — the registry default of 4 x 200 for the
    smoke scenarios, 32 x 2000 for ``scale_up``.  Explicit values always
    win (CI smokes shrink every scenario the same way).

    ``ghost_dataplane=None`` means "the scenario's own plane" (True only
    for ``scale_out``); an explicit value overrides it.  Ghost runs of
    fault scenarios are rejected up front: scrub and rebuild need real
    payload bytes.
    """
    from repro.harness.experiment import InvalidRunError, run_protocol

    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise InvalidRunError(f"unknown scenario {name!r}; known: {known}")
    scenario = SCENARIOS[name]
    if n_clients is None:
        n_clients = scenario.default_clients or 4
    if requests_per_client is None:
        requests_per_client = scenario.default_requests or 200
    if ghost_dataplane is None:
        ghost_dataplane = scenario.ghost_dataplane
    cfg = scenario_config(
        seed, n_clients, requests_per_client, method, device,
        ghost_dataplane=ghost_dataplane, n_osds=scenario.n_osds or 8,
    )
    return run_protocol(
        cfg,
        partial(_attach_generators, scenario),
        partial(_scenario_result, scenario),
        faults=scenario.faults,
        recovery=scenario.recovery,
        what=f"scenario {name!r}",
    )


def _attach_generators(scenario: Scenario, cluster, cfg) -> List[OpenLoopGenerator]:
    """One open-loop generator per client over its tenants' sparse files
    (RNG streams ``trace{client}.{tenant}`` and ``workload{client}``)."""
    from repro.harness.experiment import make_trace

    generators: List[OpenLoopGenerator] = []
    for i in range(cfg.n_clients):
        client = cluster.add_client(f"client{i}")
        tenants = []
        for t in range(scenario.tenants_per_client):
            inode = 1000 + i * scenario.tenants_per_client + t
            cluster.register_sparse_file(inode, cfg.file_size)
            trace_rng = cluster.rng.get(f"trace{i}.{t}")
            if scenario.make_records is not None:
                trace = scenario.make_records(cfg, trace_rng)
            else:
                trace = make_trace(cfg, trace_rng)
            tenants.append((inode, trace))
        spec = WorkloadSpec(
            arrivals=scenario.make_arrivals(),
            n_requests=cfg.updates_per_client,
            iodepth=scenario.iodepth,
            read_fraction=scenario.read_fraction,
        )
        generators.append(
            OpenLoopGenerator(client, tenants, cluster.rng.get(f"workload{i}"), spec)
        )
    return generators


def _scenario_result(scenario: Scenario, run) -> ScenarioResult:
    """The scenario gates, then the row."""
    from repro.harness.experiment import aggregate_update_latency, inconsistent_stripes

    cfg, cluster, generators = run.cfg, run.cluster, run.workloads
    name, method = scenario.name, cfg.method

    recovery_section = elastic_section = None
    if run.injector:
        report = run.scrub_report
        if not report.clean or report.skipped:
            raise PostRecoveryScrubError(
                f"scenario {name!r} method {method!r}: post-recovery scrub "
                f"found {len(report.mismatches)} bad / "
                f"{len(report.skipped)} unscrubbable stripe(s): "
                f"{report.mismatches[:8] + report.skipped[:8]}"
            )
        recovery_section = recovery_metrics(
            cluster, run.injector, run.recoveries, report, run.horizon
        )
        if any(e.action in ELASTIC_ACTIONS for e in scenario.faults):
            elastic_section = elastic_metrics(cluster, run.injector, run.horizon)

    # The hard gate: with per-stripe serialization no method may drain
    # inconsistent — a bad stripe is a strategy bug, not a workload effect.
    # A fault run's verdict is its scrub's: clean above means it re-encoded
    # the same stripes from the same stored blocks after the drain.
    bad = [] if run.injector else inconsistent_stripes(run)
    if bad:
        shown = ", ".join(f"({i},{s})" for i, s in bad[:8])
        raise InconsistentDrainError(
            f"scenario {name!r} method {method!r} drained {len(bad)} "
            f"parity-inconsistent stripe(s): {shown}"
            + ("..." if len(bad) > 8 else "")
        )

    lock_waits = LatencyRecorder("stripe-lock")
    acquisitions = contended = 0
    for osd in cluster.osds:
        locks = osd.stripe_locks
        acquisitions += locks.acquisitions
        contended += locks.contended
        lock_waits.latencies.extend(locks.wait_times)

    agg = aggregate_update_latency(cluster.clients)
    p50, p95, p99 = agg.percentiles((50.0, 95.0, 99.0))
    updates = sum(g.completed for g in generators)
    reads = sum(g.reads_completed for g in generators)
    done = max(1, updates + reads)
    return ScenarioResult(
        name=name,
        method=method,
        seed=cfg.seed,
        n_clients=cfg.n_clients,
        updates=updates,
        reads=reads,
        horizon=run.horizon,
        iops=((updates + reads) / run.horizon) if run.horizon > 0 else 0.0,
        mean_latency=agg.mean(),
        p50_latency=p50,
        p95_latency=p95,
        p99_latency=p99,
        peak_inflight=max(c.peak_inflight_updates for c in cluster.clients),
        lock_acquisitions=acquisitions,
        lock_contended=contended,
        lock_wait_mean=lock_waits.mean(),
        lock_wait_p99=lock_waits.percentile(99.0),
        dev_write_kb_per_req=cluster.total_ops().write_bytes / 1024.0 / done,
        erases_per_kreq=1000.0 * cluster.total_wear().erase_ops / done,
        net_kb_per_req=cluster.total_net().bytes_sent / 1024.0 / done,
        recovery=recovery_section,
        elastic=elastic_section,
        perf=run.perf(updates + reads),
        ghost_dataplane=not cfg.verify,
    )


# Canonical method order for per-method sweeps: the in-place family in the
# paper's presentation order, then the log-structured methods.  Derived
# from the strategy registry so a newly registered method can never be
# silently excluded from the sweep (and its consistency gate).
_METHOD_ORDER = ("fo", "pl", "plr", "parix", "cord", "fl", "tsue")
METHODS = tuple(m for m in _METHOD_ORDER if m in STRATEGIES) + tuple(
    sorted(set(STRATEGIES) - set(_METHOD_ORDER))
)


def _scenario_cell(cell: Tuple[str, str, Dict]) -> ScenarioResult:
    """``run_scenario`` over one ``(scenario, method, kwargs)`` cell."""
    name, method, kwargs = cell
    return run_scenario(name, method=method, **kwargs)


def run_bench_cells(
    rows: Sequence[Tuple[str, str]], jobs: Optional[int] = None, **kwargs
) -> Dict[Tuple[str, str], ScenarioResult]:
    """``(scenario, method)`` -> its row, in first-seen row order, through
    the paper grids' cell executor (:func:`repro.harness.artifacts.run_cells`:
    ``jobs`` workers, default and cap the usable cores; ``jobs=1`` is the
    serial in-process path).  A row seen before in the process runs once."""
    from repro.harness.artifacts import run_cells

    keys = [tuple(row) for row in rows]
    return dict(zip(keys, run_cells(_scenario_cell, [(*key, kwargs) for key in keys], jobs)))
