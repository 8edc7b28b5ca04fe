"""Running scenarios: one cell (:func:`run_scenario`) or many
(:func:`run_bench_cells`).

A scenario run is the harness's run protocol
(:func:`repro.harness.experiment.run_protocol`) with open-loop generators
attached and hard gates on what it leaves behind.  The drain gate checks
*parity consistency* (stored parity equals re-encoded stored data for every
stripe of every file), not the byte-exact shadow model of the closed-loop
harness: with ``iodepth > 1`` two in-flight updates may overlap in the
file, so the final bytes depend on OSD arrival order — legal, but not
re-derivable from issue order alone.  Log-structured strategies (``tsue``,
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
    """A drained scenario left parity-inconsistent stripes behind.

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
    from repro.harness.experiment import aggregate_update_latency

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
    bad = [
        (inode, s)
        for inode in run.inodes
        for s in range(cfg.stripes_per_file)
        if not cluster.stripe_consistent(inode, s)
    ]
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
        ghost_dataplane=cfg.ghost_dataplane,
    )


# Canonical method order for per-method sweeps: the in-place family in the
# paper's presentation order, then the log-structured methods.  Derived
# from the strategy registry so a newly registered method can never be
# silently excluded from the sweep (and its consistency gate).
_METHOD_ORDER = ("fo", "pl", "plr", "parix", "cord", "fl", "tsue")
METHODS = tuple(m for m in _METHOD_ORDER if m in STRATEGIES) + tuple(
    sorted(set(STRATEGIES) - set(_METHOD_ORDER))
)


def _bench_row_worker(args):
    """One ``(scenario, method)`` cell, returned with its key so the
    caller merges by key.  At module scope so that it pickles under any
    multiprocessing start method."""
    name, method, kwargs = args
    return name, method, run_scenario(name, method=method, **kwargs)


def run_bench_cells(
    rows: Sequence[Tuple[str, str]], jobs: int = 1, **kwargs
) -> Dict[Tuple[str, str], ScenarioResult]:
    """Run unique ``(scenario, method)`` cells, optionally over a pool.

    The one many-cell executor: every cell is an isolated simulator and a
    pure function of its arguments, so cells fan out over a
    ``multiprocessing`` pool with no shared state.  Rows are de-duplicated
    (a registry row that reappears in a sweep runs once) and the mapping
    is keyed by cell in first-seen row order, whatever order workers
    finish in — ``--jobs N`` output is byte-identical to ``jobs <= 1``,
    which runs the same worker in-process (no pool, no pickling) and
    remains the reference implementation.
    """
    work = [(name, method, kwargs) for name, method in dict.fromkeys(map(tuple, rows))]
    if jobs <= 1:
        done = map(_bench_row_worker, work)
    else:
        import multiprocessing as mp

        with mp.get_context().Pool(processes=min(jobs, len(work)) or 1) as pool:
            done = pool.map(_bench_row_worker, work, chunksize=1)
    return {(name, method): res for name, method, res in done}
