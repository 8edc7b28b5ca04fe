"""The paper's artifacts as grids of cells.

Fig. 5-8, Tables 1-2, the §5.3.4 lifespan comparison and three ablations
are each row labels against named columns with one run per cell.
:func:`sweep` builds cell ``(row, column)`` from a base config plus the
row's and then the column's overrides and reduces its run with the
column's metric; the :class:`Grid` it returns keeps both the reduced
``series`` (what ``render`` prints) and the raw ``cells`` (what the claims
under ``benchmarks/`` read).  :func:`run_cells`, the one cell executor,
runs each config once per process (Table 1 and the lifespan comparison
share their runs, and so do the Fig. 5 panels and the client sweep over
two of them), a grid's missing cells over a pool of the usable cores.
A cell reads only sizes and times, so every grid but Fig. 8b runs on the
ghost plane (``verify=False``: no payload bytes, ``consistent`` is None).

The shapes the paper reports, asserted by ``benchmarks/test_*``:

* **Fig. 5** (§5.2) — SSD update IOPS over client counts per RS code and
  trace: TSUE highest everywhere, its margin growing with m (paper: x1.5
  at m=2 up to x10 over PLR at m=4), larger under Ten-Cloud than Ali.
* **Fig. 6** — IOPS over time with the recycle running (6a): stable; IOPS
  and log memory against the unit quota (6b): quota 2 back-pressures.
* **Fig. 7** (§5.3.3) — the O1..O5 ladder: O3 the largest step, O4 the
  least, O5 ~ +30 %, O1 > O2.
* **Fig. 8** (§5.4) — HDD, RS(6,4), MSR volumes (TSUE with 3 DataLog copies
  and no DeltaLog): update IOPS (8a), TSUE far ahead; recovery bandwidth
  after a warm-up (8b), deferred logs drain first, TSUE near FO.
* **Table 1** — device and network volume, Ten-Cloud RS(6,4): TSUE the
  fewest ops; **lifespan** (§5.3.4) — the same runs' flash erases against
  the worst method's (paper: TSUE lasts 2.5x-13x longer).
* **Table 2** — per-layer append / buffer / recycle residency, TSUE at
  RS(12,4).  APPEND ends at ack-ready: for the DataLog, the later of the
  local persist and the replica round trip.  Residency scales with the
  unit size (§5.3.5), so bench totals are shorter than the paper's ~10 s
  (16 MB units, hour-long replays); buffering dominates either way.
* **Ablations** — unit size vs DataLog buffer residency, DataLog replica
  count, two-level-index merging at a fixed pool structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.experiment import (
    ExperimentConfig,
    attach_replayer,
    run_experiment,
    run_protocol,
)
from repro.metrics.latency import ResidencyTracker
from repro.metrics.report import format_series
from repro.recovery import RecoveryResult, recover_node_proc

METHODS = ("fo", "pl", "plr", "parix", "cord", "tsue")
HDD_METHODS = ("fo", "pl", "plr", "parix", "tsue")
CODES: Tuple[Tuple[int, int], ...] = ((6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4))
UNIT_QUOTAS = (2, 4, 6, 8, 12, 16, 20)
MSR_VOLS = ("src10", "src22", "proj2", "prn1", "hm0", "usr0", "mds0")

# TSUE's log settings per artifact; the other methods keep the defaults.
FIG5_TSUE = dict(unit_bytes=256 * 1024, flush_age=0.02, flush_interval=0.01)
# Real-time recycle at its tightest: at node scale the rebuild dwarfs any
# residue, which a short bench run can only approximate by keeping the
# residue minimal.
FIG8B_TSUE = dict(unit_bytes=128 * 1024, flush_age=0.01, flush_interval=0.005)
ABLATION_TSUE = dict(unit_bytes=512 * 1024, flush_age=0.05, flush_interval=0.02)

# Fig. 7's cumulative ladder: from one exclusive unit per log and no
# locality merging, each variant switches one more optimisation on.
_LADDER: List[Tuple[str, Dict[str, object]]] = [
    ("baseline", dict(use_locality_data=False, use_locality_parity=False,
                      use_log_pool=False, n_pools=1, use_delta_log=False)),
    ("O1", dict(use_locality_data=True)),  # locality in the DataLog
    ("O2", dict(use_locality_parity=True)),  # locality in the ParityLog
    # The multi-unit FIFO log pool.  Its one pool gets the capacity of O4's
    # four, so the O3 -> O4 step measures pool concurrency, not memory.
    ("O3", dict(use_log_pool=True, max_units=16)),
    ("O4", dict(n_pools=4, max_units=4)),  # four log pools per device
    ("O5", dict(use_delta_log=True)),  # the DeltaLog layer (Eq. 5)
]
VARIANTS = list(accumulate(_LADDER, lambda prev, step: (step[0], {**prev[1], **step[1]})))

Row = Tuple[Any, Dict[str, Any]]  # label, config overrides
Column = Tuple[str, Dict[str, Any], Callable[[Any], Any]]  # name, overrides, metric

agg_iops = attrgetter("agg_iops")
IOPS: Column = ("IOPS", {}, agg_iops)


@dataclass
class Grid:
    """One artifact: a value per (row, column), printed as one table."""

    title: str
    x_name: str
    x: List[Any]  # the row labels
    series: Dict[str, List[Any]] = field(default_factory=dict)  # one value per row
    cells: Dict[Tuple[Any, str], Any] = field(default_factory=dict)  # raw runs

    def render(self) -> str:
        return format_series(self.series, self.x, self.x_name, title=self.title)


CORES = len(os.sched_getaffinity(0))  # the usable cores: the pool's default and cap
_MEMO: Dict[Tuple[Callable, str], Any] = {}  # (runner, repr(cell)) -> result


def run_cells(run: Callable, cells: Sequence, jobs: Optional[int] = None) -> List:
    """``[run(c) for c in cells]``: a run is a pure function of its cell, so
    a cell in the memo (key: ``run``, ``repr(c)``) is not run again.  One
    missing cell, or ``jobs <= 1``, runs in-process (the serial reference
    path); more over a pool of ``min(jobs or CORES, CORES, missing)``
    workers, whose results the parent's memo keeps, in cell order."""
    keys = [(run, repr(c)) for c in cells]
    missing = {k: c for k, c in zip(keys, cells) if k not in _MEMO}
    workers = min(jobs or CORES, CORES, len(missing))
    if workers <= 1:
        done = map(run, missing.values())
    else:
        # Forked: a spawned pool re-imports the package, ~0.4 s per grid.
        # A run starts no thread, so there is none to lose in the fork.
        import multiprocessing  # here: a process that never pools never loads it
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            done = pool.map(run, missing.values(), chunksize=1)
    _MEMO.update(zip(missing, done))
    return [_MEMO[k] for k in keys]


def sweep(
    title: str,
    x_name: str,
    base: ExperimentConfig,
    rows: Sequence[Row],
    columns: Sequence[Column],
    run: Callable = run_experiment,
) -> Grid:
    """Run every (row, column) cell in one :func:`run_cells` and reduce it."""
    grid = Grid(title, x_name, [label for label, _ in rows], {name: [] for name, _, _ in columns})
    todo = [(label, name, metric, replace(base, **{**row, **col}))
            for label, row in rows for name, col, metric in columns]
    for (label, name, metric, _), res in zip(todo, run_cells(run, [cfg for *_, cfg in todo])):
        grid.cells[label, name] = res
        grid.series[name].append(metric(res))
    return grid


def _config(**kw) -> ExperimentConfig:
    return ExperimentConfig(verify=False, **kw)


def _methods(methods: Sequence[str], metric=agg_iops, tsue_params: Dict = None) -> List[Column]:
    """One column per method; ``tsue_params`` are TSUE's log settings."""
    tsue = dict(strategy_params=tsue_params) if tsue_params else {}
    return [(m, dict(method=m, **(tsue if m == "tsue" else {})), metric) for m in methods]


def _volumes(volumes: Sequence[str]) -> List[Row]:
    return [(vol, dict(trace=f"msr:{vol}")) for vol in volumes]


def run_fig5(
    k: int,
    m: int,
    trace: str,
    clients: Sequence[int] = (4, 16, 64),
    updates_per_client: int = 100,
    methods: Sequence[str] = METHODS,
    seed: int = 7,
) -> Grid:
    """One (code, trace) panel of Fig. 5."""
    return sweep(
        f"Fig.5 RS({k},{m}) {trace}-cloud: aggregate update IOPS", "clients",
        _config(trace=trace, k=k, m=m, updates_per_client=updates_per_client, seed=seed),
        [(n, dict(n_clients=n)) for n in clients],
        _methods(methods, tsue_params=FIG5_TSUE),
    )


def run_fig6a(
    n_clients: int = 32, updates_per_client: int = 200, buckets: int = 10, seed: int = 11
) -> Grid:
    """Fig. 6a: one TSUE run's completions in ``buckets`` equal intervals."""
    [res] = run_cells(run_experiment, [_config(
        method="tsue", trace="ten", k=6, m=4, n_clients=n_clients,
        updates_per_client=updates_per_client, seed=seed,
    )])
    s = res.update_recorder.iops_series(bucket=res.horizon / buckets, horizon=res.horizon)
    x = [f"{t * 1000:.0f}ms" for t in s.times]
    return Grid(
        "Fig.6a aggregate IOPS over time (TSUE, recycle running)", "t", x,
        {"IOPS": s.values}, {(t, "IOPS"): res for t in x},
    )


def run_fig6b(
    quotas: Sequence[int] = UNIT_QUOTAS,
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 11,
) -> Grid:
    return sweep(
        "Fig.6b throughput and memory vs log-unit quota (TSUE)", "max units/pool",
        _config(method="tsue", trace="ali", k=6, m=4, n_clients=n_clients,
                updates_per_client=updates_per_client, seed=seed),
        [(q, dict(strategy_params=dict(unit_bytes=128 * 1024, min_units=2, max_units=q)))
         for q in quotas],
        [IOPS, ("peak log mem (MB)", {}, lambda r: r.peak_log_memory / (1 << 20))],
    )


def run_fig7(
    trace: str = "ten",
    m: int = 4,
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 13,
    variants: Sequence[Tuple[str, Dict[str, object]]] = tuple(VARIANTS),
) -> Grid:
    return sweep(
        f"Fig.7 breakdown, {trace}-cloud RS(6,{m})", "variant",
        _config(method="tsue", trace=trace, k=6, m=m, n_clients=n_clients,
                updates_per_client=updates_per_client, seed=seed),
        [(label, dict(strategy_params=dict(flags))) for label, flags in variants],
        [IOPS],
    )


def run_fig8a(
    volumes: Sequence[str] = MSR_VOLS,
    methods: Sequence[str] = HDD_METHODS,
    n_clients: int = 24,
    updates_per_client: int = 240,
    seed: int = 23,
) -> Grid:
    return sweep(
        "Fig.8a HDD update throughput, MSR volumes, RS(6,4)", "volume",
        _config(k=6, m=4, device_kind="hdd", n_clients=n_clients,
                updates_per_client=updates_per_client, seed=seed),
        _volumes(volumes),
        _methods(methods),
    )


def run_fig8b(
    volumes: Sequence[str] = ("src10", "hm0", "usr0"),
    methods: Sequence[str] = HDD_METHODS,
    n_clients: int = 8,
    updates_per_client: int = 240,
    seed: int = 29,
) -> Grid:
    """Fig. 8b: recovery bandwidth per (volume, method); the raw cells are
    the :class:`RecoveryResult` of each :func:`run_recovery`."""
    return sweep(
        "Fig.8b HDD recovery bandwidth (MB/s) after update warm-up", "volume",
        _config(k=6, m=4, device_kind="hdd", n_clients=n_clients,
                updates_per_client=updates_per_client, stripes_per_file=24, seed=seed),
        _volumes(volumes),
        _methods(methods, attrgetter("bandwidth_mbps"), FIG8B_TSUE),
        run=run_recovery,
    )


def run_recovery(cfg: ExperimentConfig) -> RecoveryResult:
    """Fig. 8b's cell: warm up with updates, then fail one OSD and recover it.

    Files are *materialised* (not sparse) so the failed OSD really hosts
    its full share of blocks: recovery bandwidth is then dominated by
    reconstruction volume, with the pre-recovery log drain showing up as
    the per-method difference — the paper's Fig. 8b setting, where a
    3-minute warm-up precedes recovering a whole node.  The run is always
    on the byte plane, verified: the protocol's oracle holds every rebuilt
    data byte against the preload and the updates (``LostUpdateError``).
    """
    return run_protocol(
        replace(cfg, verify=True), _attach_materialised, lambda run: run.tail,
        tail=_fail_most_loaded, what="fig8 replay",
    )


def _attach_materialised(cluster, cfg):
    """One fully written file (stream ``load``) and one replayer per client;
    each file is a writer of the run, acked before any update."""
    load_rng = cluster.rng.get("load")
    replayers = []
    for i in range(cfg.n_clients):
        cluster.writes.preload("load", 1000 + i, cfg.file_size, load_rng)
        content = load_rng.integers(0, 256, cfg.file_size, dtype="uint8")
        cluster.instant_load_file(1000 + i, content)
        replayers.append(attach_replayer(cluster, cfg, i))
    return replayers


def _fail_most_loaded(cluster):
    """The run's tail: fail the OSD storing the most blocks (a deterministic
    choice) and recover it — log drain included, it is what Fig. 8b measures."""
    victim = max(cluster.osds, key=lambda o: len(o.store)).name
    return (yield from recover_node_proc(cluster, victim))


def _table1_sweep(title, columns, n_clients, updates_per_client, seed, methods) -> Grid:
    """Table 1's runs (one per method, Ten-Cloud RS(6,4)), reduced by ``columns``."""
    return sweep(
        title, "METHOD",
        _config(trace="ten", k=6, m=4, n_clients=n_clients,
                updates_per_client=updates_per_client, seed=seed),
        [(m.upper(), dict(method=m)) for m in methods],
        columns,
    )


def run_table1(
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 17,
    methods: Sequence[str] = METHODS,
) -> Grid:
    return _table1_sweep(
        "Table 1: storage workload and network traffic (Ten-Cloud, RS(6,4))",
        [
            ("R/W Num.", {}, attrgetter("rw_ops")),
            ("R/W GB", {}, lambda r: round(r.rw_gb, 3)),
            ("OW Num.", {}, attrgetter("overwrite_ops")),
            ("OW GB", {}, lambda r: round(r.overwrite_gb, 3)),
            ("NET GB", {}, lambda r: round(r.net_gb, 3)),
        ],
        n_clients, updates_per_client, seed, methods,
    )


def relative_lifespan(erases: Sequence[float]) -> List[float]:
    """Lifespan is inverse to wear: each erase count against the worst."""
    worst = max(erases)
    return [worst / e for e in erases]


def run_lifespan(
    n_clients: int = 32,
    updates_per_client: int = 150,
    seed: int = 17,
    methods: Sequence[str] = METHODS,
) -> Grid:
    grid = _table1_sweep(
        "SSD lifespan (erase-op accounting, Ten-Cloud RS(6,4))",
        [
            ("erase ops", {}, lambda r: round(r.erase_ops, 1)),
            ("page writes", {}, attrgetter("page_writes")),
        ],
        n_clients, updates_per_client, seed, methods,
    )
    rel = relative_lifespan([grid.cells[x, "erase ops"].erase_ops for x in grid.x])
    grid.series["rel. lifespan"] = [round(r, 2) for r in rel]
    return grid


def run_table2(
    n_clients: int = 32,
    updates_per_client: int = 150,
    unit_bytes: int = 512 * 1024,
    seed: int = 19,
) -> Grid:
    """Table 2: one TSUE run per trace, four rows each (three layers and
    the end-to-end total); ``cells[trace, "residency"]`` is the run."""
    runs = sweep(
        "Table 2: residency of updated data in memory (TSUE, RS(12,4))", "TRACE",
        _config(method="tsue", k=12, m=4, n_clients=n_clients,
                updates_per_client=updates_per_client, seed=seed,
                strategy_params=dict(unit_bytes=unit_bytes, flush_age=0.1,
                                     flush_interval=0.05)),
        [(t, dict(trace=t)) for t in ("ali", "ten")],
        [("residency", {}, attrgetter("residency"))],
    )
    table = []
    for trace, tracker in zip(runs.x, runs.series["residency"]):
        for layer in ResidencyTracker.LAYERS:
            table.append((trace, layer, *(round(v, 1) for v in tracker.mean_us(layer))))
        table.append((trace, "TOTAL", "", "", round(tracker.total_time_us(), 1)))
    x, *columns = zip(*table)
    names = ("LAYER", "APPEND us", "BUFFER us", "RECYCLE us")
    return Grid(runs.title, "TRACE", list(x), dict(zip(names, map(list, columns))), runs.cells)


def _ablation(title, x_name, rows, columns, n_clients, updates, seed) -> Grid:
    """TSUE on Ten-Cloud RS(6,4); each row's flags over ``ABLATION_TSUE``."""
    return sweep(
        title, x_name,
        _config(method="tsue", trace="ten", k=6, m=4, n_clients=n_clients,
                updates_per_client=updates, seed=seed),
        [(label, dict(strategy_params={**ABLATION_TSUE, **flags})) for label, flags in rows],
        columns,
    )


def run_unit_size_ablation(
    unit_sizes: Sequence[int] = (256 * 1024, 512 * 1024, 1024 * 1024),
    n_clients: int = 32,
    updates: int = 150,
    seed: int = 31,
) -> Grid:
    return _ablation(
        "Ablation: log-unit size vs residency (§5.3.5)", "unit KiB",
        [(u // 1024, dict(unit_bytes=u)) for u in unit_sizes],
        [("data-log buffer (us)", {}, lambda r: r.residency.mean_us("data_log")[1]), IOPS],
        n_clients, updates, seed,
    )


def run_replica_ablation(
    replica_counts: Sequence[int] = (1, 2, 3),
    n_clients: int = 32,
    updates: int = 150,
    seed: int = 37,
) -> Grid:
    return _ablation(
        "Ablation: DataLog replica count", "DataLog copies",
        [(r, dict(replicas=r)) for r in replica_counts],
        [IOPS, ("latency (us)", {}, lambda r: r.mean_latency * 1e6)],
        n_clients, updates, seed,
    )


def run_index_ablation(n_clients: int = 32, updates: int = 150, seed: int = 41) -> Grid:
    return _ablation(
        "Ablation: two-level-index merging at fixed pool structure", "index merging",
        [(label, dict(use_locality_data=on, use_locality_parity=on))
         for label, on in (("off", False), ("on", True))],
        [IOPS, ("device R/W ops", {}, attrgetter("rw_ops"))],
        n_clients, updates, seed,
    )
