"""Per-layer metrics: fold a cProfile run into layers, read simulated counters.

Host side: :func:`fold_profile` maps every profiled function to a layer by
its source path under ``src/repro/`` and sums self time and call counts per
layer.  C builtins, numpy and stdlib functions have no layer of their own;
their self time is charged to the layer that called them, through the
profiler's callers table (followed through chains of such functions).  Two
guards make the fold trustworthy: a profiled file under ``src/repro/`` that
maps to no layer fails the run, and the folded self times must add up to
the profiler's total within 1%.

Simulated side: :func:`sim_layer_metrics` reads public counters of the
finished ``Cluster`` (and the runner's result) only — nothing here reaches
into the program while it runs, except ``StorageDevice.trace_hook``, the
program's own hook, which :class:`DeviceBusy` installs in the traced run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

LAYERS = (
    "sim", "fs.messages", "fs.client", "fs.osd", "fs.mds", "fs.blockstore",
    "net", "devices", "update", "tsue", "logstruct", "ec", "gf", "dataplane",
    "workload", "traces", "metrics", "recovery", "cluster", "harness",
)
OTHER = "other"

_REPRO_MARK = "/src/repro/"


class UnmappedSourceError(RuntimeError):
    """A profiled file under src/repro/ belongs to no layer."""


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file, or None if it is not under ``src/repro/``.

    A layer is the first path component under ``src/repro/`` (a package or
    a top-level module); ``fs`` is split by module.  Anything else under
    ``src/repro/`` raises: a new module must be added to :data:`LAYERS`
    here before it can be profiled, it cannot fall silently into ``other``.
    """
    at = filename.replace("\\", "/").rfind(_REPRO_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_REPRO_MARK):].split("/")
    head = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if head == "fs" and len(parts) > 1:
        head = "fs." + parts[1][:-3]
    if head not in LAYERS:
        raise UnmappedSourceError(
            f"profiled file {filename!r} maps to no layer (got {head!r}); "
            "add its module to benchmarks/perf/layers.py:LAYERS"
        )
    return head


def fold_profile(stats: dict, requests: int) -> Tuple[Dict[str, float], dict]:
    """Fold ``pstats.Stats(...).stats`` into per-layer metrics and edges.

    Returns ``(metrics, trace)``: ``metrics`` holds
    ``<layer>.self_us_per_req`` / ``<layer>.calls_per_req`` for every layer
    plus ``other.self_us_per_req``; ``trace`` holds the layer->layer
    call-edge matrix (calls, inclusive us) and the totals the guard used.
    """
    own: Dict[tuple, Optional[str]] = {f: layer_of(f[0]) for f in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func: tuple) -> Dict[str, float]:
        """The layers a function's self time is charged to (sums to 1)."""
        if own[func] is not None:
            return {own[func]: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {}               # a caller cycle back to here adds nothing
        callers = stats[func][4]
        weights = {c: v[2] for c, v in callers.items()}
        if not any(weights.values()):
            weights = {c: v[0] for c, v in callers.items()}
        out: Dict[str, float] = {}
        for caller, w in weights.items():
            if w > 0:
                for layer, s in shares(caller).items():
                    out[layer] = out.get(layer, 0.0) + s * w
        total = sum(out.values())
        # No caller with a layer: the profiler's entry point, or a pure cycle.
        out = {k: v / total for k, v in out.items()} if total > 0 else {OTHER: 1.0}
        memo[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    calls = {layer: 0 for layer in LAYERS}
    edges: Dict[Tuple[str, str], List[float]] = {}
    total_tt = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total_tt += tt
        for layer, share in shares(func).items():
            self_s[layer] += tt * share
        callee = own[func]
        if callee is not None:
            calls[callee] += nc
        for caller, (c_nc, _c_cc, _c_tt, c_ct) in callers.items():
            edge = edges.setdefault((own[caller] or OTHER, callee or OTHER), [0, 0.0])
            edge[0] += c_nc
            edge[1] += c_ct

    folded = sum(self_s.values())
    if total_tt > 0 and abs(folded - total_tt) > 0.01 * total_tt:
        raise RuntimeError(
            f"layer fold lost time: layers sum to {folded:.4f}s, "
            f"profile total is {total_tt:.4f}s"
        )

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_req"] = 1e6 * self_s[layer] / requests
        metrics[f"{layer}.calls_per_req"] = calls[layer] / requests
    metrics[f"{OTHER}.self_us_per_req"] = 1e6 * self_s[OTHER] / requests
    trace = {
        "requests": requests,
        "profile_total_s": total_tt,
        "self_s": self_s,
        "edges": [
            {"from": a, "to": b, "calls": int(n), "inclusive_us": 1e6 * ct}
            for (a, b), (n, ct) in sorted(edges.items())
        ],
    }
    return metrics, trace


class DeviceBusy:
    """Sums service time per device through ``StorageDevice.trace_hook``."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}

    def install(self, cluster) -> None:
        for osd in cluster.osds:
            name = osd.device.name
            self.busy[name] = 0.0
            osd.device.trace_hook = self._hook(name)

    def _hook(self, name: str):
        busy = self.busy

        def on_io(req) -> None:
            busy[name] += req.service_time

        return on_io

    def fractions(self, cluster) -> List[float]:
        """Busy share of every device's channels over the whole simulated run."""
        span = cluster.sim.now
        if span <= 0:
            return [0.0]
        return [
            self.busy[osd.device.name] / (span * osd.device.profile.channels)
            for osd in cluster.osds
        ]


def _pooled(sample_sets, name: str):
    """One LatencyRecorder holding every sample of ``sample_sets``."""
    from repro.metrics.latency import LatencyRecorder

    agg = LatencyRecorder(name)
    for samples in sample_sets:
        agg.latencies.extend(samples)
    return agg


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def sim_layer_metrics(cluster, outcome, busy: Optional[DeviceBusy]) -> Dict[str, float]:
    """Counter-derived layer metrics of one finished run (bit-exact per seed).

    ``busy`` is None in untraced runs; the two ``devices.busy_frac_*``
    metrics are then left out.
    """
    requests = outcome.updates + outcome.reads
    kreq = requests / 1000.0
    ops = cluster.total_ops()
    net = cluster.total_net()
    hosts = list(cluster.clients) + list(cluster.osds) + [cluster.mds]

    reads = _pooled((c.read_latency.latencies for c in cluster.clients), "reads")
    read_p50, read_p99 = reads.percentiles((50.0, 99.0))
    lock_waits = _pooled((o.stripe_locks.wait_times for o in cluster.osds), "locks")
    acquisitions = sum(o.stripe_locks.acquisitions for o in cluster.osds)
    contended = sum(o.stripe_locks.contended for o in cluster.osds)

    out = {
        "fs.messages.msgs_per_req": _ratio(net.messages, requests),
        "fs.messages.retransmits_per_kreq": _ratio(
            sum(h.retransmits for h in hosts), kreq),
        "fs.messages.dups_suppressed_per_kreq": _ratio(
            sum(h.duplicates_suppressed for h in hosts), kreq),
        "net.msg_kb_mean": _ratio(net.bytes_sent / 1024.0, net.messages),
        "net.drops_per_kreq": _ratio(cluster.fabric.dropped_total, kreq),
        "devices.ops_per_req": _ratio(ops.rw_ops, requests),
        "devices.seq_write_frac": _ratio(ops.write_ops_seq, ops.write_ops),
        "devices.overwrite_kb_per_req": _ratio(ops.overwrite_bytes / 1024.0, requests),
        "devices.read_kb_per_req": _ratio(ops.read_bytes / 1024.0, requests),
        "fs.client.read_p50_us": 1e6 * read_p50,
        "fs.client.read_p99_us": 1e6 * read_p99,
        "fs.client.update_retries_per_kreq": _ratio(
            sum(c.update_retries for c in cluster.clients), kreq),
        "fs.client.fenced_per_kreq": _ratio(
            sum(c.fenced_updates for c in cluster.clients), kreq),
        "fs.osd.read_cache_hit_frac": _ratio(
            sum(o.cache_hits for o in cluster.osds),
            sum(o.reads_served for o in cluster.osds)),
        "update.lock_wait_us_mean": 1e6 * lock_waits.mean(),
        "update.lock_wait_us_p99": 1e6 * lock_waits.percentile(99.0),
        "update.lock_contended_frac": _ratio(contended, acquisitions),
        "update.sync_recycles_per_kreq": _ratio(
            sum(getattr(o.strategy, "sync_recycles", 0) for o in cluster.osds), kreq),
        "workload.reads_frac": _ratio(outcome.reads, requests),
    }
    if busy is not None:
        fracs = busy.fractions(cluster)
        out["devices.busy_frac_mean"] = sum(fracs) / len(fracs)
        out["devices.busy_frac_max"] = max(fracs)

    # TSUE's three log layers (zero on other methods: no engine).
    from repro.metrics.latency import ResidencyTracker

    residency = ResidencyTracker()
    peak_log = seals = 0
    for osd in cluster.osds:
        engine = getattr(osd.strategy, "engine", None)
        if engine is None:
            continue
        residency = residency.merge(engine.residency)
        peak_log += engine.peak_log_memory_bytes()
        for pools in (engine.data_pools, engine.delta_pools, engine.parity_pools):
            seals += sum(p.total_seals for p in pools)
    for layer, key in (("data_log", "datalog"), ("delta_log", "deltalog"),
                       ("parity_log", "paritylog")):
        out[f"tsue.{key}_residency_us"] = sum(residency.mean_us(layer))
    out["tsue.peak_log_mb"] = peak_log / float(1 << 20)
    out["tsue.unit_seals_per_kreq"] = _ratio(seals, kreq)

    rec = outcome.recovery or {}
    out["recovery.rebuild_ms"] = 1e3 * rec.get("rebuild_s", 0.0)
    out["recovery.drain_ms"] = 1e3 * rec.get("drain_s", 0.0)
    out["recovery.mbps"] = rec.get("recovery_mbps", 0.0)
    out["recovery.foreground_dip"] = rec.get("foreground_dip", 0.0)
    change_s = (outcome.elastic or {}).get("change_window_s", 0.0)
    out["workload.fault_window_frac"] = min(1.0, _ratio(change_s, outcome.horizon))
    return out
