"""What a scenario run reports, and the bench's JSON around it.

:class:`ScenarioResult` is one row; :data:`SWEEP_SECTIONS` says which
scenarios ``repro bench`` sweeps per method and where those rows land;
:func:`results_to_json`, :func:`baseline_drift` and :func:`write_json` are
the ``BENCH_scenarios.json`` payload, its determinism gate and its writer.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.workload.scenarios import ELASTIC_SCENARIOS


@dataclass
class ScenarioResult:
    """Everything one scenario run reports."""

    name: str
    method: str
    seed: int
    n_clients: int
    updates: int
    reads: int
    horizon: float
    iops: float              # completed ops (updates + reads) per second
    mean_latency: float      # update latency, seconds
    p50_latency: float
    p95_latency: float
    p99_latency: float
    peak_inflight: int       # max concurrent updates on any one client
    # Stripe-lock accounting, aggregated over every OSD's KeyedLock.
    # Log-structured methods never acquire, so all four stay zero.
    lock_acquisitions: int
    lock_contended: int
    lock_wait_mean: float    # seconds over all acquisitions (0 if none)
    lock_wait_p99: float
    # Volume per completed op over the whole run, drain included: the
    # ``sim_*`` metrics of the same names in ``benchmarks/perf/README.md``.
    dev_write_kb_per_req: float
    erases_per_kreq: float
    net_kb_per_req: float
    # Fault runs only (None otherwise): the flat, JSON-ready float sections
    # :mod:`repro.workload.metrics` builds — ``elastic`` only for schedules
    # with a live-change action.  Serialized only when present.
    recovery: Optional[Dict[str, float]] = None
    elastic: Optional[Dict[str, float]] = None
    # Machine-local measurement of this run (``Run.perf``).  NOT part of
    # to_dict() — the simulated-output rows must stay bit-exact across
    # hosts; ``results_to_json`` publishes it as a separate ``perf`` section.
    perf: Optional[Dict[str, float]] = None
    # Which payload plane the run used; serialized and rendered only when True.
    ghost_dataplane: bool = False

    @property
    def consistent(self) -> bool:
        """Always True for a returned result: post-drain parity consistency
        is a hard gate (``run_scenario`` raises ``InconsistentDrainError``
        instead of constructing a result).  Kept, also in ``to_dict``, so
        baselines and callers keep a uniform record that the gate held."""
        return True

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "method": self.method,
            "seed": self.seed,
            "n_clients": self.n_clients,
            "updates": self.updates,
            "reads": self.reads,
            "horizon_s": self.horizon,
            "iops": self.iops,
            "mean_latency_us": self.mean_latency * 1e6,
            "p50_latency_us": self.p50_latency * 1e6,
            "p95_latency_us": self.p95_latency * 1e6,
            "p99_latency_us": self.p99_latency * 1e6,
            "peak_inflight": self.peak_inflight,
            "consistent": self.consistent,
            "lock_acquisitions": self.lock_acquisitions,
            "lock_contended": self.lock_contended,
            "lock_wait_mean_us": self.lock_wait_mean * 1e6,
            "lock_wait_p99_us": self.lock_wait_p99 * 1e6,
            "dev_write_kb_per_req": self.dev_write_kb_per_req,
            "erases_per_kreq": self.erases_per_kreq,
            "net_kb_per_req": self.net_kb_per_req,
        }
        if self.recovery is not None:
            out["recovery"] = dict(self.recovery)
        if self.elastic is not None:
            out["elastic"] = dict(self.elastic)
        if self.ghost_dataplane:
            out["ghost_dataplane"] = True
        return out

    def render(self) -> str:
        text = (
            f"scenario={self.name} method={self.method} "
            f"clients={self.n_clients} "
            f"updates={self.updates} reads={self.reads}\n"
            f"  throughput : {self.iops:,.0f} ops/s "
            f"(horizon {self.horizon * 1e3:,.1f} ms)\n"
            f"  update lat : mean {self.mean_latency * 1e6:,.1f} us | "
            f"p50 {self.p50_latency * 1e6:,.1f} | "
            f"p95 {self.p95_latency * 1e6:,.1f} | "
            f"p99 {self.p99_latency * 1e6:,.1f}\n"
            f"  pipelining : peak {self.peak_inflight} in-flight updates/client\n"
            f"  stripe lock: {self.lock_acquisitions} acq "
            f"({self.lock_contended} contended) | "
            f"wait mean {self.lock_wait_mean * 1e6:,.1f} us "
            f"p99 {self.lock_wait_p99 * 1e6:,.1f} us\n"
            f"  volume     : {self.dev_write_kb_per_req:,.1f} KiB written | "
            f"{self.net_kb_per_req:,.1f} KiB sent per op | "
            f"{self.erases_per_kreq:,.0f} erases per 1000 ops\n"
            f"  consistent : {self.consistent}"
        )
        if self.recovery is not None:
            r = self.recovery
            text += (
                f"\n  failures   : {r['failures']:.0f} "
                f"({r['recoveries']:.0f} rebuilt), "
                f"downtime {r['downtime_s'] * 1e3:,.1f} ms\n"
                f"  outage     : detect {r['detect_s'] * 1e3:,.2f} ms + "
                f"drain {r['drain_s'] * 1e3:,.2f} ms + "
                f"rebuild {r['rebuild_s'] * 1e3:,.2f} ms + "
                f"repair {r['repair_s'] * 1e3:,.2f} ms\n"
                f"  recovery   : {r['recovery_mbps']:,.1f} MB/s "
                f"({r['parity_repaired']:.0f} stripes repaired)\n"
                f"  degraded   : {r['degraded_reads']:.0f} reads "
                f"(p99 {r['degraded_read_p99_us']:,.1f} us) | "
                f"{r['update_retries']:.0f} update retries, "
                f"{r['fenced_updates']:.0f} fenced\n"
                f"  fg dip     : {r['foreground_dip']:.2f}x in-window "
                f"update rate | post-scrub clean over "
                f"{r['scrub_stripes']:.0f} stripes"
            )
        if self.elastic is not None:
            e = self.elastic
            text += (
                f"\n  elastic    : {e['joins']:.0f} join / "
                f"{e['decommissions']:.0f} decomm / "
                f"{e['restarts']:.0f} restart / "
                f"{e['slow_events']:.0f} slow / "
                f"{e['slow_link_events']:.0f} slow-link\n"
                f"  migration  : {e['stripes_migrated']:.0f} stripes, "
                f"{e['migration_mb']:.1f} MB in "
                f"{e['time_to_rebalance_s'] * 1e3:,.2f} ms "
                f"(quiesce {e['rebalance_quiesce_s'] * 1e3:,.2f} ms, "
                f"copy {e['rebalance_copy_s'] * 1e3:,.2f} ms)\n"
                f"  straggler  : update p99 {e['straggler_p99_us']:,.1f} us "
                f"degraded vs {e['healthy_p99_us']:,.1f} us healthy "
                f"({e['straggler_amplification']:.2f}x) | "
                f"{e['link_drops']:.0f} link drops\n"
                f"  change dip : {e['change_dip']:.2f}x in-window update rate "
                f"over {e['change_window_s'] * 1e3:,.1f} ms of change windows\n"
                f"  delivery   : {e['retransmits']:.0f} retransmits, "
                f"{e['duplicates_suppressed']:.0f} dups suppressed "
                f"({e['cached_reply_hits']:.0f} cached replies) | "
                f"drops {e['link_drop_requests']:.0f} req / "
                f"{e['link_drop_replies']:.0f} reply\n"
                f"  throttle   : {e['rebalance_throttle_mbps']:.0f} MB/s "
                f"granted, {e['throttle_utilization'] * 100:.0f}% used, "
                f"{e['rebalance_throttle_wait_s'] * 1e3:,.2f} ms token wait"
            )
        return text


# Swept scenario -> (dotted JSON section, ``repro bench`` heading), in
# output order; a selected scenario listed here runs once per method on top
# of its registry row.  ``hot_stripe`` is the serialization-cost table:
# in-place methods pay stripe-lock waits, ``tsue``/``fl`` take no locks.
SWEEP_SECTIONS: Dict[str, Tuple[str, str]] = {
    "hot_stripe": ("methods", "per-method rows"),
    "rebuild_under_load": ("recovery", "per-method recovery rows"),
    "scale_up": ("scale_up", "per-method 10x rows"),
    "scale_out": ("scale_out", "per-method ghost-plane cluster rows"),
    **{
        name: (f"elastic.{name}", "per-method live-change rows")
        for name in ELASTIC_SCENARIOS
    },
}


def bench_rows(names: Sequence[str], methods: Sequence[str]) -> List[Tuple[str, str]]:
    """The bench's ``(scenario, method)`` cells in canonical order: every
    selected scenario on ``tsue``, then each swept one over ``methods``."""
    rows = [(name, "tsue") for name in names]
    rows += [(s, m) for s in SWEEP_SECTIONS if s in names for m in methods]
    return rows


def results_to_json(
    results: Sequence[ScenarioResult],
    sweeps: Optional[Dict[str, Sequence[ScenarioResult]]] = None,
) -> dict:
    """The ``BENCH_scenarios.json`` baseline payload: ``results`` are the
    registry rows (``"scenarios"``, keyed by name), ``sweeps`` maps a swept
    scenario to its per-method rows, which land under its
    :data:`SWEEP_SECTIONS` path keyed by method.  The ``perf`` section is
    host measurement — machine-dependent, kept OUT of the simulated rows so
    those stay bit-exact across hosts; determinism gates must ignore it."""
    payload: dict = {
        "bench": "scenarios",
        "scenarios": {r.name: r.to_dict() for r in results},
    }
    perf = {r.name: dict(r.perf) for r in results if r.perf}
    for scenario, rows in (sweeps or {}).items():
        *parents, leaf = SWEEP_SECTIONS[scenario][0].split(".")
        node = payload
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = {r.method: r.to_dict() for r in rows}
        perf.update({f"{scenario}/{r.method}": dict(r.perf) for r in rows if r.perf})
    if perf:
        payload["perf"] = perf
    return payload


def _leaf_diffs(path: str, a, b, out: list) -> None:
    """Append ``path: old -> new`` lines for every differing JSON *leaf*.

    Recurses through nested dicts so a changed cell reports its exact
    dotted leaf (``recovery.tsue.recovery.drain_s: 0.1 -> 0.2``), not both
    whole rows.  Keys only one side has are leaves too (sentinel
    ``<absent>``); mismatched shapes bottom out at the current path.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a:
                _leaf_diffs(sub, "<absent>", b[key], out)
            elif key not in b:
                _leaf_diffs(sub, a[key], "<absent>", out)
            else:
                _leaf_diffs(sub, a[key], b[key], out)
        return
    if a != b:
        old = a if isinstance(a, str) and a == "<absent>" else repr(a)
        new = b if isinstance(b, str) and b == "<absent>" else repr(b)
        out.append(f"{path}: {old} -> {new}")


def baseline_drift(baseline: dict, payload: dict) -> list:
    """Leaf cells that changed vs an existing baseline (the determinism gate).

    Compares the *simulated-output* sections (``scenarios`` plus every
    :data:`SWEEP_SECTIONS` root) leaf by leaf for every row present in both
    the baseline and this run.  The machine-dependent ``perf`` section is
    ignored, and rows only this run has (e.g. a freshly added scenario)
    are additions, not drift.  ``baseline`` is the decoded JSON — loaded
    by the caller *before* any ``--json`` write, so checking against the
    same path that is being regenerated still compares old vs new.
    """
    drift: list = []
    sections = dict.fromkeys(
        ["scenarios"] + [path.split(".")[0] for path, _ in SWEEP_SECTIONS.values()]
    )
    for section in sections:
        old = baseline.get(section, {})
        new = payload.get(section, {})
        # A baseline row this run did not produce is drift too — a silent
        # loss of coverage must not read as "clean".  (Narrowed runs, e.g.
        # --scenarios steady, will legitimately trip this; check against
        # the full registry run the baseline was made from.)
        for row in sorted(set(old) - set(new)):
            drift.append(f"{section}.{row}: present in baseline, missing from this run")
        for row in sorted(set(old) & set(new)):
            _leaf_diffs(f"{section}.{row}", old[row], new[row], drift)
    return drift


def write_json(payload: dict, path: str) -> None:
    """Write ``payload`` atomically (temp file + rename in the destination
    directory): a crashed or interrupted run can truncate a plain
    ``open(..., "w")``, silently destroying the committed baseline the
    determinism gates diff against."""
    dest = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(dest),
        prefix=os.path.basename(dest) + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
