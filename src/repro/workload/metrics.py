"""The ``recovery`` and ``elastic`` sections of a fault run's result.

Both are end-of-run passes over what the run left behind — the cluster's
outage windows, the injector's fired timeline and migrations, the clients'
latency recorders — and return flat, JSON-ready float dicts.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.latency import LatencyRecorder, merge_windows, window_samples


def _foreground_dip(clients, windows, horizon) -> float:
    """Update completion rate inside ``windows`` (clipped to the workload
    horizon) over the rate outside them; 0.0 when either side is empty."""
    clipped = merge_windows([(a, min(b, horizon)) for a, b in windows if a < horizon])
    in_window_s = sum(b - a for a, b in clipped)
    in_count = out_count = 0
    for c in clients:
        for t in c.update_latency.completion_times:
            if t <= horizon and any(a <= t <= b for a, b in clipped):
                in_count += 1
            elif t <= horizon:
                out_count += 1
    out_s = max(horizon - in_window_s, 0.0)
    in_rate = in_count / in_window_s if in_window_s > 0 else 0.0
    out_rate = out_count / out_s if out_s > 0 else 0.0
    return in_rate / out_rate if out_rate > 0 else 0.0


def recovery_metrics(cluster, injector, recoveries, scrub_report, horizon) -> dict:
    """The ``recovery`` section of a failure scenario's result."""
    windows = merge_windows(
        [(t0, t1) for _name, t0, t1 in cluster.down_windows if t1 is not None]
    )
    downtime = sum(b - a for a, b in windows)

    # Honest degraded p99: only reads that actually decoded through the
    # degraded path (clients record them separately), not every read that
    # happened to complete while a node was down.
    rec = LatencyRecorder("degraded")
    for c in cluster.clients:
        rec.latencies.extend(c.degraded_read_latency.latencies)
    degraded_p99 = rec.percentile(99.0)
    # All-reads-during-outage p99: the service-level view of the outage
    # (cache-hit and healthy-extent reads included).
    outage_rec = LatencyRecorder("outage-reads")
    for c in cluster.clients:
        outage_rec.latencies.extend(window_samples(c.read_latency, windows))
    outage_read_p99 = outage_rec.percentile(99.0)

    # Detection: each victim's down-mark to the start of its recovery.  On a
    # single-crash run downtime_s == detect_s + drain_s + rebuild_s + repair_s.
    detect_s = sum(
        r.started_at - max(
            t0 for name, t0, _t1 in cluster.down_windows
            if name == r.failed_osd and t0 <= r.started_at
        )
        for r in recoveries
    )
    drain_s = sum(r.drain_seconds for r in recoveries)
    rebuild_s = sum(r.rebuild_seconds for r in recoveries)
    recovered = sum(r.bytes_recovered for r in recoveries)
    return {
        # ``restart`` is a scheduled stop-mode outage: it counts as a
        # failure here (downtime/dip integrate over its window) even though
        # it heals itself without the watcher.
        "failures": float(
            sum(1 for _t, a, _n, _d in injector.timeline if a in ("fail", "restart"))
        ),
        "recoveries": float(len(recoveries)),
        "downtime_s": downtime,
        "detect_s": detect_s,
        "drain_s": drain_s,
        "rebuild_s": rebuild_s,
        "repair_s": sum(r.repair_seconds for r in recoveries),
        "recovered_mb": recovered / (1 << 20),
        "recovery_mbps": (
            recovered / (drain_s + rebuild_s) / (1 << 20)
            if drain_s + rebuild_s > 0
            else 0.0
        ),
        "parity_repaired": float(sum(r.parity_repaired for r in recoveries)),
        "degraded_reads": float(sum(c.degraded_reads for c in cluster.clients)),
        "degraded_read_p99_us": degraded_p99 * 1e6,
        "outage_read_p99_us": outage_read_p99 * 1e6,
        "update_retries": float(sum(c.update_retries for c in cluster.clients)),
        "fenced_updates": float(sum(c.fenced_updates for c in cluster.clients)),
        "foreground_dip": _foreground_dip(cluster.clients, windows, horizon),
        "scrub_stripes": float(scrub_report.stripes_checked),
        "scrub_clean": True,  # gate: run_scenario raised otherwise
    }


def elastic_metrics(cluster, injector, horizon) -> dict:
    """The ``elastic`` section of a live-change scenario's result.

    Change windows come from three sources: degradation windows opened by
    ``slow``/``slow_link`` events (closed by ``heal``, or at measurement
    time if the schedule never heals), outage windows from ``restart``
    steps (``cluster.down_windows``), and migration windows spanning each
    join/decommission rebalance.  Straggler amplification compares the
    update-latency p99 of ops overlapping a degraded window against the
    p99 of every other update; the change dip is the recovery-style
    foreground-rate ratio integrated over *all* change windows.
    """
    sim_now = cluster.sim.now
    counts: Dict[str, int] = {}
    for _t, action, _name, _detail in injector.timeline:
        counts[action] = counts.get(action, 0) + 1

    degraded = merge_windows(
        [(t0, t1 if t1 is not None else sim_now)
         for _name, t0, t1 in injector.degraded_windows]
    )
    degraded_s = sum(b - a for a, b in degraded)

    # Straggler amplification: updates overlapping a degraded window vs
    # every other update.  Overlap by [start, completion] span, same rule
    # as window_samples.
    slow_rec = LatencyRecorder("degraded-updates")
    fast_rec = LatencyRecorder("healthy-updates")
    for c in cluster.clients:
        for t, lat in zip(
            c.update_latency.completion_times, c.update_latency.latencies
        ):
            start = t - lat
            if any(start < b and t > a for a, b in degraded):
                slow_rec.latencies.append(lat)
            else:
                fast_rec.latencies.append(lat)
    slow_p99 = slow_rec.percentile(99.0)
    fast_p99 = fast_rec.percentile(99.0)

    migrations = list(injector.migrations)
    blocks_moved = sum(r.blocks_moved for r in migrations)
    bytes_moved = sum(r.bytes_moved for r in migrations)

    # Change windows: degraded + outage + migration.
    outage = [
        (t0, t1) for _name, t0, t1 in cluster.down_windows if t1 is not None
    ]
    change = merge_windows(
        degraded + outage + [(r.t_start, r.t_end) for r in migrations]
    )

    # Delivery plane and copy throttle: zeros when nothing was lost and no
    # rebalance was paced.
    hosts = list(cluster.clients) + list(cluster.osds) + [cluster.mds]
    throttled = [r for r in migrations if r.throttle_mbps > 0]
    granted_mb = sum(r.throttle_mbps * r.copy_seconds for r in throttled)

    return {
        "slow_events": float(counts.get("slow", 0)),
        "slow_link_events": float(counts.get("slow_link", 0)),
        "heals": float(counts.get("heal", 0)),
        "restarts": float(counts.get("restart", 0)),
        "joins": float(counts.get("join", 0)),
        "decommissions": float(counts.get("decommission", 0)),
        "degraded_s": degraded_s,
        "straggler_p99_us": slow_p99 * 1e6,
        "healthy_p99_us": fast_p99 * 1e6,
        "straggler_amplification": slow_p99 / fast_p99 if fast_p99 > 0 else 0.0,
        "link_drops": float(cluster.fabric.dropped_total),
        "link_drop_requests": float(cluster.fabric.dropped_requests),
        "link_drop_replies": float(cluster.fabric.dropped_replies),
        "retransmits": float(sum(h.retransmits for h in hosts)),
        "duplicates_suppressed": float(
            sum(h.duplicates_suppressed for h in hosts)),
        "cached_reply_hits": float(sum(h.cached_reply_hits for h in hosts)),
        "migrations": float(len(migrations)),
        "stripes_migrated": float(sum(r.stripes_migrated for r in migrations)),
        "blocks_moved": float(blocks_moved),
        "migration_mb": bytes_moved / (1 << 20),
        "time_to_rebalance_s": sum(r.total_seconds for r in migrations),
        "rebalance_quiesce_s": sum(r.quiesce_seconds for r in migrations),
        "rebalance_drain_s": sum(r.drain_seconds for r in migrations),
        "rebalance_copy_s": sum(r.copy_seconds for r in migrations),
        "rebalance_throttle_mbps": max(
            (r.throttle_mbps for r in throttled), default=0.0),
        "rebalance_throttle_wait_s": sum(r.throttle_wait_s for r in throttled),
        "throttle_utilization": (
            sum(r.mb_moved for r in throttled) / granted_mb
            if granted_mb > 0 else 0.0
        ),
        "change_window_s": sum(b - a for a, b in change),
        "change_dip": _foreground_dip(cluster.clients, change, horizon),
        "ring_size": float(len(cluster.ring)),
    }
