"""Named end-to-end workload scenarios.

Each scenario is a reusable recipe: an arrival process, a pipelining depth,
a read/update mix, a tenant layout and (optionally) a custom record stream,
run against a small-but-real cluster through the standard harness config.
``repro scenario <name>`` runs one, ``repro bench`` runs the whole registry
— plus a per-method sweep of one scenario — and emits a throughput +
p50/p95/p99 + lock-wait baseline that later scaling PRs diff against.

Scenario runs verify *parity consistency* (stored parity equals re-encoded
stored data for every stripe of every file) after drain, not the byte-exact
shadow model of the closed-loop harness: with ``iodepth > 1`` two in-flight
updates may overlap in the file, so the final bytes depend on OSD arrival
order — legal, but not re-derivable from issue order alone.

Parity consistency is a *hard gate* for every method at every iodepth.
Log-structured strategies (``tsue``, ``fl``) are immune to same-stripe
races by construction — their parity maintenance is commutative XOR-delta
appends — while the read-modify-write baselines (``fo``, ``pl``, ``plr``,
``parix``, ``cord``) serialize same-stripe updates through their OSD's
per-stripe FIFO lock (:class:`~repro.sim.resources.KeyedLock`), exactly as
real deployments of those schemes do.  A run that still drains
inconsistent therefore indicates a genuine strategy bug, and
:func:`run_scenario` raises :class:`InconsistentDrainError` instead of
returning a result.  The cost of that serialization is measured: every
:class:`ScenarioResult` carries stripe-lock wait metrics, and the
``hot_stripe`` scenario (zipf-skewed offsets hammering a few stripes)
exists to maximise the contention the locks must absorb.

**Failure scenarios** (``degraded_read``, ``rebuild_under_load``,
``double_fault``) add a fault schedule on top of the workload: OSDs crash
or blip out mid-run, clients fence/degrade around them, and (for crash
modes) an MDS watcher rebuilds and restores the nodes while foreground
updates continue — the regime of the paper's §2.3.2/Fig. 8b recovery
story, under live load.  Two extra hard gates apply: every failure must be
healed before drain (a leftover down OSD is an error), and a *forced
post-recovery scrub* of every stripe the workload could have touched must
come back clean, or :func:`run_scenario` raises
:class:`PostRecoveryScrubError`.  Their results carry a ``recovery``
section: drain/rebuild seconds, effective recovery MB/s, degraded-read
p99, and the foreground-throughput dip while nodes were down.

**Live-change scenarios** (:data:`ELASTIC_SCENARIOS`) exercise the rest of
the fault plane: fail-slow devices (``fail_slow``), degraded/lossy fabric
links (``congested_fabric``), loss on every frame class including replies
(``lossy_cluster``), rolling restarts (``rolling_restart``), and elastic
membership — a live join (``scale_out_live``), a live decommission
(``scale_in_live``), and the same decommission under a QoS copy throttle
(``throttled_rebalance``) — migrating stripe placement through
:mod:`repro.recovery.rebalance` while foreground updates continue.  They
run under every standing gate the failure scenarios do (consistent drain,
heal-before-drain, forced post-recovery scrub) and report an extra
``elastic`` section: straggler-amplification p99 (degraded windows vs
healthy time), migration volume and time-to-rebalance, link drops, and the
foreground dip across every change window, the delivery-plane counters
(retransmits, duplicates suppressed, cached-reply hits, per-direction
drops) and the copy throttle (granted rate, token-wait time, utilization)
— zeros where nothing was lost or paced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# NB: repro.harness imports are deferred to call time — the harness pulls in
# repro.traces.replay, which builds on repro.workload.generator, so a
# module-level import here would close an import cycle.
from repro.metrics.latency import LatencyRecorder, merge_windows, window_samples
from repro.sim import AllOf
from repro.sim.collector import paused as collector_paused
from repro.update import STRATEGIES
from repro.workload.arrival import (
    ArrivalProcess,
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


@dataclass(frozen=True)
class Scenario:
    """One named workload shape (cluster geometry comes from the runner)."""

    name: str
    description: str
    # Fresh arrival sampler per client — arrival processes are stateful.
    make_arrivals: Callable[[], ArrivalProcess]
    iodepth: int = 8
    read_fraction: float = 0.0
    tenants_per_client: int = 1
    # Custom per-tenant record stream ``(cfg, rng) -> records``; None uses
    # the config's trace family (the harness default).
    make_records: Optional[Callable] = None
    # Fault schedule fired alongside the workload (empty = no failures),
    # and whether an MDS watcher (heartbeat detection + rebuild + restore)
    # runs to heal crash-mode failures.  The heartbeat interval also paces
    # the MDS detection timeout and the watcher's poll.
    faults: Tuple[FaultEvent, ...] = ()
    recovery: bool = False
    heartbeat_interval: float = 0.002
    # Native scale: used when the runner does not pass an explicit client /
    # request count (None there means "the scenario's own size").  Lets
    # large-scale scenarios like ``scale_up`` carry their intended size
    # while the smoke registry keeps the historical 4 x 200 default.
    default_clients: Optional[int] = None
    default_requests: Optional[int] = None
    # Ghost payload plane (see repro.dataplane): metadata-only payloads.
    # Valid only without faults — scrub/rebuild need real bytes, so
    # run_scenario rejects the combination.
    ghost_dataplane: bool = False
    # Cluster size override (None = the runner's 8-OSD smoke geometry).
    # Lets scale tiers carry their intended cluster alongside their
    # intended client count.
    n_osds: Optional[int] = None


SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


# Rates are per client, in requests per virtual second.  Updates complete in
# a few hundred microseconds on the SSD profile, so 4k req/s with iodepth 8
# is sustained open-loop load without runaway queueing, and the burst peak
# (12k req/s) genuinely pressures the log pools.
register_scenario(Scenario(
    name="steady",
    description="constant-rate Poisson arrivals, updates only",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
))
register_scenario(Scenario(
    name="burst",
    description="ON/OFF bursts: 12k req/s for ~20ms, then ~30ms silence",
    make_arrivals=lambda: OnOffArrivals(burst_rate=12000.0, on_s=0.02, off_s=0.03),
    iodepth=16,
))
register_scenario(Scenario(
    name="diurnal",
    description="sinusoidal ramp 500 -> 8k req/s, one 'day' per 0.5s",
    make_arrivals=lambda: DiurnalArrivals(low=500.0, peak=8000.0, period=0.5),
    iodepth=8,
))
register_scenario(Scenario(
    name="mixed_rw",
    description="70/30 update/read mix through the log read-overlay path",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.3,
))
register_scenario(Scenario(
    name="multi_tenant",
    description="each client shards arrivals across 4 files (tenants)",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    tenants_per_client=4,
))


def _hot_stripe_records(cfg, rng):
    """Zipf-skewed stripe choice: most updates hammer one or two stripes.

    Stripe popularity follows rank^-1.5 over the file's stripes, so with 8
    stripes roughly half of all updates land on the hottest one — the
    worst case for per-stripe update serialization, which is the point:
    this scenario exists to measure lock-wait cost under contention.
    Offsets are page-aligned within the chosen stripe and sizes small, so
    same-block overlap (the race the locks close) is frequent too.
    """
    from repro.sim.drawcursor import DrawCursor, choice_cdf
    from repro.traces.synth import PAGE, TraceRecord, _zipf_weights

    span = cfg.k * cfg.block_size
    n_stripes = cfg.stripes_per_file
    pages_per_stripe = span // PAGE
    weights = _zipf_weights(n_stripes, 1.5)
    # A fixed shuffle decouples popularity rank from stripe number, so the
    # hot stripes land on different OSD rings per seed.
    order = list(rng.permutation(n_stripes))
    # Chunked replay of the historical scalar draw order (two choice
    # uniforms + one bounded integer per record), bit-identical per seed.
    stripe_cdf = choice_cdf(weights)
    size_cdf = choice_cdf([0.4, 0.6])
    cur = DrawCursor(rng, chunk=min(8192, 3 * cfg.updates_per_client + 8))
    out = []
    for _ in range(cfg.updates_per_client):
        stripe = int(order[cur.weighted_index(stripe_cdf)])
        page = cur.integers(pages_per_stripe)
        size = (512, 4096)[cur.weighted_index(size_cdf)]
        out.append(TraceRecord(stripe * span + page * PAGE, size))
    cur.sync()
    return out


register_scenario(Scenario(
    name="hot_stripe",
    description="zipf-skewed offsets hammer a few stripes (lock contention)",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=16,
    make_records=_hot_stripe_records,
))

# The post-fast-path scale tier: an order of magnitude more clients x
# requests than the smoke rows (32 x 2000 = 64k requests vs 4 x 200 = 800).
# Saturating open-loop load — 32 clients offer far more than the 8-OSD
# cluster absorbs, so this measures peak sustainable throughput with the
# iodepth bound as the only brake.  Only practical with the fast-path
# engine; the pre-PR engine took minutes per method here.
register_scenario(Scenario(
    name="scale_up",
    description="32 clients x 2000 requests, saturating steady arrivals "
                "(the 10x scale tier; native size, shrinks under explicit "
                "--clients/--requests)",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    default_clients=32,
    default_requests=2000,
))

# The ghost-plane scale tier: 1024 clients over 256 OSDs — geometry the
# byte plane cannot hold in memory (every payload, log segment and block
# would be real bytes) and the event kernel alone can.  Payloads are
# metadata-only (``ghost_dataplane``), so this row measures scheduling,
# queueing and consistency accounting at cluster scale; per-method rows
# land in the bench next to ``scale_up``.  Native size targets sub-minute
# wall for the full 7-method sweep; explicit --clients/--requests shrink
# it the same way as every other scenario.
register_scenario(Scenario(
    name="scale_out",
    description="1024 clients x 256 OSDs on the ghost payload plane "
                "(metadata-only extents; native size, shrinks under "
                "explicit --clients/--requests)",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    default_clients=1024,
    default_requests=6,
    ghost_dataplane=True,
    n_osds=256,
))


# Failure scenarios.  Fault times are early enough to land inside even the
# 2-client x 40-request smoke runs (~10ms of arrivals at 4k req/s) while the
# mixed workload is genuinely in flight.
register_scenario(Scenario(
    name="degraded_read",
    description="transient OSD outage: degraded reads + write fencing, "
                "restore with store intact",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.4,
    faults=(
        FaultEvent(at=0.004, action="fail", victim=primary_victim, mode="stop"),
        FaultEvent(at=0.016, action="restore", victim=primary_victim),
    ),
))
register_scenario(Scenario(
    name="rebuild_under_load",
    description="crash one OSD mid-workload; heartbeat detection, rebuild "
                "and restore run under the foreground updates",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.004, action="fail", victim=primary_victim, mode="crash"),
    ),
    recovery=True,
))
register_scenario(Scenario(
    name="double_fault",
    description="a second OSD crashes while the first rebuild is under "
                "way (m=2): sequential recovery of both",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    faults=(
        FaultEvent(at=0.004, action="fail", victim=primary_victim, mode="crash"),
        FaultEvent(at=0.012, action="fail", victim=secondary_victim, mode="crash"),
    ),
    recovery=True,
))


# Live-change scenarios: fail-slow, fabric degradation, rolling restarts
# and elastic membership.  Same timing discipline as the failure scenarios
# (inject by ~4ms, heal by ~16ms) so every schedule lands inside the
# 2-client smoke runs; none needs the MDS watcher — slow/slow_link heal by
# schedule, restarts restore themselves, and membership changes migrate
# data rather than losing it.
register_scenario(Scenario(
    name="fail_slow",
    description="one OSD's device serves 6x slower mid-run, then heals: "
                "straggler amplification with no failure event at all",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.003, action="slow", victim=primary_victim, factor=6.0),
        FaultEvent(at=0.012, action="heal", victim=primary_victim),
    ),
))
register_scenario(Scenario(
    name="congested_fabric",
    description="congested fabric: the primary's link loses 7/8 of its "
                "bandwidth and gains 200us/message; the client link drops "
                "every 7th egress message (forcing RPC retries)",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.003, action="slow_link", victim=primary_victim,
                   factor=8.0, extra_latency=200e-6),
        FaultEvent(at=0.003, action="slow_link", victim=client_victim,
                   factor=2.0, loss_every=7),
        FaultEvent(at=0.012, action="heal", victim=primary_victim),
        FaultEvent(at=0.012, action="heal", victim=client_victim),
    ),
))
register_scenario(Scenario(
    name="rolling_restart",
    description="three stripe members restart in sequence (3ms stop-mode "
                "outages, stores intact): the maintenance-window regime",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.002, action="restart", victim=stripe_member(0),
                   duration=0.003),
        FaultEvent(at=0.007, action="restart", victim=stripe_member(1),
                   duration=0.003),
        FaultEvent(at=0.012, action="restart", victim=stripe_member(2),
                   duration=0.003),
    ),
))
register_scenario(Scenario(
    name="scale_out_live",
    description="a fresh OSD joins mid-run: live stripe rebalance onto the "
                "9-node ring under foreground updates",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.004, action="join"),
    ),
))
register_scenario(Scenario(
    name="scale_in_live",
    description="the primary is decommissioned mid-run: its placement "
                "migrates away, the ring shrinks to 7 (>= k+m), the node "
                "stops",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.004, action="decommission", victim=primary_victim),
    ),
))
register_scenario(Scenario(
    name="lossy_cluster",
    description="loss anywhere on the fabric: the primary's OSD link and "
                "the client link both drop every Nth egress frame of ANY "
                "kind (requests, replies, errors) — the at-most-once "
                "plane's dedup/retransmit machinery keeps drains exact",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.003, action="slow_link", victim=primary_victim,
                   factor=2.0, loss_every=6, loss_scope="all"),
        FaultEvent(at=0.003, action="slow_link", victim=client_victim,
                   factor=2.0, loss_every=9, loss_scope="all"),
        FaultEvent(at=0.014, action="heal", victim=primary_victim),
        FaultEvent(at=0.014, action="heal", victim=client_victim),
    ),
))
register_scenario(Scenario(
    name="throttled_rebalance",
    description="scale_in_live under QoS: the same live decommission, but "
                "the migration copy is paced by a 96 MB/s token bucket so "
                "foreground traffic keeps its bandwidth during the change "
                "window",
    make_arrivals=lambda: PoissonArrivals(rate=4000.0),
    iodepth=8,
    read_fraction=0.2,
    faults=(
        FaultEvent(at=0.004, action="decommission", victim=primary_victim,
                   rebalance_mbps=96.0),
    ),
))

# The live-change sweep set (``repro bench`` runs each over every method)
# and the actions whose presence makes a scenario report an ``elastic``
# metrics section.
ELASTIC_SCENARIOS = (
    "fail_slow",
    "congested_fabric",
    "rolling_restart",
    "scale_out_live",
    "scale_in_live",
    "lossy_cluster",
    "throttled_rebalance",
)
ELASTIC_ACTIONS = ("slow", "slow_link", "heal", "join", "decommission", "restart")


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
    # Failure scenarios only (None otherwise): the recovery section —
    # drain/rebuild/repair seconds, effective recovery MB/s, degraded-read
    # p99, foreground-throughput dip during downtime, retry/fence counts
    # and the post-recovery scrub size.  Flat floats/ints, JSON-ready.
    recovery: Optional[Dict[str, float]] = None
    # Live-change scenarios only (None otherwise): the elastic section —
    # change-event counts, straggler-amplification p99 (degraded windows vs
    # healthy time), migration volume / time-to-rebalance, link drops and
    # the foreground dip across every change window.  Flat floats,
    # JSON-ready; serialized only when present so every pre-existing
    # baseline row stays bit-identical.
    elastic: Optional[Dict[str, float]] = None
    # Wall-clock measurement of this run (wall seconds, kernel events,
    # events/sec, peak RSS).  Machine-dependent by nature, so it is NOT
    # part of to_dict() — the simulated-output rows must stay bit-exact
    # across hosts; ``results_to_json`` publishes it as a separate ``perf``
    # section instead.
    perf: Optional[Dict[str, float]] = None
    # Which payload plane the run used.  Serialized (and rendered) only
    # when True so every pre-existing baseline row stays bit-identical.
    ghost_dataplane: bool = False

    @property
    def consistent(self) -> bool:
        """Always True for a returned result: post-drain parity consistency
        is a hard gate, and :func:`run_scenario` raises
        :class:`InconsistentDrainError` instead of constructing a result
        when it fails.  Kept (also in ``to_dict``) so baselines and callers
        keep a uniform record that the gate held."""
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
            f"  consistent : {self.consistent}"
        )
        if self.recovery is not None:
            r = self.recovery
            text += (
                f"\n  failures   : {r['failures']:.0f} "
                f"({r['recoveries']:.0f} rebuilt), "
                f"downtime {r['downtime_s'] * 1e3:,.1f} ms\n"
                f"  recovery   : drain {r['drain_s'] * 1e3:,.2f} ms + "
                f"rebuild {r['rebuild_s'] * 1e3:,.2f} ms "
                f"-> {r['recovery_mbps']:,.1f} MB/s "
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


def scenario_config(
    seed: int = 7,
    n_clients: int = 4,
    requests_per_client: int = 200,
    method: str = "tsue",
    device: str = "ssd",
    # Accepted and ignored: projected completion is the only time plane.
    # Kept because benchmarks/perf/workloads.py still passes it.
    fast_dataplane: bool = False,
    ghost_dataplane: bool = False,
    n_osds: int = 8,
):
    """The smoke-scale cluster geometry every scenario runs against."""
    from repro.harness.experiment import ExperimentConfig

    return ExperimentConfig(
        method=method,
        trace="ten",
        k=4,
        m=2,
        n_osds=n_osds,
        n_clients=n_clients,
        updates_per_client=requests_per_client,
        block_size=32 * 1024,
        stripes_per_file=8,
        device_kind=device,
        seed=seed,
        verify=False,
        ghost_dataplane=ghost_dataplane,
    )


@collector_paused()
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

    The whole run — build, drive, drain, gates — executes with automatic
    garbage collection paused (see :mod:`repro.sim.collector`).
    """
    import resource as _resource
    import time as _time

    from repro.harness.experiment import (
        aggregate_update_latency,
        build_cluster,
        drain_all,
        drive_to_completion,
        make_trace,
    )

    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known: {known}")
    scenario = SCENARIOS[name]
    if n_clients is None:
        n_clients = scenario.default_clients or 4
    if requests_per_client is None:
        requests_per_client = scenario.default_requests or 200
    ghost = (
        scenario.ghost_dataplane if ghost_dataplane is None else ghost_dataplane
    )
    if ghost and scenario.faults:
        raise ValueError(
            f"scenario {name!r} injects faults; the ghost payload plane "
            "cannot serve scrub/rebuild (real bytes required) — run it on "
            "the byte plane"
        )
    # repro-lint: allow(det-wallclock) -- machine-local perf section, excluded from the determinism gates
    wall_t0 = _time.perf_counter()
    # repro-lint: allow(det-wallclock) -- CPU-time twin of wall_t0; wall is noisy on shared 1-core CI boxes
    cpu_t0 = _time.process_time()
    cfg = scenario_config(
        seed, n_clients, requests_per_client, method, device,
        ghost_dataplane=ghost,
        n_osds=scenario.n_osds or 8,
    )
    cluster = build_cluster(cfg)
    sim = cluster.sim

    inodes: List[int] = []
    generators: List[OpenLoopGenerator] = []
    for i in range(cfg.n_clients):
        client = cluster.add_client(f"client{i}")
        tenants = []
        for t in range(scenario.tenants_per_client):
            inode = 1000 + i * scenario.tenants_per_client + t
            cluster.register_sparse_file(inode, cfg.file_size)
            inodes.append(inode)
            trace_rng = cluster.rng.get(f"trace{i}.{t}")
            if scenario.make_records is not None:
                trace = scenario.make_records(cfg, trace_rng)
            else:
                trace = make_trace(cfg, trace_rng)
            tenants.append((inode, trace))
        spec = WorkloadSpec(
            arrivals=scenario.make_arrivals(),
            n_requests=requests_per_client,
            iodepth=scenario.iodepth,
            read_fraction=scenario.read_fraction,
        )
        generators.append(
            OpenLoopGenerator(client, tenants, cluster.rng.get(f"workload{i}"), spec)
        )

    cluster.start()

    injector: Optional[FaultInjector] = None
    watcher = None
    watcher_stop = None
    if scenario.faults:
        injector = FaultInjector(cluster, inodes, scenario.faults)
        if scenario.recovery:
            from repro.recovery import watch_and_recover

            # Millisecond-scale failure detection: heartbeats + timeout
            # paced to the scenario, not the 3s production default.
            cluster.mds.heartbeat_timeout = 4 * scenario.heartbeat_interval
            for osd in cluster.osds:
                osd.start_heartbeat(scenario.heartbeat_interval)
            watcher_stop = sim.event(name="watcher-stop")
            watcher = sim.process(
                watch_and_recover(
                    cluster,
                    check_interval=scenario.heartbeat_interval,
                    stop=watcher_stop,
                    repair=True,
                ),
                name="mds-watcher",
            )

    def main():
        from repro.recovery import scrub

        inj_proc = (
            sim.process(injector.run(), name="fault-injector") if injector else None
        )
        procs = [
            sim.process(g.run(), name=f"gen{i}") for i, g in enumerate(generators)
        ]
        yield AllOf(sim, procs)
        horizon = sim.now
        recoveries = []
        scrub_report = None
        if injector:
            yield inj_proc
            # Every failure must be healed (recovered or restored) before
            # the drain barrier — a leftover down OSD would wedge it.
            waited = 0.0
            while cluster.down_osds:
                if waited >= 60.0:
                    raise RuntimeError(
                        f"scenario {name!r}: OSDs still down after "
                        f"{waited:.0f}s: {sorted(cluster.down_osds)}"
                    )
                yield sim.timeout(1e-3)
                waited += 1e-3
            if watcher is not None:
                watcher_stop.succeed()
                recoveries = yield watcher
        yield from drain_all(cluster)
        if injector:
            # The post-recovery gate: a forced scrub of every stripe the
            # workload could have touched, through the real (costed) read
            # path, must be clean.
            targets = [
                (inode, s) for inode in inodes for s in range(cfg.stripes_per_file)
            ]
            scrub_report = yield from scrub(cluster, targets, force=True)
        return horizon, recoveries, scrub_report

    # repro-lint: allow(det-wallclock) -- machine-local perf section, excluded from the determinism gates
    sim_t0 = _time.perf_counter()
    # repro-lint: allow(det-wallclock) -- CPU-time twin of sim_t0
    sim_cpu_t0 = _time.process_time()
    horizon, recoveries, scrub_report = drive_to_completion(
        sim, sim.process(main(), name=f"scenario:{name}"), what=f"scenario {name!r}"
    )
    # repro-lint: allow(det-wallclock) -- machine-local perf section, excluded from the determinism gates
    sim_wall = _time.perf_counter() - sim_t0
    # repro-lint: allow(det-wallclock) -- CPU-time twin of sim_wall
    sim_cpu = _time.process_time() - sim_cpu_t0
    cluster.stop()

    recovery_section = None
    if injector:
        if scrub_report is None or not scrub_report.clean or scrub_report.skipped:
            raise PostRecoveryScrubError(
                f"scenario {name!r} method {method!r}: post-recovery scrub "
                f"found {len(scrub_report.mismatches)} bad / "
                f"{len(scrub_report.skipped)} unscrubbable stripe(s): "
                f"{scrub_report.mismatches[:8] + scrub_report.skipped[:8]}"
            )
        recovery_section = _recovery_metrics(
            cluster, injector, recoveries, scrub_report, horizon
        )

    elastic_section = None
    if injector and any(e.action in ELASTIC_ACTIONS for e in scenario.faults):
        elastic_section = _elastic_metrics(cluster, injector, horizon)

    # The hard gate: with per-stripe serialization no method may drain
    # inconsistent — a bad stripe is a strategy bug, not a workload effect.
    bad = [
        (inode, s)
        for inode in inodes
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
    wait_mean = lock_waits.mean()
    wait_p99 = lock_waits.percentile(99.0)

    agg = aggregate_update_latency(cluster.clients)
    p50, p95, p99 = agg.percentiles((50.0, 95.0, 99.0))
    updates = sum(g.completed for g in generators)
    reads = sum(g.reads_completed for g in generators)
    # Wall-clock measurement (machine-dependent; see ScenarioResult.perf).
    # ``events`` counts kernel transitions fired; events_per_sec is engine
    # throughput over the simulation phase proper (setup/teardown and the
    # consistency gates excluded); the cpu_s twins use process CPU time,
    # which stays meaningful when a shared/1-core box preempts the run;
    # peak RSS is the process high-water mark at scenario end (ru_maxrss,
    # KiB on Linux).
    # repro-lint: allow(det-wallclock) -- machine-local perf section, excluded from the determinism gates
    wall = _time.perf_counter() - wall_t0
    # repro-lint: allow(det-wallclock) -- CPU-time twin of wall
    cpu = _time.process_time() - cpu_t0
    perf_section = {
        "wall_s": wall,
        "cpu_s": cpu,
        "sim_wall_s": sim_wall,
        "sim_cpu_s": sim_cpu,
        "events": float(sim.events_fired),
        "events_per_sec": sim.events_fired / sim_wall if sim_wall > 0 else 0.0,
        "events_per_cpu_sec": (
            sim.events_fired / sim_cpu if sim_cpu > 0 else 0.0
        ),
        "requests_per_wall_sec": (
            (updates + reads) / wall if wall > 0 else 0.0
        ),
        "peak_rss_kb": float(
            _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        ),
    }
    if cfg.ghost_dataplane:
        perf_section["ghost_dataplane"] = 1.0
    return ScenarioResult(
        name=name,
        method=method,
        seed=seed,
        n_clients=cfg.n_clients,
        updates=updates,
        reads=reads,
        horizon=horizon,
        iops=((updates + reads) / horizon) if horizon > 0 else 0.0,
        mean_latency=agg.mean(),
        p50_latency=p50,
        p95_latency=p95,
        p99_latency=p99,
        peak_inflight=max(c.peak_inflight_updates for c in cluster.clients),
        lock_acquisitions=acquisitions,
        lock_contended=contended,
        lock_wait_mean=wait_mean,
        lock_wait_p99=wait_p99,
        recovery=recovery_section,
        elastic=elastic_section,
        perf=perf_section,
        ghost_dataplane=cfg.ghost_dataplane,
    )


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


def _recovery_metrics(cluster, injector, recoveries, scrub_report, horizon) -> dict:
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


def _elastic_metrics(cluster, injector, horizon) -> dict:
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


# Canonical method order for per-method sweeps: the in-place family in the
# paper's presentation order, then the log-structured methods.  Derived
# from the strategy registry so a newly registered method can never be
# silently excluded from the sweep (and its consistency gate).
_METHOD_ORDER = ("fo", "pl", "plr", "parix", "cord", "fl", "tsue")
METHODS = tuple(m for m in _METHOD_ORDER if m in STRATEGIES) + tuple(
    sorted(set(STRATEGIES) - set(_METHOD_ORDER))
)


def run_all_scenarios(
    names: Optional[Sequence[str]] = None, **kwargs
) -> List[ScenarioResult]:
    """Run every registered scenario (or ``names``, in that order).

    ``names=None`` means "all, sorted"; an explicitly-passed empty
    selection is a caller bug and raises rather than silently running the
    full registry.
    """
    if names is None:
        names = sorted(SCENARIOS)
    elif not names:
        raise ValueError("empty scenario selection (pass None for all)")
    return [run_scenario(n, **kwargs) for n in names]


def _bench_row_worker(args):
    """Top-level process-pool worker: one ``(scenario, method)`` cell.

    Importable at module scope so it pickles under any multiprocessing
    start method; returns the cell key with the result so the parent can
    merge by key, independent of completion order.
    """
    name, method, kwargs = args
    return name, method, run_scenario(name, method=method, **kwargs)


def run_bench_cells(
    rows: Sequence[Tuple[str, str]], jobs: int = 1, **kwargs
) -> Dict[Tuple[str, str], ScenarioResult]:
    """Run unique ``(scenario, method)`` cells, optionally over a pool.

    The parallel bench orchestrator: every cell is an isolated
    :class:`Simulator` and a pure function of its arguments, so cells
    fan out over a ``multiprocessing`` pool with no shared state.  Rows
    are de-duplicated (a registry row that reappears in a sweep runs
    once), and the returned mapping is keyed by cell, so callers
    assemble output sections in canonical order regardless of worker
    completion order — ``--jobs N`` output is byte-identical to the
    serial reference path.

    ``jobs <= 1`` runs in-process (no pool, no pickling) and remains the
    reference implementation.
    """
    unique = list(dict.fromkeys((name, method) for name, method in rows))
    if jobs <= 1:
        return {
            (name, method): run_scenario(name, method=method, **kwargs)
            for name, method in unique
        }
    import multiprocessing as mp

    work = [(name, method, kwargs) for name, method in unique]
    n_procs = min(jobs, len(work)) or 1
    with mp.get_context().Pool(processes=n_procs) as pool:
        done = pool.map(_bench_row_worker, work, chunksize=1)
    return {(name, method): res for name, method, res in done}


def run_method_sweep(
    scenario: str = "hot_stripe",
    methods: Optional[Sequence[str]] = None,
    reuse: Sequence[ScenarioResult] = (),
    **kwargs,
) -> List[ScenarioResult]:
    """One row per update method on one scenario.

    The serialization-cost table: on ``hot_stripe`` the in-place methods
    pay measurable stripe-lock waits while ``tsue``/``fl`` acquire no locks
    at all, so the per-method deltas quantify what update serialization
    costs each family.

    ``reuse`` is an iterable of already-computed results *for the same
    scale arguments*; a row whose ``(scenario, method)`` cell appears
    there is taken from it instead of re-simulated (runs are pure
    functions of their arguments, so the cached row is identical).
    """
    if methods is None:
        methods = METHODS
    elif not methods:
        raise ValueError("empty method selection (pass None for all)")
    cached = {r.method: r for r in reuse if r.name == scenario}
    return [
        cached.get(m) or run_scenario(scenario, method=m, **kwargs)
        for m in methods
    ]


def results_to_json(
    results: Sequence[ScenarioResult],
    method_rows: Sequence[ScenarioResult] = (),
    recovery_rows: Sequence[ScenarioResult] = (),
    scale_up_rows: Sequence[ScenarioResult] = (),
    scale_out_rows: Sequence[ScenarioResult] = (),
    elastic_rows: Optional[Dict[str, Sequence[ScenarioResult]]] = None,
) -> dict:
    """The ``BENCH_scenarios.json`` baseline payload.

    ``recovery_rows`` is a per-method sweep of a failure scenario — the
    Fig. 8b-style table (recovery MB/s, degraded p99, foreground dip per
    method) lands under ``"recovery"``; ``scale_up_rows`` is the
    per-method sweep of the 10x ``scale_up`` tier; ``scale_out_rows`` is
    the per-method sweep of the ghost-plane ``scale_out`` tier (1024
    clients x 256 OSDs); ``elastic_rows`` maps live-change scenario name
    -> per-method sweep, landing under ``"elastic"`` as
    ``{scenario: {method: row}}``.  The ``perf`` section is wall-clock
    measurement (seconds, kernel events/sec, peak RSS) —
    machine-dependent, kept OUT of the simulated-output rows so those stay
    bit-exact across hosts; determinism gates must ignore it.
    """
    payload = {
        "bench": "scenarios",
        "scenarios": {r.name: r.to_dict() for r in results},
    }
    if method_rows:
        payload["methods"] = {
            r.method: r.to_dict() for r in method_rows
        }
    if recovery_rows:
        payload["recovery"] = {
            r.method: r.to_dict() for r in recovery_rows
        }
    if scale_up_rows:
        payload["scale_up"] = {
            r.method: r.to_dict() for r in scale_up_rows
        }
    if scale_out_rows:
        payload["scale_out"] = {
            r.method: r.to_dict() for r in scale_out_rows
        }
    if elastic_rows:
        payload["elastic"] = {
            scenario: {r.method: r.to_dict() for r in rows}
            for scenario, rows in elastic_rows.items()
        }
    perf = {r.name: dict(r.perf) for r in results if r.perf}
    if scale_up_rows:
        perf.update(
            {f"scale_up/{r.method}": dict(r.perf) for r in scale_up_rows if r.perf}
        )
    if scale_out_rows:
        perf.update(
            {f"scale_out/{r.method}": dict(r.perf) for r in scale_out_rows if r.perf}
        )
    if elastic_rows:
        for scenario, rows in elastic_rows.items():
            perf.update(
                {f"{scenario}/{r.method}": dict(r.perf) for r in rows if r.perf}
            )
    if perf:
        payload["perf"] = perf
    return payload
