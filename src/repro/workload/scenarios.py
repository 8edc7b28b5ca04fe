"""Named end-to-end workload scenarios: the registry.

Each scenario is a reusable recipe: an arrival process, a pipelining depth,
a read/update mix, a tenant layout and (optionally) a custom record stream
and a fault schedule, run against a small-but-real cluster through the
standard harness config.  ``repro scenario <name>`` runs one, ``repro
bench`` a selection of them — each on ``tsue``, the swept ones
(:data:`repro.workload.results.SWEEP_SECTIONS`) once more per method — and
emits a throughput + p50/p95/p99 + lock-wait baseline that later PRs diff
against.  Running and the gates live in :mod:`repro.workload.runner`, the
fault-run metric sections in :mod:`repro.workload.metrics`, the result
type and its JSON in :mod:`repro.workload.results`.

Three axes beyond the fault-free shapes:

* ``hot_stripe`` (zipf-skewed offsets hammering a few stripes) maximises
  the contention the in-place methods' per-stripe locks must absorb;
* **failure scenarios** (``degraded_read``, ``rebuild_under_load``,
  ``double_fault``): OSDs crash or blip out mid-run, clients fence/degrade
  around them, and (for crash modes) an MDS watcher rebuilds and restores
  the nodes while foreground updates continue — the regime of the paper's
  §2.3.2/Fig. 8b recovery story, under live load;
* **live-change scenarios** (:data:`ELASTIC_SCENARIOS`), the rest of the
  fault plane: fail-slow devices (``fail_slow``), degraded/lossy fabric
  links (``congested_fabric``), loss on every frame class including
  replies (``lossy_cluster``), rolling restarts (``rolling_restart``), and
  elastic membership — a live join (``scale_out_live``), a live
  decommission (``scale_in_live``), and the same decommission under a QoS
  copy throttle (``throttled_rebalance``) — migrating stripe placement
  through :mod:`repro.recovery.rebalance` while foreground updates
  continue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.workload.arrival import (
    ArrivalProcess,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.workload.faults import (
    FaultEvent,
    client_victim,
    primary_victim,
    secondary_victim,
    stripe_member,
)


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
    # runs to heal crash-mode failures, paced by the run protocol's
    # ``HEARTBEAT_INTERVAL_S``.
    faults: Tuple[FaultEvent, ...] = ()
    recovery: bool = False
    # Native scale: used when the runner does not pass an explicit client /
    # request count (None there means "the scenario's own size").  Lets
    # large-scale scenarios like ``scale_up`` carry their intended size
    # while the smoke registry keeps the historical 4 x 200 default.
    default_clients: Optional[int] = None
    default_requests: Optional[int] = None
    # Ghost payload plane (see repro.dataplane): metadata-only payloads.
    # Valid only without faults — scrub/rebuild need real bytes, so the
    # run protocol rejects the combination.
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
    from repro.traces.synth import PAGE, TraceRecord, _zipf_weights, choice_cdf

    span = cfg.k * cfg.block_size
    n_stripes = cfg.stripes_per_file
    pages_per_stripe = span // PAGE
    weights = _zipf_weights(n_stripes, 1.5)
    # A fixed shuffle decouples popularity rank from stripe number, so the
    # hot stripes land on different OSD rings per seed.
    order = list(rng.permutation(n_stripes))
    # The per-record draw order (stripe, page, size) is part of every
    # hot_stripe baseline row.
    stripe_cdf = choice_cdf(weights)
    size_cdf = choice_cdf([0.4, 0.6])
    out = []
    for _ in range(cfg.updates_per_client):
        stripe = int(order[stripe_cdf.searchsorted(rng.random(), "right")])
        page = int(rng.integers(0, pages_per_stripe))
        size = (512, 4096)[size_cdf.searchsorted(rng.random(), "right")]
        out.append(TraceRecord(stripe * span + page * PAGE, size))
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
    # Deferred: the harness imports repro.traces.replay, which builds on
    # repro.workload.generator — a module-level import would close a cycle.
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
