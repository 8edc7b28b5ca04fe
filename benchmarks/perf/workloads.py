"""The four closed-loop workloads of the perf benchmark.

Every workload is closed-loop (a storage client waits for its reply before
issuing its next request), goes through the program's own runner with every
gate on, and receives the seed only as ``ExperimentConfig.seed`` /
``run_scenario(seed=)``.  ``repro`` is imported inside the functions, never
at module level: the measuring child times its own imports as part of
``setup_s``.

``requests_per_client`` is the size of one round, about 3 s of CPU on the
2-core reference box.  A run pools five rounds on five sub-seeds (see
run.py), so it simulates 18k / 18k / 25.6k / 60k requests per workload:
somewhat over half of the issue's reference sizes (4000 / 4000 / 48 / 10000
per client), cut into rounds short enough that some of them fall between the
host's noise bursts, and small enough for the benchmark driver's per-run cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


class GateTripped(RuntimeError):
    """A runner returned, but its result does not say ``consistent is True``."""


@dataclass(frozen=True)
class Outcome:
    """What a runner call produced, in one shape for both runners."""

    updates: int
    reads: int
    horizon: float                    # simulated seconds to the last completion
    recovery: Optional[dict] = None   # ScenarioResult.recovery (fault runs)
    elastic: Optional[dict] = None    # ScenarioResult.elastic (fault runs)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                          # one line, copied into BENCHMARK.json
    n_clients: int
    iodepth: int
    requests_per_client: int          # size of one round
    # (seed, requests_per_client) -> the ExperimentConfig the runner builds
    # its cluster from; the throw-away set-up build uses the same one.
    config: Callable[[int, int], object]
    # (seed, requests_per_client) -> Outcome, through the program's runner.
    run: Callable[[int, int], Outcome]

    def attempted(self, requests_per_client: int) -> int:
        return self.n_clients * requests_per_client


# --------------------------------------------------------------------------
# ali_closed_*: run_experiment on the paper's Fig. 5 headline cell
# --------------------------------------------------------------------------
ALI_CLIENTS = 8


def _ali_config(method: str):
    def config(seed: int, requests: int):
        from repro.harness.experiment import ExperimentConfig

        # ExperimentConfig defaults: RS(6,2), 16 OSDs, 64 KiB blocks, 64
        # stripes per file = 8 x 24 MiB working set, far above log memory.
        return ExperimentConfig(
            method=method,
            trace="ali",
            n_clients=ALI_CLIENTS,
            updates_per_client=requests,
            fast_dataplane=True,
            verify=True,
            seed=seed,
        )

    return config


def _ali_run(method: str):
    config = _ali_config(method)

    def run(seed: int, requests: int) -> Outcome:
        from repro.harness.experiment import run_experiment

        result = run_experiment(config(seed, requests))
        if result.consistent is not True:
            raise GateTripped(
                f"run_experiment({method}) drained consistent={result.consistent!r}"
            )
        return Outcome(updates=result.n_updates, reads=0, horizon=result.horizon)

    return run


# --------------------------------------------------------------------------
# scenario workloads: benchmark-registered Scenarios through run_scenario
# --------------------------------------------------------------------------
GHOST_SCENARIO = "perf_ghost_scaleout"
GHOST_CLIENTS = 1024
GHOST_OSDS = 256

FAULTY_SCENARIO = "perf_faulty_mixed"
FAULTY_CLIENTS = 8
# Simulated seconds one client needs per request at iodepth 4 under the
# schedule below (measured at the round size).  The schedule is laid out in
# fractions of requests_per_client times this, so the fault window covers
# the same share of a run at every size.
FAULTY_SECONDS_PER_REQUEST = 115e-6
# Between the victim's graceful stop and its crash: long enough for its
# in-flight handlers to finish, shorter than failure detection (4
# heartbeats of 2 ms), so recovery starts only after the crash.
STOP_BEFORE_CRASH_S = 0.003
# Every 9th egress frame of client 0's link is dropped: ~0.15% of all
# requests retry, which lands between the p99 and the fenced tail.
LOSS_EVERY = 9
# Fail-slow multiplier of the primary's device.  2x keeps the device below
# saturation, so p99 sits on a plateau; at 4x it saturates, the queue turns
# p95-p99.5 into one steep ramp and p99 spreads ~20% from seed to seed.
SLOW_FACTOR = 2.0


def faulty_schedule(requests_per_client: int):
    """Loss 5%->80%, 2x fail-slow 10%->25%, crash at 30% of the expected horizon.

    The victim is stopped gracefully just before it is crashed.  A bare
    crash interrupts handlers that are queued on a NIC channel, and
    ``Resource.use`` then leaks the channel to the dead process: 2 of 120
    sub-seeds never recovered ("fenced for 60.0s").  With no handler in
    flight at the crash, 0 of 300 do.
    """
    from repro.workload import (
        FaultEvent,
        client_victim,
        primary_victim,
        secondary_victim,
    )

    h = requests_per_client * FAULTY_SECONDS_PER_REQUEST
    return (
        FaultEvent(at=0.05 * h, action="slow_link", victim=client_victim,
                   loss_every=LOSS_EVERY, loss_scope="all"),
        FaultEvent(at=0.10 * h, action="slow", victim=primary_victim, factor=SLOW_FACTOR),
        FaultEvent(at=0.25 * h, action="heal", victim=primary_victim),
        FaultEvent(at=0.30 * h - min(STOP_BEFORE_CRASH_S, 0.02 * h), action="fail",
                   victim=secondary_victim, mode="stop"),
        FaultEvent(at=0.30 * h, action="fail", victim=secondary_victim,
                   mode="crash"),
        FaultEvent(at=0.80 * h, action="heal", victim=client_victim),
    )


def _register(requests_per_client: int) -> None:
    """Register both benchmark scenarios (once per process)."""
    from repro.workload import SCENARIOS, ClosedLoop, Scenario, register_scenario

    if GHOST_SCENARIO in SCENARIOS:
        return
    register_scenario(Scenario(
        name=GHOST_SCENARIO,
        description="perf benchmark: 1024 closed-loop clients x 256 OSDs, ghost plane",
        make_arrivals=ClosedLoop,
        iodepth=2,
        ghost_dataplane=True,
        n_osds=GHOST_OSDS,
    ))
    register_scenario(Scenario(
        name=FAULTY_SCENARIO,
        description="perf benchmark: 70/30 update/read, loss + fail-slow + crash",
        make_arrivals=ClosedLoop,
        iodepth=4,
        read_fraction=0.3,
        recovery=True,
        faults=faulty_schedule(requests_per_client),
    ))


def _scenario_config(scenario: str, n_clients: int):
    def config(seed: int, requests: int):
        from repro.workload import SCENARIOS, scenario_config

        _register(requests)
        sc = SCENARIOS[scenario]
        # The arguments run_scenario itself passes for this scenario.
        return scenario_config(
            seed, n_clients, requests, "tsue", "ssd",
            fast_dataplane=not sc.faults,
            ghost_dataplane=sc.ghost_dataplane,
            n_osds=sc.n_osds or 8,
        )

    return config


def _scenario_run(scenario: str, n_clients: int):
    def run(seed: int, requests: int) -> Outcome:
        from repro.workload import run_scenario

        _register(requests)
        # Raises InconsistentDrainError / PostRecoveryScrubError / a
        # heal-before-drain RuntimeError itself when a gate trips.
        result = run_scenario(
            scenario, seed=seed, n_clients=n_clients,
            requests_per_client=requests, method="tsue",
        )
        if result.consistent is not True:
            raise GateTripped(f"run_scenario({scenario}) consistent is not True")
        return Outcome(
            updates=result.updates,
            reads=result.reads,
            horizon=result.horizon,
            recovery=result.recovery,
            elastic=result.elastic,
        )

    return run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ali_closed_tsue",
            why="Paper Fig. 5 cell on the byte plane, 192 MiB working set >> log "
                "memory: payload kernels (gf/ec/logstruct/blockstore) and the "
                "three-layer TSUE log carry their largest share here.",
            n_clients=ALI_CLIENTS,
            iodepth=1,
            requests_per_client=450,
            config=_ali_config("tsue"),
            run=_ali_run("tsue"),
        ),
        Workload(
            name="ali_closed_plr",
            why="Same input through the RMW + reserved-parity-log baseline: "
                "bypasses tsue, takes stripe locks, random/overwrite device "
                "traffic; gives the TSUE/PLR trend ratio.",
            n_clients=ALI_CLIENTS,
            iodepth=1,
            requests_per_client=450,
            config=_ali_config("plr"),
            run=_ali_run("plr"),
        ),
        Workload(
            name="ghost_scaleout_tsue",
            why="1024 clients x 256 OSDs with metadata-only payloads: byte "
                "kernels idle, sim + fs.messages + cluster dominate; a codec "
                "win must not show here, an RPC/kernel win must.",
            n_clients=GHOST_CLIENTS,
            iodepth=2,
            requests_per_client=5,
            config=_scenario_config(GHOST_SCENARIO, GHOST_CLIENTS),
            run=_scenario_run(GHOST_SCENARIO, GHOST_CLIENTS),
        ),
        Workload(
            name="faulty_mixed_tsue",
            why="70/30 update/read on the event plane, 8 MiB working set "
                "(fits the logs), with link loss, fail-slow and crash -> "
                "rebuild -> scrub covering >=70% of the run.",
            n_clients=FAULTY_CLIENTS,
            iodepth=4,
            requests_per_client=1500,
            config=_scenario_config(FAULTY_SCENARIO, FAULTY_CLIENTS),
            run=_scenario_run(FAULTY_SCENARIO, FAULTY_CLIENTS),
        ),
    )
}
