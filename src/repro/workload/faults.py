"""Schedulable fault injection for scenario runs.

A :class:`FaultSchedule` is a list of :class:`FaultEvent` — actions at
fixed virtual times, driven off the sim clock by a :class:`FaultInjector`
process running alongside the open-loop workload.  Victims are picked
lazily (at fire time, against the live cluster) by small deterministic
picker functions, so schedules are declared once per scenario and work at
any geometry.

Actions (the full taxonomy is documented in ``docs/faults.md``):

* ``"fail"`` — take a node down.  ``mode="crash"`` is fail-stop (recovery
  must rebuild and restore); ``mode="stop"`` is a transient outage paired
  with a ``"restore"`` event.  ``mode`` is only valid here.
* ``"restore"`` — bring a stopped node back with its store intact.
* ``"slow"`` — fail-slow: the victim's device serves every I/O ``factor``
  times slower (:meth:`StorageDevice.degrade`); the node stays up.
* ``"slow_link"`` — degrade the victim's fabric endpoint: bandwidth
  divided by ``factor``, ``extra_latency`` added per message, and every
  ``loss_every``-th egress message dropped (forcing ``rpc`` to resend).
  ``loss_scope`` widens the frames at risk from requests only (default)
  to every egress frame including ``.reply``/``.err`` — safe on any
  endpoint because the RPC plane is at-most-once.
* ``"heal"`` — undo ``slow``/``slow_link`` on the victim.
* ``"restart"`` — rolling-restart step: stop-mode outage healed by a
  scheduled restore ``duration`` seconds later (no operator event needed).
* ``"join"`` — provision a fresh OSD and rebalance it into the placement
  ring (blocks the injector until the migration commits).  No victim.
  ``rebalance_mbps > 0`` paces the per-stripe copy with a token bucket;
  ``0`` copies unthrottled.
* ``"decommission"`` — migrate a node's placement away, shrink the ring,
  stop the node.  Honors ``rebalance_mbps`` like ``join``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.recovery import fail_osd, rebalance_join, rebalance_leave, restore_osd

# A victim is a literal host name or a picker ``(cluster, inodes) -> name``.
VictimSpec = Union[str, Callable]

ACTIONS = (
    "fail",
    "restore",
    "slow",
    "slow_link",
    "heal",
    "join",
    "decommission",
    "restart",
)


def primary_victim(cluster, inodes: Sequence[int]) -> str:
    """The OSD hosting data block 0 of the first file's first stripe —
    deterministic, and guaranteed to carry foreground traffic."""
    return cluster.placement(inodes[0], 0)[0]


def secondary_victim(cluster, inodes: Sequence[int]) -> str:
    """A second distinct victim for double-fault schedules.

    Avoids both the first victim and its ring successor (the rebuilder
    writing the first victim's replacement blocks), so the first rebuild
    can complete and the double fault exercises *source* loss, not
    rebuilder loss.
    """
    names = cluster.placement(inodes[0], 0)
    avoid = {names[0], cluster.replica_of(names[0])}
    for name in names[1:]:
        if name not in avoid:
            return name
    raise RuntimeError("no eligible secondary victim in stripe 0")


def client_victim(cluster, inodes: Sequence[int]) -> str:
    """The first client endpoint — for link-degradation schedules.

    Historically loss had to be scheduled here: a dropped client request
    dies before any OSD handler runs, so the retry could never
    double-apply.  With the at-most-once RPC plane (request dedup + reply
    caching, see ``repro.fs.messages``) that restriction is gone — loss
    may be scheduled on any endpoint and any frame direction
    (``loss_scope="all"``); this picker remains for schedules that want
    the client's vantage point specifically.
    """
    return cluster.clients[0].name


def stripe_member(index: int) -> Callable:
    """Picker factory: the ``index``-th member of the first file's stripe 0
    (rolling-restart schedules walk distinct data-carrying members)."""

    def pick(cluster, inodes: Sequence[int]) -> str:
        return cluster.placement(inodes[0], 0)[index]

    pick.__name__ = f"stripe_member_{index}"
    return pick


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled action on (usually) one host."""

    at: float                       # virtual seconds from scenario start
    action: str                     # one of ACTIONS
    victim: Optional[VictimSpec] = None
    mode: Optional[str] = None      # "crash" | "stop"; fail events only
    factor: float = 1.0             # slow / slow_link severity multiplier
    extra_latency: float = 0.0      # slow_link: added per-message latency
    loss_every: int = 0             # slow_link: drop every Nth egress msg
    loss_scope: str = "requests"    # slow_link: "requests" | "all" frames
    duration: float = 0.0           # restart: outage length in seconds
    rebalance_mbps: float = 0.0     # join/decommission: QoS copy throttle

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.action == "fail":
            mode = "crash" if self.mode is None else self.mode
            if mode not in ("crash", "stop"):
                raise ValueError(f"unknown failure mode {mode!r}")
            object.__setattr__(self, "mode", mode)
        elif self.mode is not None:
            raise ValueError(
                f"mode={self.mode!r} is only meaningful on 'fail' events, "
                f"not {self.action!r}"
            )
        if self.action == "join":
            if self.victim is not None:
                raise ValueError("'join' provisions a fresh OSD; it takes no victim")
        elif self.victim is None:
            raise ValueError(f"{self.action!r} requires a victim")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor!r}")
        if self.action not in ("slow", "slow_link") and self.factor != 1.0:
            raise ValueError("factor is only meaningful on slow/slow_link events")
        if self.extra_latency < 0:
            raise ValueError(f"extra_latency must be >= 0, got {self.extra_latency!r}")
        if self.loss_every < 0:
            raise ValueError(f"loss_every must be >= 0, got {self.loss_every!r}")
        if self.action != "slow_link" and (self.extra_latency or self.loss_every):
            raise ValueError(
                "extra_latency/loss_every are only meaningful on slow_link events"
            )
        if self.loss_scope not in ("requests", "all"):
            raise ValueError(
                f"loss_scope must be 'requests' or 'all', got {self.loss_scope!r}"
            )
        if self.action != "slow_link" and self.loss_scope != "requests":
            raise ValueError(
                "loss_scope is only meaningful on slow_link events"
            )
        if self.action == "restart":
            if self.duration <= 0:
                raise ValueError("restart requires duration > 0")
        elif self.duration:
            raise ValueError("duration is only meaningful on restart events")
        if self.rebalance_mbps < 0:
            raise ValueError(
                f"rebalance_mbps must be >= 0, got {self.rebalance_mbps!r}"
            )
        if self.action not in ("join", "decommission") and self.rebalance_mbps:
            raise ValueError(
                "rebalance_mbps is only meaningful on join/decommission events"
            )


class FaultInjector:
    """Fires a schedule of fault events inside a running scenario."""

    def __init__(self, cluster, inodes: Sequence[int], events: Sequence[FaultEvent]):
        self.cluster = cluster
        self.inodes = list(inodes)
        self.events = sorted(events, key=lambda e: e.at)
        # (time, action, host_name, detail) as actually fired — scenario
        # metrics and tests read this back.  ``detail`` is the failure mode
        # for fail events (so tests can assert crash vs stop), the severity
        # tag for degradations, "" otherwise.
        self.timeline: List[Tuple[float, str, str, str]] = []
        # RebalanceResult per join/decommission, in firing order.
        self.migrations: List = []
        # [host, t_degraded, t_healed|None] per slow/slow_link window;
        # metrics close still-open windows at measurement time.
        self.degraded_windows: List[List] = []

    def _resolve(self, spec: VictimSpec) -> str:
        return spec if isinstance(spec, str) else spec(self.cluster, self.inodes)

    # ------------------------------------------------------------------
    def _open_window(self, name: str) -> None:
        self.degraded_windows.append([name, self.cluster.sim.now, None])

    def _close_window(self, name: str) -> None:
        for window in reversed(self.degraded_windows):
            if window[0] == name and window[2] is None:
                window[2] = self.cluster.sim.now
                break

    def _delayed_restore(self, name: str, duration: float):
        sim = self.cluster.sim
        yield sim.timeout(duration)
        restore_osd(self.cluster, name)
        self.timeline.append((sim.now, "restore", name, "restart"))

    # ------------------------------------------------------------------
    def run(self):
        """The injector process body (pass to ``sim.process``)."""
        sim = self.cluster.sim
        for event in self.events:
            if event.at > sim.now:
                yield sim.timeout(event.at - sim.now)
            yield from self._fire(event)
        return self.timeline

    def _fire(self, event: FaultEvent):
        cluster = self.cluster
        sim = cluster.sim
        action = event.action
        if action == "join":
            osd = cluster.add_osd()
            # Liveness before membership: the joiner beats (at the fleet's
            # cadence, if heartbeats are running) before any rebalance can
            # commit it into the monitored ring.
            interval = next(
                (o._heartbeat_interval for o in cluster.osds if o._heartbeat_interval),
                None,
            )
            if interval is not None:
                osd.start_heartbeat(interval)
            self.timeline.append((sim.now, "join", osd.name, ""))
            result = yield from rebalance_join(
                cluster, osd.name, rebalance_mbps=event.rebalance_mbps
            )
            self.migrations.append(result)
            return
        name = self._resolve(event.victim)
        if action == "fail":
            fail_osd(cluster, name, mode=event.mode)
            self.timeline.append((sim.now, "fail", name, event.mode))
        elif action == "restore":
            restore_osd(cluster, name)
            self.timeline.append((sim.now, "restore", name, ""))
        elif action == "slow":
            cluster.osd_by_name(name).device.degrade(event.factor)
            self._open_window(name)
            self.timeline.append((sim.now, "slow", name, f"x{event.factor:g}"))
        elif action == "slow_link":
            cluster.fabric.degrade_link(
                name,
                bw_factor=1.0 / event.factor,
                extra_latency=event.extra_latency,
                loss_every=event.loss_every,
                loss_scope=event.loss_scope,
            )
            self._open_window(name)
            self.timeline.append((sim.now, "slow_link", name, f"x{event.factor:g}"))
        elif action == "heal":
            host = cluster.osd_by_name(name)
            device = getattr(host, "device", None)
            if device is not None:
                device.heal()
            cluster.fabric.heal_link(name)
            self._close_window(name)
            self.timeline.append((sim.now, "heal", name, ""))
        elif action == "restart":
            fail_osd(cluster, name, mode="stop")
            self.timeline.append((sim.now, "restart", name, "stop"))
            sim.process(
                self._delayed_restore(name, event.duration),
                name=f"restart-restore:{name}",
            )
        elif action == "decommission":
            self.timeline.append((sim.now, "decommission", name, ""))
            result = yield from rebalance_leave(
                cluster, name, rebalance_mbps=event.rebalance_mbps
            )
            self.migrations.append(result)
        else:  # pragma: no cover - ACTIONS is validated in FaultEvent
            raise AssertionError(f"unhandled action {action!r}")
        return
