"""Cluster configuration, block placement and node wiring.

``Cluster`` owns the simulator-level objects of one experiment: the fabric,
one MDS, ``n_osds`` OSDs (each with one device), and any number of clients.
Placement is the deterministic rotated-ring layout every node can compute
locally (clients cache it after opening a file, mirroring §4's MDS-tracked
locations without paying an RPC per update).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.dataplane import as_payload
from repro.devices import HDD, SSD, DeviceProfile, StorageDevice
from repro.ec import RSCodec, StripeMap
from repro.metrics.counters import NetCounters, OpCounters, WearModel
from repro.net import Fabric, NET_25GBE, NetworkProfile
from repro.sim import RngStreams, Simulator
from repro.sim.events import Notifier


def placement(n_osds: int, width: int, inode: int, stripe: int) -> List[int]:
    """OSD indices hosting the ``width = k+m`` blocks of one stripe.

    A hash-rotated ring: distinct OSDs per stripe, rotating with the stripe
    number so parity load spreads across the cluster.
    """
    if width > n_osds:
        raise ValueError(f"stripe width {width} exceeds cluster size {n_osds}")
    start = zlib.crc32(f"{inode}:{stripe}".encode()) % n_osds
    return [(start + i) % n_osds for i in range(width)]


@dataclass
class ClusterConfig:
    """Geometry + hardware of one experiment run."""

    n_osds: int = 16
    k: int = 6
    m: int = 2
    block_size: int = 128 * 1024
    device_kind: str = "ssd"  # "ssd" | "hdd"
    device_profile: Optional[DeviceProfile] = None
    net_profile: NetworkProfile = NET_25GBE
    # Client-side per-request cost: POSIX layer, placement lookup, marker
    # handling, context switches (the CLIENT component of §4).  Charged once
    # per update/read call before any message leaves the node.
    client_overhead_s: float = 120e-6
    seed: int = 0
    # Ghost payload plane (see repro.dataplane): payloads carry sizes and
    # provenance only, never bytes.  Must stay False for fault/rebuild/scrub
    # scenarios, which need real bytes (decode refuses with
    # GhostMaterializationError).
    ghost_dataplane: bool = False

    def __post_init__(self) -> None:
        if self.k + self.m > self.n_osds:
            raise ValueError(
                f"k+m={self.k + self.m} blocks cannot be spread over "
                f"{self.n_osds} OSDs"
            )
        if self.device_kind not in ("ssd", "hdd"):
            raise ValueError(f"unknown device kind {self.device_kind!r}")


class Cluster:
    """All simulator objects of one experiment, wired together."""

    def __init__(
        self,
        sim: Simulator,
        config: ClusterConfig,
        strategy_factory: Callable[["OSD"], "UpdateStrategy"],
    ):
        # Imports deferred: fs and update import Cluster types for hints.
        from repro.fs.client import Client
        from repro.fs.mds import MDS
        from repro.fs.osd import OSD

        self.sim = sim
        self.config = config
        self._strategy_factory = strategy_factory
        self.rng = RngStreams(config.seed)
        self.fabric = Fabric(sim, config.net_profile)
        self.codec = RSCodec(config.k, config.m)
        self.stripe_map = StripeMap(config.k, config.m, config.block_size)

        self.mds = MDS(sim, self.fabric, "mds", cluster=self)
        self.osds: List[OSD] = []
        for i in range(config.n_osds):
            device = self._make_device(f"osd{i}.dev")
            osd = OSD(
                sim,
                self.fabric,
                f"osd{i}",
                cluster=self,
                device=device,
                strategy_factory=strategy_factory,
            )
            self.osds.append(osd)
        self.clients: List[Client] = []
        # Between start() and stop(): hosts that join a live cluster boot
        # on arrival, hosts added before start() wait for it.
        self.live = False
        self._hosts: Dict[str, "RpcHost"] = {"mds": self.mds}
        for osd in self.osds:
            self._hosts[osd.name] = osd
        # One routing table, shared by reference: a host that joins later
        # is added to it once and is then known to everyone already wired.
        for host in self._hosts.values():
            host.connect(self._hosts)
        # Failure bookkeeping: the cluster-wide view of unavailable OSDs
        # (the MDS's membership map, pushed through ``down_changed``) plus
        # the outage windows [name, t_down, t_up] behind the recovery
        # metrics of failure scenarios.
        self.down_osds: Set[str] = set()
        self.down_changed = Notifier(sim)
        self.down_windows: List[List] = []
        # Live placement membership.  ``osds`` is every OSD ever provisioned
        # (decommissioned nodes stay there as stopped hosts so drains and
        # counter aggregation remain total); ``ring`` is the ordered subset
        # placement maps onto.  Membership changes go through commit_ring()
        # (the rebalance plane), never by mutating ``ring`` in place.
        self.ring: List[str] = [osd.name for osd in self.osds]
        self._ring_pos: Dict[str, int] = {n: i for i, n in enumerate(self.ring)}
        # (inode, stripe) -> member names on ``ring``; cleared with it.
        self._placed: Dict[Tuple[int, int], List[str]] = {}
        # Elastic-migration fencing: stripes mid-migration (clients hold new
        # ops until the set clears) and a refcount of in-flight foreground
        # ops per stripe (the rebalancer quiesces on it before copying).
        # Both are plain dict/set state touched by non-yielding helpers, so
        # fault-free runs see identical virtual time.  Notified: a fence
        # lifts, a refcount or a stripe's recycle pins reach zero.
        self.migrating_stripes: Set[Tuple[int, int]] = set()
        self.fences_changed = Notifier(sim)
        self._active_stripe_ops: Dict[Tuple[int, int], int] = {}
        self.ops_changed = Notifier(sim)
        self.pins_changed = Notifier(sim)
        # Per-stripe placement overrides, installed by the rebalance as
        # each stripe's copy lands (fence-copy-flip) and cleared wholesale
        # when commit_ring() installs the new membership.  Empty outside a
        # migration, so the healthy placement path pays one falsy check.
        self.placement_overrides: Dict[Tuple[int, int], List[str]] = {}
        # What a never-written block reads as in the consistency gates:
        # one read-only zero block per cluster, not one per missing member.
        self._zero_block = np.zeros(config.block_size, dtype=np.uint8)
        self._zero_block.flags.writeable = False

    # ------------------------------------------------------------------
    def _make_device(self, name: str) -> StorageDevice:
        if self.config.device_kind == "ssd":
            return SSD(self.sim, profile=self.config.device_profile, name=name)
        return HDD(self.sim, profile=self.config.device_profile, name=name)

    def add_client(self, name: str) -> "Client":
        from repro.fs.client import Client

        client = Client(self.sim, self.fabric, name, cluster=self)
        self.clients.append(client)
        self._hosts[name] = client
        client.connect(self._hosts)
        if self.live:
            client.start()
        return client

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.live = True
        for host in self._hosts.values():
            host.start()
        for osd in self.osds:
            osd.strategy.start_background()

    def stop(self) -> None:
        self.live = False
        for osd in self.osds:
            osd.strategy.stop_background()
        for host in self._hosts.values():
            host.stop()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def placement(self, inode: int, stripe: int) -> List[str]:
        """OSD names for the k+m blocks of a stripe, in block order.

        Maps onto the *current ring* — elastic membership changes move
        stripes by changing the ring (via :meth:`commit_ring`), and every
        placement consumer follows automatically.  A rebalance flips
        stripes one at a time via ``placement_overrides`` before the final
        ring commit.  The list is memoised per ring and shared between
        callers: read it, never mutate it.
        """
        key = (inode, stripe)
        if self.placement_overrides:
            override = self.placement_overrides.get(key)
            if override is not None:
                return override
        names = self._placed.get(key)
        if names is None:
            names = self._placed[key] = self.placement_on(self.ring, inode, stripe)
        return names

    def placement_on(self, ring: List[str], inode: int, stripe: int) -> List[str]:
        """Placement under a hypothetical ring (rebalance planning)."""
        idx = placement(len(ring), self.config.k + self.config.m, inode, stripe)
        return [ring[i] for i in idx]

    def osd_of_block(self, inode: int, stripe: int, block_index: int) -> str:
        return self.placement(inode, stripe)[block_index]

    def osd_by_name(self, name: str) -> "OSD":
        host = self._hosts[name]
        return host  # type: ignore[return-value]

    def replica_of(self, osd_name: str) -> str:
        """Ring neighbour hosting this OSD's DataLog replica (Fig. 4)."""
        return self.ring_neighbor(osd_name, 1)

    def ring_neighbor(self, osd_name: str, r: int) -> str:
        """The ``r``-th ring successor of an OSD (replica fan-out targets).

        A provisioned OSD that is not a member yet serves flipped stripes
        through ``placement_overrides`` before :meth:`commit_ring` appends
        it, so it gets the neighbours it will have once appended.
        """
        ring = self.ring
        pos = self._ring_pos.get(osd_name)
        if pos is None:
            if osd_name not in self._hosts:
                raise KeyError(osd_name)
            ring = ring + [osd_name]
            pos = len(ring) - 1
        return ring[(pos + r) % len(ring)]

    def commit_ring(self, new_ring: List[str]) -> None:
        """Atomically install a new placement membership.

        Only the rebalance plane calls this, after migrated blocks are in
        place on their new homes; the flip itself is instantaneous (no
        yields), so no foreground op can observe a half-committed ring.
        """
        if len(set(new_ring)) != len(new_ring):
            raise ValueError("ring members must be unique")
        if len(new_ring) < self.config.k + self.config.m:
            raise ValueError(
                f"ring of {len(new_ring)} cannot hold stripes of width "
                f"{self.config.k + self.config.m}"
            )
        for name in new_ring:
            if name not in self._hosts:
                raise ValueError(f"unknown ring member {name!r}")
        self.ring = list(new_ring)
        self._ring_pos = {n: i for i, n in enumerate(self.ring)}
        self._placed.clear()
        # Any per-stripe overrides were stepping stones to exactly this
        # membership; the committed ring now answers for every stripe.
        self.placement_overrides.clear()

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def add_osd(self) -> "OSD":
        """Provision one fresh OSD (host + device + strategy) outside the ring.

        The node is wired, started (if the cluster is live) and heartbeat-
        seeded, but carries no placement until a rebalance commits it into
        the ring — joining is a two-step protocol so the data copy happens
        while the old placement still serves traffic.  Non-yielding.
        """
        from repro.fs.osd import OSD

        name = f"osd{len(self.osds)}"
        if name in self._hosts:
            raise ValueError(f"host name {name!r} already taken")
        device = self._make_device(f"{name}.dev")
        osd = OSD(
            self.sim,
            self.fabric,
            name,
            cluster=self,
            device=device,
            strategy_factory=self._strategy_factory,
        )
        self.osds.append(osd)
        self._hosts[name] = osd
        osd.connect(self._hosts)
        if self.live:
            osd.start()
            osd.strategy.start_background()
        # Seed liveness so a running failure detector never flags the
        # joiner in the gap before its first heartbeat lands.
        self.mds.last_heartbeat[name] = self.sim.now
        return osd

    # ------------------------------------------------------------------
    # migration fencing (non-yielding: called on the foreground op path)
    # ------------------------------------------------------------------
    def note_ops_begin(self, inode: int, stripes) -> None:
        """Register in-flight foreground ops on each (inode, stripe)."""
        ops = self._active_stripe_ops
        for s in stripes:
            key = (inode, s)
            ops[key] = ops.get(key, 0) + 1

    def note_ops_end(self, inode: int, stripes) -> None:
        ops = self._active_stripe_ops
        for s in stripes:
            key = (inode, s)
            n = ops.get(key, 0) - 1
            if n <= 0:
                ops.pop(key, None)
                self.ops_changed.notify()
            else:
                ops[key] = n

    def fence_stripe(self, key: Tuple[int, int]) -> None:
        """Hold new foreground ops on ``key`` until :meth:`unfence_stripes`."""
        self.migrating_stripes.add(key)

    def unfence_stripes(self, keys) -> None:
        """Lift the migration fence of every stripe in ``keys``."""
        self.migrating_stripes.difference_update(keys)
        self.fences_changed.notify()

    def stripe_quiesced(self, key: Tuple[int, int]) -> bool:
        """True iff no foreground op is in flight on stripe ``key``."""
        return key not in self._active_stripe_ops

    # ------------------------------------------------------------------
    # failure bookkeeping
    # ------------------------------------------------------------------
    def mark_down(self, name: str) -> None:
        """Record an OSD as unavailable (clients fence/degrade around it)."""
        if name not in self.down_osds:
            self.down_osds.add(name)
            self.down_windows.append([name, self.sim.now, None])
            self.down_changed.notify()

    def mark_up(self, name: str) -> None:
        """Clear an OSD's down mark and close its outage window."""
        self.down_osds.discard(name)
        self.down_changed.notify()
        for window in reversed(self.down_windows):
            if window[0] == name and window[2] is None:
                window[2] = self.sim.now
                break

    # ------------------------------------------------------------------
    # workload pre-load
    # ------------------------------------------------------------------
    def register_sparse_file(self, inode: int, size: int) -> None:
        """Register a zero-filled file with no block materialisation.

        RS codes are linear, so all-zero data blocks encode to all-zero
        parity: a sparse file is trivially parity-consistent and blocks are
        materialised lazily on first touch.  This lets experiments use
        realistically large working sets (tens of MB per client) with
        memory bounded by the bytes actually updated.
        """
        cfg = self.config
        span = cfg.k * cfg.block_size
        if size <= 0 or size % span:
            raise ValueError(f"file size must be a positive multiple of {span}")
        self.mds.register_file(inode, size)

    def instant_load_file(self, inode: int, data: np.ndarray) -> None:
        """Install a file's blocks and parity with no simulated I/O cost.

        ``data`` must be a whole number of stripes; experiments pre-fill the
        working set this way so measurement windows contain only updates.
        """
        data = as_payload(data)
        cfg = self.config
        span = cfg.k * cfg.block_size
        if data.size == 0 or data.size % span:
            raise ValueError(f"file size must be a positive multiple of {span}")
        n_stripes = data.size // span
        for s in range(n_stripes):
            chunk = data[s * span : (s + 1) * span]
            blocks = [
                chunk[j * cfg.block_size : (j + 1) * cfg.block_size]
                for j in range(cfg.k)
            ]
            parity = self.codec.encode(blocks)
            names = self.placement(inode, s)
            for j, blk in enumerate(blocks):
                self.osd_by_name(names[j]).store.install((inode, s, j), blk)
            for p, blk in enumerate(parity):
                self.osd_by_name(names[cfg.k + p]).store.install(
                    (inode, s, cfg.k + p), blk
                )
        self.mds.register_file(inode, data.size)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def total_ops(self) -> OpCounters:
        return OpCounters.aggregate(o.device.counters for o in self.osds)

    def total_wear(self) -> WearModel:
        out = WearModel()
        for o in self.osds:
            out = out.merge(o.device.wear)
        return out

    def total_net(self) -> NetCounters:
        return self.fabric.counters

    # ------------------------------------------------------------------
    # consistency checking (tests / recovery)
    # ------------------------------------------------------------------
    def stripe_consistent(self, inode: int, stripe: int) -> bool:
        """True iff stored parity equals re-encoded stored data.

        Ghost plane: with no bytes to re-encode, the check degrades to the
        coverage invariant every strategy's parity path maintains — each
        parity block's written-interval set equals the union of the data
        blocks' written intervals (a data write that drained must have
        patched every parity block over exactly the same extent).
        """
        cfg = self.config
        names = self.placement(inode, stripe)
        if cfg.ghost_dataplane:
            from repro.logstruct.intervals import IntervalSet

            union = IntervalSet()
            for j in range(cfg.k):
                store = self.osd_by_name(names[j]).store
                for a, b in store.covered((inode, stripe, j)).intervals():
                    union.add(a, b)
            expect_ivs = union.intervals()
            for p in range(cfg.m):
                store = self.osd_by_name(names[cfg.k + p]).store
                got = store.covered((inode, stripe, cfg.k + p)).intervals()
                if got != expect_ivs:
                    return False
            return True
        zero = self._zero_block
        blocks = []
        for j in range(cfg.k):
            blk = self.osd_by_name(names[j]).store.peek((inode, stripe, j))
            if blk is None:
                blk = zero
            blocks.append(blk)
        expect = self.codec.encode(blocks)
        for p in range(cfg.m):
            got = self.osd_by_name(names[cfg.k + p]).store.peek(
                (inode, stripe, cfg.k + p)
            )
            if got is None:
                got = zero
            if not np.array_equal(got, expect[p]):
                return False
        return True
