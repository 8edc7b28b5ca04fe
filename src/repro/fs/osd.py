"""The object storage device server.

An OSD stores blocks on one device, hosts one update-strategy instance,
and serves the core RPCs:

* ``write_block`` — normal (first) writes of whole blocks;
* ``read``        — range reads, overlaid with logged updates when the
  strategy keeps a read cache;
* ``update``      — the strategy's synchronous update path;
* ``recovery_read`` / ``recovery_write`` — whole-block reads and writes
  of the rebuild, rebalance and stripe-check paths.

Strategies register additional RPC kinds (delta forwards, log replication,
parity appends) on construction.
"""

from __future__ import annotations

from typing import Optional

from repro.dataplane import assemble_overlay
from repro.devices.base import StorageDevice
from repro.fs.blockstore import BlockStore
from repro.fs.messages import HostDownError, Message, RetransmitBudgetError, RpcHost
from repro.sim.resources import KeyedLock

# Serving a read fully from the in-memory log index costs roughly a memory
# copy + index probe, not a device I/O.
CACHE_HIT_LATENCY = 2e-6


class OSD(RpcHost):
    """One storage server node."""

    def __init__(self, sim, fabric, name, cluster, device: StorageDevice, strategy_factory):
        super().__init__(sim, fabric, name)
        self.cluster = cluster
        self.device = device
        self.store = BlockStore(
            sim,
            device,
            cluster.config.block_size,
            ghost=cluster.config.ghost_dataplane,
        )
        self.register("write_block", self._h_write_block)
        self.register("read", self._h_read)
        self.register("update", self._h_update)
        self.register("recovery_read", self._h_recovery_read)
        self.register("recovery_write", self._h_recovery_write)
        self.updates_served = 0
        self.reads_served = 0
        self.cache_hits = 0
        # Per-(inode, stripe) update locks.  In-place strategies wrap their
        # read-modify-write critical sections in these (via
        # UpdateStrategy.serialize_stripe) so pipelined same-stripe updates
        # serialize FIFO instead of racing the parity RMW; log-structured
        # strategies never touch them (XOR-delta appends commute).
        self.stripe_locks = KeyedLock(sim, name=f"{name}.stripes")
        self._heartbeat_interval: Optional[float] = None
        self._heartbeat_proc = None
        # The strategy registers its handlers in its constructor, so build
        # it last.
        self.strategy = strategy_factory(self)

    # ------------------------------------------------------------------
    # failure / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop this OSD, then reclaim any stripe locks it died with.

        Aborted handlers release their per-stripe locks through ``finally``
        as the interrupt unwinds them, but a handler interrupted while
        *queued* on a lock — or granted one in the same instant it dies —
        would leave lock state owned by a corpse, wedging every later
        same-stripe writer.  A reaper runs after all the interrupt events of
        this instant have fired and force-resets whatever is left.
        """
        super().crash()
        # The heartbeat dies with the node — and must not resurrect when
        # recovery revives the serving plane for the replica-driven drain
        # (a dead node's stand-in replica must not claim liveness, or the
        # MDS would never flag the failure).  Only restart() re-boots it.
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            self._heartbeat_proc.interrupt("crash")
        locks = self.stripe_locks

        def reap():
            # One zero-delay hop: lets same-instant releases/grants from the
            # dying handlers land first, so we only reset true leftovers.
            yield self.sim.timeout(0.0)
            locks.force_reset(HostDownError(self.name, "stripe lock holder crashed"))

        self.sim.process(reap(), name=f"{self.name}.lock-reap")

    def start_heartbeat(self, interval: float = 1.0) -> None:
        """Boot (or re-boot after restart) the MDS heartbeat process."""
        self._heartbeat_interval = interval
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            return
        self._heartbeat_proc = self.sim.process(
            self.heartbeat_loop(interval), name=f"{self.name}.heartbeat"
        )

    def restart(self) -> None:
        """Bring a stopped/crashed OSD back into service.

        Restores the serving plane, background recyclers and (if one was
        ever started) the heartbeat.  Block contents are whatever the store
        currently holds — recovery installs rebuilt blocks before calling
        this.
        """
        self.start()
        self.strategy.start_background()
        if self._heartbeat_interval is not None:
            self.start_heartbeat(self._heartbeat_interval)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _h_write_block(self, msg: Message):
        key = msg.payload["key"]
        data = msg.payload["data"]
        yield from self.store.write_block(key, data, pattern="seq")
        return {"ok": True}, 8

    def _h_update(self, msg: Message):
        key = msg.payload["key"]
        offset = msg.payload["offset"]
        data = msg.payload["data"]
        yield from self.strategy.on_update(key, offset, data)
        self.updates_served += 1
        return {"ok": True}, 8

    def _h_read(self, msg: Message):
        key = msg.payload["key"]
        offset = msg.payload["offset"]
        length = msg.payload["length"]
        data = yield from self.read_range_with_overlay(key, offset, length)
        self.reads_served += 1
        return {"data": data}, length

    def _h_recovery_read(self, msg: Message):
        size = self.store.block_size
        data = yield from self.store.read_range(msg.payload["key"], 0, size, pattern="seq")
        # Snapshot: the payload crosses reply-transfer yields and is held by
        # the puller while this OSD keeps serving writes.
        return {"data": data.copy()}, size

    def _h_recovery_write(self, msg: Message):
        yield from self.store.write_block(msg.payload["key"], msg.payload["data"], pattern="seq")
        return {"ok": True}, 8

    # ------------------------------------------------------------------
    def read_range_with_overlay(self, key, offset: int, length: int):
        """Read a block range, overlaying any logged-but-unrecycled bytes.

        Full log hits skip the device entirely (the read-cache effect);
        partial hits pay the device read and patch the fragments on top.
        """
        overlay = self.strategy.read_overlay(key, offset, length)
        if overlay:
            # Snapshot the fragments *before* any yield: they are views
            # into live log-segment buffers, which concurrent inserts may
            # fold into in place — the read must return the bytes as of
            # lookup time, not whatever lands during its simulated wait.
            covered = sum(frag.size for _, frag in overlay)
            if covered == length:
                self.cache_hits += 1
                out = assemble_overlay(length, offset, overlay)
                yield CACHE_HIT_LATENCY
                return out
            overlay = [(off, frag.copy()) for off, frag in overlay]
        base = yield from self.store.read_range(key, offset, length, pattern="rand")
        # ``base`` is a read-only view of the live block; the reply payload
        # crosses transfer yields, so snapshot it (and patch overlay
        # fragments into the snapshot, never into the store).
        base = base.copy()
        if overlay:
            for off, frag in overlay:
                base[off - offset : off - offset + frag.size] = frag
        return base

    # ------------------------------------------------------------------
    def heartbeat_loop(self, interval: float = 1.0):
        """Optional heartbeat process (started by recovery experiments).

        A beat sent while the MDS is down is a missed beat, not the end of
        the heartbeat: the MDS timeout is what turns enough consecutive
        misses into a failure verdict.  A beat lost on a lossy link is
        resent by ``rpc`` and arrives late; one whose link dropped every
        frame for the whole retransmit budget is a missed beat too (the
        handler is idempotent, so "may have been applied" is harmless).
        """
        while self.running:
            try:
                yield from self.rpc("mds", "heartbeat", {}, nbytes=8)
            except (HostDownError, RetransmitBudgetError):
                pass
            yield self.sim.sleep(interval)
