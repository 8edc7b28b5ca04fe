"""TSUE as an :class:`UpdateStrategy` (front end + handler wiring).

The synchronous path is exactly Fig. 2's front end: record the raw update in
the local DataLog and issue its persist (one sequential write), forward it
to the ring-neighbour replica DataLog while that write is in flight, ack
once both are durable — at ``max(local persist, replica round trip)``, never
before either.  The two share no data and no resource (local SSD channel vs
NIC + the neighbour's SSD), so neither waits for the other
(``docs/dataplane.md``, "Issue and wait are two steps").  Everything else
lives in :class:`repro.tsue.TSUEEngine`.
"""

from __future__ import annotations

import numpy as np

from repro.sim.core import At
from repro.tsue.engine import DATA, DELTA, PARITY, TSUEConfig, TSUEEngine
from repro.update.base import BlockKey, UpdateStrategy


class TSUEStrategy(UpdateStrategy):
    """The paper's two-stage update method."""

    name = "tsue"
    DRAIN_PHASES = 3

    def __init__(self, osd, **params):
        """``params`` are :class:`~repro.tsue.engine.TSUEConfig` fields."""
        self.engine = TSUEEngine(osd, TSUEConfig(**params))
        super().__init__(osd)

    # ------------------------------------------------------------------
    def register_handlers(self) -> None:
        self.osd.register("tsue_replica", self.engine.append_replica_datalog)
        self.osd.register("tsue_delta", self._h_delta)
        self.osd.register("tsue_parity", self.engine.append_paritylog)

    def start_background(self) -> None:
        self.engine.start()

    def stop_background(self) -> None:
        self.engine.stop()

    # ------------------------------------------------------------------
    # front end
    # ------------------------------------------------------------------
    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        t0 = self.sim.now
        persisted = yield from self.engine.append_datalog(key, offset, data)
        n_replicas = self.engine.config.replicas - 1
        if n_replicas == 1:
            # The common geometry (2 DataLog copies): one replica forward,
            # run inline — no child process, no AllOf barrier.  The target
            # is the live ring successor, so elastic membership changes
            # retarget replica traffic automatically.
            yield from self.osd.rpc(
                self.cluster.replica_of(self.osd.name),
                "tsue_replica",
                (key, offset, data),
            )
        elif n_replicas > 1:
            yield from self.osd.fan_out(
                (self.cluster.ring_neighbor(self.osd.name, r), "tsue_replica",
                 (key, offset, data))
                for r in range(1, n_replicas + 1)
            )
        # The local persist was issued before the forwards and shares
        # nothing with them: ack at the later of the two, never before
        # either.  Already past means durable — no sleep, no event.
        if persisted > self.sim.now:
            yield At(persisted)
        self.engine.residency.record_append(DATA, self.sim.now - t0)

    # ------------------------------------------------------------------
    # back-end hops (``tsue_replica`` and ``tsue_parity`` are served by the
    # engine's appends themselves)
    # ------------------------------------------------------------------
    def _h_delta(self, key: BlockKey, entries, primary: bool):
        t0 = self.sim.now
        yield from self.engine.append_deltalog(key, entries, primary)
        if primary:
            self.engine.residency.record_append(DELTA, self.sim.now - t0)

    # ------------------------------------------------------------------
    def read_overlay(self, key, offset, length):
        return self.engine.read_overlay(key, offset, length)

    def stripe_pending(self, inode: int, stripe: int) -> bool:
        return self.engine.stripe_pending(inode, stripe)

    def drain(self, phase: int = 0):
        layer = (DATA, DELTA, PARITY)[phase]
        yield from self.engine.drain_layer(layer)
