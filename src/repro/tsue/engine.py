"""The per-OSD TSUE engine: front-end appends and the three-layer recycler.

Data flow (Fig. 2 of the paper):

1. **Front end** (synchronous): ``append_datalog`` puts the update into the
   right DataLog pool (hash of the block identity), *submits* its persist
   (one sequential device write) and returns the completion instant; the
   hosting strategy forwards a replica to the ring neighbour meanwhile and
   acks the client once both are durable.
2. **DataLog recycle** (async): merged segments per block -> one random
   read + one random write on the data block per *merged* segment, deltas
   forwarded to the DeltaLogs of the first two parity OSDs of the stripe.
3. **DeltaLog recycle** (async, primary copy only): pure memory — Eq. (3)
   same-offset folds and Eq. (5) cross-block combining — then per-parity
   combined deltas forwarded to each ParityLog.
4. **ParityLog recycle** (async): merged parity-delta segments -> one
   random read + XOR + one random write on the parity block each.

Every recycle job of steps 2-4 is started by ``TSUEEngine._take``: per
layer, in seal order, one job per block, as many at once as demand allows.

A ``tsue_delta`` message is one persisted append on both DeltaLog copies
(one sequential write of payloads + one header per entry; the primary also
fills its pool).  ParityLog entries are persisted one by one, except on the
stripe's two DeltaLog holders, whose DeltaLog copy already is their durable
record (``TSUEEngine._covered``): there they stay in memory.

Ablation knobs (Fig. 7): O1/O2 toggle merged-vs-raw recycling in the
Data/Parity logs, O3 toggles the multi-unit FIFO pool against a single
mutually-exclusive unit, O4 sets pools per device, O5 toggles the DeltaLog
layer entirely (off = parity deltas go straight from the DataLog recycler
to the ParityLogs, one message per parity block per data delta).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Tuple

import numpy as np

from repro.ec.rs import parity_delta as _parity_delta
from repro.logstruct.index import fold_parity_deltas
from repro.logstruct.pool import LogPool
from repro.logstruct.unit import ENTRY_HEADER_BYTES, LogUnit
from repro.metrics.latency import ResidencyTracker
from repro.sim.events import AllOf, Event, Interrupt

BlockKey = Tuple[int, int, int]

DATA = "data_log"
DELTA = "delta_log"
PARITY = "parity_log"

# Recycle jobs a layer runs at once while nobody waits on it (see
# ``TSUEEngine._take``); DataLog is the hot layer.
BACKGROUND_WIDTH = {DATA: 2, DELTA: 1, PARITY: 1}


@dataclass
class TSUEConfig:
    """Engine parameters; defaults follow §4.1/§5.3.2 of the paper."""

    unit_bytes: int = 16 * 1024 * 1024
    min_units: int = 2
    max_units: int = 4
    n_pools: int = 4
    replicas: int = 2            # DataLog copies (1 primary + replicas-1)
    use_delta_log: bool = True   # O5
    use_locality_data: bool = True    # O1
    use_locality_parity: bool = True  # O2
    use_log_pool: bool = True    # O3 (off = one exclusive unit per pool)
    flush_interval: float = 0.5  # scan period for the real-time flusher
    flush_age: float = 1.0       # seal active units older than this

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.n_pools < 1:
            raise ValueError("n_pools must be >= 1")

    def pool_kwargs(self, policy: str, keep_raw: bool) -> dict:
        # O3 off: one unit, appends must wait for its recycle (exclusive).
        lo, hi = (self.min_units, self.max_units) if self.use_log_pool else (1, 1)
        return dict(
            unit_capacity=self.unit_bytes,
            min_units=lo,
            max_units=hi,
            policy=policy,
            keep_raw=keep_raw,
        )


class TSUEEngine:
    """Per-OSD TSUE state machine."""

    def __init__(self, osd, config: TSUEConfig):
        self.osd = osd
        self.sim = osd.sim
        self.cluster = osd.cluster
        self.config = cfg = config
        self.residency = ResidencyTracker()

        self.data_pools = [
            LogPool(name=f"{osd.name}.dlog{i}", **cfg.pool_kwargs("overwrite", not cfg.use_locality_data))
            for i in range(cfg.n_pools)
        ]
        self.delta_pools = [
            LogPool(name=f"{osd.name}.xlog{i}", **cfg.pool_kwargs("xor", False))
            for i in range(cfg.n_pools)
        ]
        self.parity_pools = [
            LogPool(name=f"{osd.name}.plog{i}", **cfg.pool_kwargs("xor", not cfg.use_locality_parity))
            for i in range(cfg.n_pools)
        ]
        self._pending: Dict[str, int] = {DATA: 0, DELTA: 0, PARITY: 0}
        self._idle_waiters: Dict[str, List[Event]] = {DATA: [], DELTA: [], PARITY: []}
        # Parked appenders per layer: pool id -> wake events.
        self._space_waiters: Dict[str, Dict[int, List[Event]]] = {DATA: {}, DELTA: {}, PARITY: {}}
        # Admission state (see _take): each layer's ready (key, job, unit
        # state) triples in seal order, and the keys with a job in flight.
        self._ready: Dict[str, Deque[tuple]] = {DATA: deque(), DELTA: deque(), PARITY: deque()}
        self._busy: Dict[str, set] = {DATA: set(), DELTA: set(), PARITY: set()}
        # Work counters: jobs admitted with nobody / somebody blocked on
        # their layer.
        self.admitted_background = 0
        self.admitted_demand = 0
        # ParityLog payload bytes appended covered (see _covered) / persisted.
        self.parity_bytes_covered = 0
        self.parity_bytes_persisted = 0
        self._procs = []  # the flusher and the live runners, in spawn order
        self._running = False

        # Device zone per pool, precomputed once: the append path is the
        # hottest front-end code and must not scan the pool list per call.
        self._pool_zone: Dict[int, str] = {}
        for layer, prefix, pools in (
            (DATA, "dlog", self.data_pools),
            (DELTA, "xlog", self.delta_pools),
            (PARITY, "plog", self.parity_pools),
        ):
            for i, pool in enumerate(pools):
                pool.seal_listener = self._make_seal_listener(layer, pool)
                self._pool_zone[id(pool)] = f"{prefix}{i}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._procs.append(
            self.sim.process(self._flush_loop(), name=f"{self.osd.name}.flush")
        )
        for layer in self._ready:  # units sealed while the engine was stopped
            self._pump(layer)

    def stop(self) -> None:
        self._running = False
        for p in self._procs:
            if p.is_alive:
                p.interrupt("stop")
        self._procs.clear()
        for busy in self._busy.values():  # aborted jobs hold no block
            busy.clear()

    # ------------------------------------------------------------------
    # pool plumbing
    # ------------------------------------------------------------------
    def _pool_for(self, pools: List[LogPool], key: Hashable) -> LogPool:
        return pools[hash(key) % len(pools)]

    def _make_seal_listener(self, layer: str, pool: LogPool):
        def on_seal(unit: LogUnit) -> None:
            self._pending[layer] += 1
            unit.start_recycle(self.sim.now)
            jobs = self._unit_jobs(layer, unit)
            state = {
                "left": len(jobs),
                "layer": layer,
                "pool": pool,
                "unit": unit,
                "t0": self.sim.now,
            }
            if not jobs:
                self._finish_unit(state)
                return
            self._ready[layer].extend((key, fn, state) for key, fn in jobs)
            self._pump(layer)

        return on_seal

    def _wait_space(self, layer: str, pool: LogPool) -> Event:
        ev = self.sim.event(name=f"space:{pool.name}")
        self._space_waiters[layer].setdefault(id(pool), []).append(ev)
        self._pump(layer)
        return ev

    def _notify_space(self, layer: str, pool: LogPool) -> None:
        for ev in self._space_waiters[layer].pop(id(pool), []):
            if not ev.triggered:
                ev.succeed()

    def _pool_append(self, layer: str, pool: LogPool, key, offset, data):
        """Append to the pool, waiting while it is at quota (yields nothing
        when there is room)."""
        while not pool.append(key, offset, data, self.sim.now):
            yield self._wait_space(layer, pool)

    # ------------------------------------------------------------------
    # front end
    # ------------------------------------------------------------------
    def append_datalog(self, key: BlockKey, offset: int, data: np.ndarray):
        """Record the update in the local DataLog and *issue* its persist.

        Returns the instant the sequential write completes without waiting
        for it: the caller overlaps the replica forward with the local
        persist and acks at the later of the two (``TSUEStrategy.on_update``).
        Back-pressure is on the submit — a full pool delays the issue, not
        just the ack.
        """
        pool = self._pool_for(self.data_pools, key)
        yield from self._pool_append(DATA, pool, key, offset, data)
        return self.osd.device.submit_write(
            int(data.size) + ENTRY_HEADER_BYTES,
            zone=self._pool_zone[id(pool)],
            pattern="seq",
            overwrite=False,
        )

    def append_replica_datalog(self, key: BlockKey, offset: int, data: np.ndarray):
        """Replica DataLog: persisted sequentially, no memory pool (§4.1)."""
        yield from self.osd.device.write(
            int(data.size) + ENTRY_HEADER_BYTES,
            zone="dlog_rep",
            pattern="seq",
            overwrite=False,
        )

    def append_deltalog(self, key: BlockKey, entries, primary: bool):
        """DeltaLog append: one persisted message on either copy — payloads
        plus a header per entry in one sequential write.  The primary also
        puts every entry into the pool (waiting for space); the replica
        persists only."""
        nbytes = sum(int(d.size) for _, d in entries)
        if primary:
            pool = self._pool_for(self.delta_pools, key)
            for offset, delta in entries:
                yield from self._pool_append(DELTA, pool, key, offset, delta)
            zone = self._pool_zone[id(pool)]
        else:
            zone = "xlog_rep"
        yield from self.osd.device.write(
            nbytes + len(entries) * ENTRY_HEADER_BYTES,
            zone=zone,
            pattern="seq",
            overwrite=False,
        )

    def _covered(self, pkey: BlockKey) -> bool:
        """The persist rule: a ParityLog entry is persisted only on a node
        that holds no durable record it can be re-derived from.

        With the DeltaLog layer on, parity ranks 0 and 1 each persisted the
        stripe's data deltas (``xlog`` / ``xlog_rep``) before ``tsue_delta``
        was acked, and the entries folded from them (Eq. 3 / Eq. 5 times the
        node's own coefficient row: linear over GF(2^8)) are a pure function
        of that copy — they go into the pool in memory, not to flash again.
        On ranks >= 2, with O5 off and at ``m == 1`` the ParityLog write is
        the only local record and stays.

        One window: the primary may fold a unit while a fail-slow rank 1
        still persists the same deltas, so rank 1 can hold folded entries
        before its own copy is on flash.  Safe: the DataLog job that sent
        the deltas waits on *both* ``tsue_delta`` acks (``AllOf``) before
        its unit can finish — until both DeltaLog copies are durable the
        update is still in the DataLog and its ring replica.
        """
        cc = self.cluster.config
        return self.config.use_delta_log and cc.m >= 2 and pkey[2] - cc.k < 2

    def append_paritylog(self, pkey: BlockKey, entries):
        """ParityLog append: each entry into the pool, and persisted unless
        a local DeltaLog copy already is its durable record (``_covered``).

        Per entry, unlike the DeltaLog: one write per message was measured
        in PR 21 and takes Fig. 7's O1 > O2 ordering on Ali-Cloud with it
        (``benchmarks/results/rebaseline_pr21_sync_overlap.md``).
        """
        t0 = self.sim.now
        pool = self._pool_for(self.parity_pools, pkey)
        zone = self._pool_zone[id(pool)]
        covered = self._covered(pkey)
        for offset, pdelta in entries:
            yield from self._pool_append(PARITY, pool, pkey, offset, pdelta)
            size = int(pdelta.size)
            if covered:
                self.parity_bytes_covered += size
            else:
                self.parity_bytes_persisted += size
                yield from self.osd.device.write(
                    size + ENTRY_HEADER_BYTES,
                    zone=zone,
                    pattern="seq",
                    overwrite=False,
                )
        self.residency.record_append(PARITY, self.sim.now - t0)

    # ------------------------------------------------------------------
    # read cache
    # ------------------------------------------------------------------
    def read_overlay(self, key: BlockKey, offset: int, length: int):
        pool = self._pool_for(self.data_pools, key)
        frags = pool.cache_lookup_partial(key, offset, length)
        return frags or None

    # ------------------------------------------------------------------
    # back end
    # ------------------------------------------------------------------
    def _flush_loop(self):
        """Real-time recycle driver: seal aging active units periodically."""
        cfg = self.config
        shrink_every = max(1, int(round((10 * cfg.flush_age) / cfg.flush_interval)))
        tick = 0
        try:
            while self._running:
                yield self.sim.timeout(cfg.flush_interval)
                tick += 1
                now = self.sim.now
                for pool in self._all_pools():
                    active = pool.active
                    if (
                        active is not None
                        and active.first_append_time is not None
                        and now - active.first_append_time >= cfg.flush_age
                    ):
                        pool.flush_active(now)
                    # Elastic shrink (§3.2.2): after a quiet stretch,
                    # release RECYCLED units beyond the minimum.
                    if tick % shrink_every == 0 and not pool.has_pending_recycle():
                        pool.shrink()
        except Interrupt:
            return

    def _blocked(self, layer: str) -> bool:
        """Somebody waits on the layer: a ``drain_layer`` waiter, or an
        appender parked on one of its pools."""
        return bool(self._idle_waiters[layer] or self._space_waiters[layer])

    def _width(self, layer: str) -> int:
        """Jobs the layer may run at once: the background width, or the
        device's channel count while somebody is blocked on the layer."""
        if self._blocked(layer):
            return max(BACKGROUND_WIDTH[layer], self.osd.device.profile.channels)
        return BACKGROUND_WIDTH[layer]

    def _take(self, layer: str):
        """The admission rule — every recycle job starts here.

        Admits the first ready job, in seal order, whose block (DeltaLog:
        stripe) has no job in flight, while fewer than ``_width(layer)`` of
        the layer's jobs are in flight; ``None`` otherwise.  Two invariants
        rest on it:

        * *Per layer, never a shared budget.*  DataLog jobs block on remote
          DeltaLog appends, DeltaLog jobs on remote ParityLog appends, and
          ParityLog jobs only on the local device.  Under a shared budget
          data jobs on every node could hold every slot while the appends
          they wait for need a recycle that has no slot left — a cycle.
          With a width of at least one per layer the wait graph is acyclic
          (parity -> device only), so the pipeline always drains.
        * *One block, one job at a time, in seal order* — the paper's "log
          records for the same block are assigned to the same recycle
          thread": two units touching one block recycle its entries in the
          order they were sealed, while different blocks overlap.
        """
        busy = self._busy[layer]
        if not self._running or len(busy) >= self._width(layer):
            return None
        ready = self._ready[layer]
        for i, job in enumerate(ready):
            if job[0] not in busy:
                del ready[i]
                busy.add(job[0])
                if self._blocked(layer):
                    self.admitted_demand += 1
                else:
                    self.admitted_background += 1
                return job
        return None

    def _pump(self, layer: str) -> None:
        """Start a runner per job admissible now: on a unit sealed and on a
        drain or space waiter registered (a finished job re-evaluates in its
        own runner)."""
        while (job := self._take(layer)) is not None:
            self._procs = [p for p in self._procs if p.is_alive]
            self._procs.append(self.sim.process(self._runner(layer, job)))

    def _runner(self, layer: str, job):
        """Run admitted jobs back to back; exit when none is admissible."""
        busy = self._busy[layer]
        try:
            while job is not None:
                key, fn, state = job
                # A crashing job must still count towards unit completion:
                # otherwise state["left"] never reaches zero, the unit stays
                # RECYCLING forever, _notify_space never fires, and every
                # appender blocked in _pool_append deadlocks.
                # Interrupt (engine stopping) and GeneratorExit (GC closing
                # an abandoned run) re-raise *without* the accounting — an
                # aborted job is not a completed one.
                try:
                    yield from fn()
                except (Interrupt, GeneratorExit):
                    raise
                except BaseException as err:
                    self.sim._crash(err)
                busy.discard(key)
                state["left"] -= 1
                if state["left"] == 0:
                    self._finish_unit(state)
                job = self._take(layer)
        except Interrupt:
            return

    def _finish_unit(self, state) -> None:
        layer, pool, unit = state["layer"], state["pool"], state["unit"]
        unit.finish_recycle(self.sim.now)
        n = max(1, len(unit.entries))
        self.residency.record_buffer(layer, unit.mean_buffer_time())
        self.residency.record_recycle(layer, (self.sim.now - state["t0"]) / n)
        # Footprint follows use: the residency accounting above was the last
        # reader of the raw entries, and only DataLog units serve reads
        # (``read_overlay``, §3.3.3) — a recycled DeltaLog or ParityLog
        # index is unreachable until ``reactivate`` would clear it anyway.
        unit.entries.clear()
        if layer != DATA:
            unit.index.clear()
        self._pending[layer] -= 1
        self._notify_space(layer, pool)
        if self._pending[layer] == 0:
            for ev in self._idle_waiters[layer]:
                if not ev.triggered:
                    ev.succeed()
            self._idle_waiters[layer].clear()

    def _unit_jobs(self, layer: str, unit: LogUnit):
        """(routing_key, job_generator_fn) pairs for one sealed unit."""
        if layer == DATA:
            work = self._block_work(unit, self.config.use_locality_data)
            return [
                (key, (lambda k=key, p=pieces: self._recycle_data_block(k, p)))
                for key, pieces in work.items()
            ]
        if layer == DELTA:
            stripes: Dict[Tuple[int, int], Dict[int, list]] = {}
            for key in unit.index.blocks():
                inode, stripe, j = key
                stripes.setdefault((inode, stripe), {})[j] = unit.index.segments(key)
            return [
                (sk, (lambda s=sk, pb=per_block: self._recycle_delta_stripe(s, pb)))
                for sk, per_block in stripes.items()
            ]
        work = self._block_work(unit, self.config.use_locality_parity)
        return [
            (pkey, (lambda k=pkey, p=pieces: self._recycle_parity_block(k, p)))
            for pkey, pieces in work.items()
        ]

    # -- DataLog ---------------------------------------------------------
    def _block_work(self, unit: LogUnit, use_locality: bool):
        """(key -> [(offset, payload)]) a recycler must process."""
        work: Dict[Hashable, List[Tuple[int, np.ndarray]]] = {}
        if use_locality:
            for key in unit.index.blocks():
                work[key] = [(s.offset, s.data) for s in unit.index.segments(key)]
        else:
            for e in unit.entries:
                if e.data is None:
                    raise RuntimeError(
                        "raw-entry recycle requested but unit was not keep_raw"
                    )
                work.setdefault(e.key, []).append((e.offset, e.data))
        return work

    def _recycle_data_block(self, key: BlockKey, pieces):
        """RMW the data block and forward deltas downstream."""
        cfg = self.config
        store = self.osd.store
        deltas: List[Tuple[int, np.ndarray]] = []
        for offset, data in pieces:
            old = yield from store.read_range(key, offset, data.size, pattern="rand")
            # ``old`` is a view of the live block — delta before the write.
            delta = old ^ data
            yield from store.write_range(key, offset, data, pattern="rand")
            deltas.append((offset, delta))
        if not deltas:
            return
        inode, stripe, j = key
        m = self.cluster.config.m
        k = self.cluster.config.k
        names = self.cluster.placement(inode, stripe)
        nbytes = sum(int(d.size) for _, d in deltas)
        if cfg.use_delta_log and m >= 2:
            # Forward to the DeltaLogs of the first two parity OSDs: the
            # first is the primary (it recycles), the second the replica.
            calls = [
                (names[k + rank], "tsue_delta",
                 {"key": key, "entries": deltas, "primary": primary}, nbytes)
                for rank, primary in ((0, True), (1, False))
            ]
        else:
            # O5 off (or m == 1): scale per parity and go straight to the
            # ParityLogs — one message per parity block.
            calls = []
            for p in range(m):
                coeff = self.cluster.codec.coefficient(p, j)
                pentries = [(off, _parity_delta(coeff, d)) for off, d in deltas]
                calls.append((names[k + p], "tsue_parity",
                              {"pkey": (inode, stripe, k + p), "entries": pentries},
                              nbytes))
        # Retrying pushes: the recycle job owns these deltas and the
        # destination may be mid-failure/recovery.
        yield self.osd.fan_out(calls, retry=True)

    # -- DeltaLog --------------------------------------------------------
    def _recycle_delta_stripe(self, stripe_key: Tuple[int, int], per_block):
        """Eq. (3)/(5) combining, then per-parity forwards to ParityLogs.

        Keys in the DeltaLog are data-block keys; the manager groups them by
        stripe and this job folds every block's deltas into one combined
        parity delta per parity block.  No device I/O happens here at all —
        this layer's whole point is trading arithmetic for I/O and network
        volume.
        """
        inode, stripe = stripe_key
        k = self.cluster.config.k
        m = self.cluster.config.m
        names = self.cluster.placement(inode, stripe)
        calls = []
        own = None
        for p in range(m):
            pkey = (inode, stripe, k + p)
            entries = fold_parity_deltas(self.cluster.codec, p, per_block)
            if not entries:
                continue
            if names[k + p] == self.osd.name:
                # The primary's own share (rank 0): no frame to itself.
                own = (pkey, entries)
                continue
            nbytes = sum(int(d.size) for _, d in entries)
            calls.append(
                self.sim.process(
                    self.osd.rpc_with_retry(
                        names[k + p],
                        "tsue_parity",
                        {"pkey": pkey, "entries": entries},
                        nbytes=nbytes,
                    )
                )
            )
        if own is not None:
            yield from self.append_paritylog(*own)
        if calls:
            yield AllOf(self.sim, calls)

    # -- ParityLog -------------------------------------------------------
    def _recycle_parity_block(self, pkey: BlockKey, pieces):
        for offset, pdelta in pieces:
            yield from self.osd.store.xor_range(pkey, offset, pdelta, pattern="rand")

    # ------------------------------------------------------------------
    # drain support
    # ------------------------------------------------------------------
    def _layer_pools(self, layer: str) -> List[LogPool]:
        return {DATA: self.data_pools, DELTA: self.delta_pools, PARITY: self.parity_pools}[layer]

    def _all_pools(self) -> List[LogPool]:
        return self.data_pools + self.delta_pools + self.parity_pools

    def drain_layer(self, layer: str):
        """Seal every active unit of a layer and wait until all recycled."""
        for pool in self._layer_pools(layer):
            pool.flush_active(self.sim.now)
        while self._pending[layer] > 0:
            ev = self.sim.event(name=f"idle:{layer}")
            self._idle_waiters[layer].append(ev)
            self._pump(layer)
            yield ev

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def log_memory_bytes(self) -> int:
        return sum(p.memory_bytes for p in self._all_pools())

    def peak_log_memory_bytes(self) -> int:
        return sum(p.peak_memory_bytes for p in self._all_pools())

    def pending_recycles(self) -> int:
        return sum(self._pending.values())

    def stripe_pending(self, inode: int, stripe: int) -> bool:
        """True if any log layer still holds unrecycled entries for the
        stripe (best-effort; scoped per stripe for the scrubber).

        DataLog and DeltaLog units are keyed by data-block keys, ParityLog
        units by parity keys — all carry ``(inode, stripe, ...)``.  Units
        already RECYCLED are excluded — their content has been applied; a
        DataLog unit keeps its index as a read cache, the other layers'
        units keep none (``_finish_unit``).
        """
        from repro.logstruct.states import UnitState

        for pool in self._all_pools():
            for unit in pool.units:
                if unit.state is UnitState.RECYCLED:
                    continue
                for key in unit.index.blocks():
                    if key[0] == inode and key[1] == stripe:
                        return True
        return False
