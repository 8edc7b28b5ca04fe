"""The strategy interface every update method implements.

An OSD constructs one strategy instance at boot.  The strategy:

* serves the synchronous path: :meth:`on_update` runs inside the OSD's
  ``update`` RPC handler and returns when the client may be acked;
* optionally runs background processes (log recyclers) between
  :meth:`start_background` / :meth:`stop_background`;
* can overlay logged-but-unrecycled data onto reads via
  :meth:`read_overlay` (log-as-read-cache, §3.3.3);
* must be able to :meth:`drain` — push every pending log entry into data
  and parity blocks — so recovery and consistency checks can run.

The methods differ in where a delta goes and when it is applied (§2.2),
not in the plumbing, which lives here once: the in-place family's stripe
lock, data-block RMW and delta forward, acked at the later of the
overwrite and the forward (:meth:`update_in_place`; the hook
:meth:`forward_calls` names where the delta goes); ``parity_apply``, the
one handler that XORs ready ``(offset, pdelta)`` entries into a parity
block (FO's synchronous apply, FL's and CoRD's recycles);
and the pending ledger behind :meth:`stripe_pending` — a log-keeping
method names its index of unrecycled entries (``pending_index``) and pins
a stripe while a recycle holds popped state for it whose parity has not
landed (:meth:`pin_stripe`).  Only TSUE, whose state lives in its
engine's log units, answers on its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.events import AllOf

BlockKey = Tuple[int, int, int]


class UpdateStrategy:
    """Base class; concrete methods override the hooks they need."""

    name = "base"

    # True for the in-place (read-modify-write) family, whose update paths
    # must hold the hosting OSD's per-stripe lock; log-structured methods
    # leave it False because their parity maintenance is commutative
    # XOR-delta appends, safe at any pipelining depth without locks.
    serializes_stripes = False

    # Name of the attribute holding this method's unrecycled log entries —
    # a TwoLevelIndex keyed by ``(inode, stripe, block)`` — or None when
    # the method keeps no log (FO).
    pending_index: Optional[str] = None

    def __init__(self, osd):
        self.osd = osd
        self.sim = osd.sim
        self.cluster = osd.cluster
        # (inode, stripe) -> recycles holding popped state for the stripe
        # whose parity writes have not landed yet.
        self.pinned: Dict[Tuple[int, int], int] = {}
        osd.register("parity_apply", self.apply_parity_entries)
        self.register_handlers()

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def register_handlers(self) -> None:
        """Register strategy-specific RPC kinds on the hosting OSD."""

    def on_update(self, key: BlockKey, offset: int, data: np.ndarray):
        """Synchronous update path (generator).  Ack when it returns."""
        raise NotImplementedError
        yield  # pragma: no cover

    def start_background(self) -> None:
        """Boot recycler processes (called after the cluster starts)."""

    def stop_background(self) -> None:
        """Stop recycler processes (called before teardown)."""

    def drain(self, phase: int = 0):
        """Flush pending log state (generator).

        Strategies with multi-hop pipelines are drained in phases by the
        harness: phase 0, then 1, then 2 across *all* OSDs, so cross-OSD
        forwards from phase N land before phase N+1 runs.  Single-hop
        strategies only need phase 0.
        """
        if False:  # pragma: no cover - default is a no-op generator
            yield

    DRAIN_PHASES = 1

    def read_overlay(
        self, key: BlockKey, offset: int, length: int
    ) -> Optional[List[Tuple[int, np.ndarray]]]:
        """Logged fragments overlapping a read, or None if not applicable."""
        return None

    def stripe_pending(self, inode: int, stripe: int) -> bool:
        """True if this strategy holds state the stripe's parity does not
        reflect yet: an entry of its pending index, or a pin.

        Scoped per stripe so the scrubber can skip exactly the stripes
        whose parity legitimately lags, instead of skipping everything
        whenever anything is pending.  Exact, not best-effort: an entry
        leaves the index only when a recycle pops it, and the recycle
        holds a pin from that pop until its parity writes land.
        """
        if (inode, stripe) in self.pinned:
            return True
        if self.pending_index is None:
            return False
        return any(
            key[0] == inode and key[1] == stripe
            for key in getattr(self, self.pending_index).blocks()
        )

    def on_rebuilt(self) -> None:
        """Called after this OSD's blocks were reconstructed from survivors.

        Rebuilt blocks equal re-encoded live data, not whatever this node
        held pre-crash — strategies whose in-memory state encodes
        assumptions about on-disk content (PARIX's original images) must
        invalidate it here.  Log state proper needs no reset: recovery
        drains every log before reconstruction and the node's stripes stay
        write-fenced until it rejoins.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def pin_stripe(self, stripe_key: Tuple[int, int]) -> None:
        """A recycle popped state for ``stripe_key``: it stays pending
        until the matching :meth:`unpin_stripe`, once its parity lands."""
        self.pinned[stripe_key] = self.pinned.get(stripe_key, 0) + 1

    def unpin_stripe(self, stripe_key: Tuple[int, int]) -> None:
        left = self.pinned.pop(stripe_key) - 1
        if left:
            self.pinned[stripe_key] = left
        else:
            self.cluster.pins_changed.notify()

    def serialize_stripe(self, key: BlockKey, body):
        """Run generator ``body`` holding the per-stripe update lock.

        The lock is the hosting OSD's :class:`~repro.sim.resources.KeyedLock`
        keyed by ``(inode, stripe)``, so two pipelined updates touching the
        same stripe *on this OSD* — i.e. the same data block — execute their
        read-modify-write critical sections strictly FIFO.  Updates to other
        blocks of the same stripe live on other OSDs and stay concurrent,
        which is safe: their parity contributions are commutative XOR
        deltas; only the data-block read-modify-write (and PARIX's
        original-capture) races.

        The holder token is the running simulation process (stable across
        nesting), so an accidental double-wrap on the same stripe — a
        guaranteed self-deadlock — trips KeyedLock's reentrancy check
        instead of hanging the simulation silently.
        """
        stripe = (key[0], key[1])
        locks = self.osd.stripe_locks
        holder = self.sim.active_process or body
        if not locks.try_acquire(stripe, holder):
            yield locks.acquire(stripe, holder)
        try:
            result = yield from body
        finally:
            locks.release(stripe, holder)
        return result

    def rmw_forward_locked(self, key: BlockKey, offset: int, data: np.ndarray,
                           kind: str):
        """The in-place family's front half: read old, issue the delta's
        forward, overwrite; returns the forward's barrier, not awaited.

        Two small random I/Os on the data block — precisely the cost TSUE
        removes from the critical path.  The forward needs only the delta,
        so it overlaps the overwrite, which still lands before
        :meth:`serialize_stripe` (whose body this is) releases the lock.
        """
        old = yield from self.osd.store.read_range(key, offset, data.size, pattern="rand")
        # ``old`` is a zero-copy view of the live block: the delta must be
        # computed *before* the write overwrites those bytes (no yield in
        # between, so no other process can intervene either).
        # Not a ``fan_out``, which waits: the barrier is waited on after
        # the overwrite.  The legs' starts are queued, so the overwrite is
        # issued first, in this step.
        sim = self.sim
        sent = AllOf(sim, [sim.process(self.osd.rpc(*call))
                           for call in self.forward_calls(key, offset, old ^ data, kind)])
        yield from self.osd.store.write_range(key, offset, data, pattern="rand")
        return sent

    def update_in_place(self, key: BlockKey, offset: int, data: np.ndarray,
                        kind: str = "parity_apply"):
        """FO / PL / PLR / CoRD's synchronous path, which differ only in
        the ``kind`` their delta is forwarded as (:meth:`forward_calls`).
        The forward is waited on outside the stripe lock (applies and
        appends are commutative XOR): the ack comes at the later of the
        overwrite and the last forward reply."""
        sent = yield from self.serialize_stripe(
            key, self.rmw_forward_locked(key, offset, data, kind)
        )
        yield sent

    def forward_calls(self, key: BlockKey, offset: int, delta: np.ndarray,
                      kind: str):
        """Where data block ``key``'s ``delta`` at ``offset`` goes, as
        ``fan_out`` calls: by default one ``(dst, kind, (pkey, entries))``
        per parity block, its one entry scaled for it."""
        inode, stripe, j = key
        k = self.cluster.config.k
        calls = []
        for p, osd_name in self.parity_targets(key):
            pdelta = self.cluster.codec.parity_delta(j, p, delta)
            calls.append((osd_name, kind, ((inode, stripe, k + p), [(offset, pdelta)])))
        return calls

    def parity_targets(self, key: BlockKey) -> List[Tuple[int, str]]:
        """(parity_index, osd_name) for each parity block of the stripe."""
        inode, stripe, _ = key
        names = self.cluster.placement(inode, stripe)
        k = self.cluster.config.k
        return [(p, names[k + p]) for p in range(self.cluster.config.m)]

    def apply_parity_entries(self, pkey: BlockKey, entries):
        """One random RMW of parity block ``pkey`` per ready ``(offset,
        pdelta)`` of ``entries``, in order; the ``parity_apply`` handler.

        Uses the commutative XOR primitive so concurrent applications to
        the same parity range never lose an update.
        """
        for offset, pdelta in entries:
            yield from self.osd.store.xor_range(pkey, offset, pdelta, pattern="rand")
