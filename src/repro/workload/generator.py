"""Open-loop workload generators with bounded pipelining.

An :class:`OpenLoopGenerator` drives one client: arrivals come from an
:class:`~repro.workload.arrival.ArrivalProcess`, each request is routed to
one of the generator's *tenants* (an ``(inode, records)`` stream — multiple
tenants give multi-file key sharding), and in-flight requests are bounded by
``iodepth`` via a FIFO semaphore over spawned ``client.update`` /
``client.read`` processes.  With ``iodepth > 1`` requests genuinely overlap
(the client records peak concurrency); with :class:`ClosedLoop` arrivals and
``iodepth=1`` the generator degenerates to the seed's one-outstanding
replayer, bit-for-bit in its RNG draws.

Reads are served through the normal client read path, which overlays
logged-but-unrecycled bytes (the TSUE read cache) on device data — the
``mixed_rw`` scenarios measure exactly that interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

# NB: no repro.traces imports here — traces.replay builds on this module,
# so records are duck-typed (anything with .offset and .size works).
from repro.dataplane import GhostExtent
from repro.sim import AllOf, Resource
from repro.sim.rng import payload_bytes
from repro.workload.arrival import ArrivalProcess, ClosedLoop


@dataclass
class WorkloadSpec:
    """Shape of one client's request stream."""

    arrivals: ArrivalProcess = field(default_factory=ClosedLoop)
    n_requests: int = 100
    iodepth: int = 1
    # Fraction of requests issued as range reads of the same extent the
    # trace record would have updated (served via the read-overlay path).
    read_fraction: float = 0.0
    stop_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ValueError(f"n_requests must be >= 0, got {self.n_requests}")
        if self.iodepth < 1:
            raise ValueError(f"iodepth must be >= 1, got {self.iodepth}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )


class OpenLoopGenerator:
    """Drives one client with an open-loop, pipelined request stream.

    ``tenants`` is a non-empty list of ``(inode, records)`` pairs; each
    arrival picks a tenant (uniformly when there are several) and consumes
    that tenant's next trace record, cycling when the list is exhausted.
    All randomness — tenant choice, read/update mix, payload bytes — comes
    from ``rng`` in issue order, so runs are reproducible per seed.
    """

    def __init__(
        self,
        client,
        tenants: Sequence[Tuple[int, Sequence]],
        rng: np.random.Generator,
        spec: Optional[WorkloadSpec] = None,
    ):
        if not tenants:
            raise ValueError("need at least one (inode, records) tenant")
        self.client = client
        self.tenants = [(inode, list(records)) for inode, records in tenants]
        self.rng = rng
        self.spec = spec or WorkloadSpec()
        if self.spec.n_requests > 0 and any(not r for _, r in self.tenants):
            raise ValueError("every tenant needs a non-empty record list")
        # Counters (updates vs reads kept separate; `completed` mirrors the
        # historical closed-loop replayer and counts updates only).
        self.issued = 0
        self.completed = 0
        self.reads_completed = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.peak_inflight = 0
        self._inflight = 0
        self._cursors = [0] * len(self.tenants)
        # Per-op dict/attr lookups are hoisted into flat tables:
        # ``(inode, [(offset, size), ...], n_records)`` per tenant.
        self._n_tenants = len(self.tenants)
        self._read_fraction = self.spec.read_fraction
        # Ghost plane: payloads leave the generator as metadata-only
        # extents.  The byte draw is still made and dropped (below, in
        # _next_op), so the shared RNG stream position — and with it every
        # tenant/read-mix/arrival draw after it — stays bit-identical
        # across planes.  (The draw-order tests drive this class with no
        # client at all, hence the defensive chain.)
        cluster = getattr(client, "cluster", None)
        self._ghost_payloads = bool(
            getattr(getattr(cluster, "config", None), "ghost_dataplane", False)
        )
        self._op_streams = [
            (inode, [(r.offset, r.size) for r in records], len(records))
            for inode, records in self.tenants
        ]

    # ------------------------------------------------------------------
    def _next_op(self):
        """Draw the next operation; RNG use is strictly in issue order."""
        rng = self.rng
        if self._n_tenants > 1:
            ti = int(rng.integers(0, self._n_tenants))
        else:
            ti = 0
        inode, recs, n_recs = self._op_streams[ti]
        c = self._cursors[ti]
        offset, size = recs[c % n_recs]
        self._cursors[ti] = c + 1
        rf = self._read_fraction
        if rf > 0 and rng.random() < rf:
            return ("read", inode, offset, size)
        payload = payload_bytes(rng, size)
        if self._ghost_payloads:
            return ("update", inode, offset, GhostExtent(size, tag="wl"))
        return ("update", inode, offset, payload)

    # ------------------------------------------------------------------
    def run(self):
        """The generator process body (pass to ``sim.process``)."""
        sim = self.client.sim
        spec = self.spec
        slots = Resource(sim, capacity=spec.iodepth, name=f"{self.client.name}.iodepth")
        # The requests the final join waits for, keyed by ``issued``: each
        # leaves on success (_issue), so this holds at most ``iodepth``
        # live ones.  A failed one stays, so the join sees its failure.
        unfinished = self._unfinished = {}
        for _ in range(spec.n_requests):
            if spec.stop_at is not None and sim.now >= spec.stop_at:
                break
            gap = spec.arrivals.next_gap(sim.now, self.rng)
            if gap > 0:
                yield float(gap)
            # The iodepth bound: arrivals past the pipelining budget wait
            # here, which is what keeps open-loop memory finite.  A free
            # slot is taken synchronously (no grant event round trip).
            if not slots.try_acquire():
                yield slots.request()
            # Re-check the deadline at the slot grant: with iodepth=1 the
            # grant lands exactly at the previous completion, matching the
            # historical closed-loop replayer's issue-time truncation.
            if spec.stop_at is not None and sim.now >= spec.stop_at:
                slots.release()
                break
            # Draw the op only after the deadline re-check: a request
            # truncated at the deadline must consume no RNG state and
            # advance no tenant cursor, so the draw history always matches
            # `issued` exactly.
            op = self._next_op()
            self.issued += 1
            unfinished[self.issued] = sim.process(self._issue(op, slots, self.issued))
        if self.issued:
            # A request that finished left nothing for the join to count:
            # it fires at the same (time, seq) as one over every request.
            yield AllOf(sim, unfinished.values())
        return self.completed

    def _issue(self, op, slots: Resource, key: int):
        self._inflight += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)
        try:
            kind, inode, offset, arg = op
            if kind == "read":
                data = yield from self.client.read(inode, offset, arg)
                self.reads_completed += 1
                self.bytes_read += int(data.size)
            else:
                yield from self.client.update(inode, offset, arg)
                self.completed += 1
                self.bytes_written += int(arg.size)
            del self._unfinished[key]
        finally:
            self._inflight -= 1
            slots.release()
