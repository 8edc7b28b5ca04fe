"""Closed-loop trace replay, as a special case of the workload generator.

One :class:`TraceReplayer` drives one client: it issues each trace record's
update as soon as the previous one completes (closed loop, like fio with
iodepth=1 per client; aggregate concurrency comes from the client count, as
in the paper's 4..64-client sweeps).  Payload bytes are generated
deterministically from the replayer's RNG so runs are reproducible and
consistency checks can re-derive expected content.

Since the workload subsystem landed, this is just
:class:`~repro.workload.generator.OpenLoopGenerator` pinned to zero-gap
arrivals, one tenant, updates only and ``iodepth=1`` — the RNG draw order
(one payload per record, in issue order) is identical to the historical
replayer.  A replayer issues every record: a run is sized by its record
count.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fs.client import Client
from repro.traces.synth import TraceRecord
from repro.workload.arrival import ClosedLoop
from repro.workload.generator import OpenLoopGenerator, WorkloadSpec


class TraceReplayer(OpenLoopGenerator):
    """Replays one trace through one client against one file."""

    def __init__(
        self,
        client: Client,
        inode: int,
        records: List[TraceRecord],
        rng: np.random.Generator,
    ):
        super().__init__(
            client,
            [(inode, records)],
            rng,
            WorkloadSpec(
                arrivals=ClosedLoop(),
                n_requests=len(records),
                iodepth=1,
                read_fraction=0.0,
            ),
        )
        self.inode = inode
        self.records = records
