"""A full-duplex network port."""

from __future__ import annotations

from repro.metrics.counters import NetCounters


class NIC:
    """One endpoint's network interface: independent tx and rx directions.

    ``bandwidth`` is bytes/second per direction.  Serialisation of one
    message keeps the direction busy for ``nbytes / bandwidth``; the
    per-message fixed cost lives in the fabric's latency term.
    ``tx_busy``/``rx_busy`` are the virtual times each direction is busy
    until — the FIFO single-server clocks ``Fabric.transfer`` claims.
    """

    def __init__(self, bandwidth: float, name: str = "nic"):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth
        self.name = name
        self.counters = NetCounters()
        self.tx_busy = 0.0
        self.rx_busy = 0.0
