"""Cluster network model.

A :class:`~repro.net.fabric.Fabric` connects named endpoints through
full-duplex :class:`~repro.net.nic.NIC` ports and a non-blocking switch
(the paper's testbeds use 25 Gb/s Ethernet / 40 Gb/s InfiniBand with far
more backplane than edge bandwidth, so only the NICs queue).

A transfer costs: sender serialisation (tx direction busy for
size/bandwidth), wire+stack latency, receiver deserialisation (rx direction).  Every *completed*
transfer is counted toward Table 1's NETWORK column.

Per-endpoint links can be degraded live (:meth:`Fabric.degrade_link`):
scaled bandwidth, added latency, and deterministic egress loss
(:class:`~repro.net.fabric.LinkLossError`) for the fault plane.
"""

from repro.net.fabric import (
    Fabric,
    LinkLossError,
    LinkState,
    NetworkProfile,
    NET_25GBE,
    NET_40GIB,
    Transfer,
)
from repro.net.nic import NIC

__all__ = [
    "Fabric",
    "LinkLossError",
    "LinkState",
    "NIC",
    "NET_25GBE",
    "NET_40GIB",
    "NetworkProfile",
    "Transfer",
]
