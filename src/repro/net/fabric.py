"""The switch fabric: endpoint registry and transfer costing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.metrics.counters import NetCounters
from repro.net.nic import NIC
from repro.sim.core import At, Simulator

GBIT = 1e9 / 8


class LinkLossError(RuntimeError):
    """A message was dropped on a lossy degraded link.

    Thrown into the sender by its :class:`Transfer` record after the
    serialisation leg, before delivery — the receiver never sees the
    message.  Callers treat it like
    a transient transport fault: ``RpcHost.rpc`` resends the frame under
    the same request id and never lets this escape to its caller.
    """

    def __init__(self, endpoint: str, kind: str):
        super().__init__(f"message {kind or 'raw'!r} dropped on lossy link {endpoint!r}")
        self.endpoint = endpoint
        self.kind = kind


class Transfer(At):
    """One frame on the wire: the kernel record its sender yields.

    :meth:`Fabric.transfer` claims the tx direction at issue and builds the
    record for the arrival instant ``t``.  The record has two heap legs and
    resumes its sender once.  Its first firing, at arrival, claims the rx
    direction and queues the second leg at the projected delivery instant,
    or, for a dropped frame, throws :class:`LinkLossError` into the sender
    there instead.  The second firing records the traffic counters and
    resumes the sender.  A sender interrupted in between leaves a stale
    record: it claims nothing more and counts nothing.
    """

    __slots__ = ("src", "dst", "rx_time", "nbytes", "kind", "loss")

    def __init__(self, t: float, src: NIC, dst: NIC, rx_time: float,
                 nbytes: int, kind: str, loss: "LinkLossError | None"):
        self.t = t
        self.src = src
        self.dst = dst  # None once the rx direction is claimed
        self.rx_time = rx_time
        self.nbytes = nbytes
        self.kind = kind
        self.loss = loss

    def _fire(self) -> None:
        proc = self.proc
        if proc._waiting_on is not self:
            return  # the sender was interrupted: the frame claims nothing
        dst = self.dst
        if dst is None:
            self.src.counters.record(self.nbytes, self.kind)
            proc._step(None)
        elif self.loss is not None:
            # The message left the wire but never arrives: the sender paid
            # serialisation + switch latency, the receiver sees nothing.
            proc._step(None, self.loss)
        else:
            # The rx direction receives from many senders, so its FIFO
            # claim happens at *arrival* time, in arrival order.
            sim = proc.sim
            start = dst.rx_busy
            if start < sim.now:
                start = sim.now
            done = start + self.rx_time
            dst.rx_busy = done
            self.dst = None
            sim._schedule_at(self, done)


@dataclass
class LinkState:
    """Degradation overrides for one endpoint (see ``Fabric.degrade_link``)."""

    bw_factor: float = 1.0      # effective bandwidth = profile bw * factor
    extra_latency: float = 0.0  # added to base_latency per message
    loss_every: int = 0         # drop every Nth *egress* message (0 = none)
    loss_scope: str = "requests"  # "requests" exempts reply/err frames;
                                  # "all" drops any egress frame
    messages: int = 0           # egress messages considered for loss
    dropped_requests: int = 0   # request frames dropped
    dropped_replies: int = 0    # reply/err frames dropped (scope "all")

    @property
    def dropped(self) -> int:
        """Total egress messages dropped on this link, both directions."""
        return self.dropped_requests + self.dropped_replies


@dataclass(frozen=True)
class NetworkProfile:
    """Edge bandwidth and per-message base latency of a fabric."""

    name: str
    bandwidth: float  # bytes/second per NIC direction
    base_latency: float  # switch + stack latency per message, seconds
    header_bytes: int = 128  # protocol framing charged per message


# The SSD testbed: 25 Gb/s Ethernet.
NET_25GBE = NetworkProfile(name="25gbe", bandwidth=25 * GBIT, base_latency=30e-6)
# The HDD testbed: 40 Gb/s InfiniBand (lower stack latency).
NET_40GIB = NetworkProfile(name="40gib", bandwidth=40 * GBIT, base_latency=8e-6)


class Fabric:
    """A non-blocking switch connecting named NIC endpoints.

    :meth:`transfer` advances time by *projected completion*: the tx leg
    claims the sender's direction at issue and the rx leg claims the
    receiver's direction at arrival, each from the NIC's busy-until clock,
    so the tx -> switch -> rx pipeline is one :class:`Transfer` record with
    two heap legs, and the sender resumes once, at delivery.  A frame that
    has claimed a NIC direction keeps it until its projected instant even
    if the sending process is interrupted (a frame on the wire completes;
    ``docs/dataplane.md``, "The time plane").  Leg costs — including link
    degradation — are fixed when the transfer is issued.

    Per-endpoint degradation (``degrade_link``) scales that endpoint's
    serialisation bandwidth and adds per-message latency; lossy mode drops
    every Nth message *sent* by the endpoint.  The loss scope selects the
    frames at risk: ``"requests"`` exempts reply and error frames (a
    drop then always precedes any handler state change, so whole-op
    retries are trivially safe), while ``"all"`` may drop any egress
    frame — safe only because the RPC plane dedups retransmitted request
    ids and replays cached replies (at-most-once delivery,
    ``repro.fs.messages``).
    """

    def __init__(self, sim: Simulator, profile: NetworkProfile = NET_25GBE):
        self.sim = sim
        self.profile = profile
        self.nics: Dict[str, NIC] = {}
        # endpoint name -> LinkState; absent == healthy.  Drops survive
        # heal_link(): the live link's per-direction counters are folded
        # into the fabric totals before the state is popped, so scenario
        # metrics can read them after the schedule heals everything.
        self._links: Dict[str, LinkState] = {}
        self._dropped_requests = 0
        self._dropped_replies = 0

    @property
    def dropped_requests(self) -> int:
        """Request frames dropped, healed links folded in."""
        return self._dropped_requests + sum(
            link.dropped_requests for link in self._links.values()
        )

    @property
    def dropped_replies(self) -> int:
        """Reply and error frames dropped, healed links folded in."""
        return self._dropped_replies + sum(
            link.dropped_replies for link in self._links.values()
        )

    @property
    def dropped_total(self) -> int:
        return self.dropped_requests + self.dropped_replies

    # ------------------------------------------------------------------
    # link degradation plane
    # ------------------------------------------------------------------
    def degrade_link(
        self,
        endpoint: str,
        bw_factor: float = 1.0,
        extra_latency: float = 0.0,
        loss_every: int = 0,
        loss_scope: str = "requests",
    ) -> None:
        """Degrade one endpoint's link; calling again replaces the state
        (drop counters of the replaced state are kept in the fabric totals).

        ``loss_scope`` selects which egress frames the deterministic
        counter-based loss considers: ``"requests"`` (historical default)
        exempts reply and error frames entirely — they pass through
        without even advancing the loss counter — while ``"all"`` counts
        and may drop every egress frame.  Scope ``"all"`` is only safe
        because the RPC plane is at-most-once (request dedup + reply
        caching in ``repro.fs.messages``); see docs/faults.md.
        """
        if endpoint not in self.nics:
            raise KeyError(f"endpoint {endpoint!r} not attached")
        if bw_factor <= 0:
            raise ValueError(f"bw_factor must be > 0, got {bw_factor!r}")
        if extra_latency < 0:
            raise ValueError(f"extra_latency must be >= 0, got {extra_latency!r}")
        if loss_every < 0:
            raise ValueError(f"loss_every must be >= 0, got {loss_every!r}")
        if loss_scope not in ("requests", "all"):
            raise ValueError(
                f"loss_scope must be 'requests' or 'all', got {loss_scope!r}"
            )
        self.heal_link(endpoint)  # fold the replaced state's drop counters
        self._links[endpoint] = LinkState(
            bw_factor=float(bw_factor),
            extra_latency=float(extra_latency),
            loss_every=int(loss_every),
            loss_scope=loss_scope,
        )

    def heal_link(self, endpoint: str) -> None:
        """Return an endpoint's link to profile speed; idempotent.

        Drop counters are folded into the fabric totals so the metrics
        survive the heal.
        """
        link = self._links.pop(endpoint, None)
        if link is not None:
            self._dropped_requests += link.dropped_requests
            self._dropped_replies += link.dropped_replies

    def link_state(self, endpoint: str) -> "LinkState | None":
        return self._links.get(endpoint)

    def _egress_drop(self, link: LinkState, is_reply: bool) -> bool:
        """Deterministic counter-based loss for one egress message."""
        if not link.loss_every:
            return False
        if is_reply and link.loss_scope != "all":
            # Scope "requests": replies and shipped errors pass through
            # without advancing the loss counter — the historical counter
            # stream the committed bench rows encode.
            return False
        link.messages += 1
        if link.messages % link.loss_every == 0:
            if is_reply:
                link.dropped_replies += 1
            else:
                link.dropped_requests += 1
            return True
        return False

    @property
    def counters(self) -> NetCounters:
        """Fabric-wide traffic: the sum of the sender NICs' records (a
        transfer is recorded once, by its sender; NICs are never
        detached, so none is lost)."""
        total = NetCounters()
        for nic in self.nics.values():
            c = nic.counters
            total.messages += c.messages
            total.bytes_sent += c.bytes_sent
            for kind, n in c.by_kind.items():
                total.by_kind[kind] = total.by_kind.get(kind, 0) + n
        return total

    def attach(self, endpoint: str) -> NIC:
        """Register an endpoint; idempotent per name."""
        nic = self.nics.get(endpoint)
        if nic is None:
            nic = NIC(self.profile.bandwidth, name=endpoint)
            self.nics[endpoint] = nic
        return nic

    def transfer(self, src: str, dst: str, nbytes: int, kind: str = "",
                 reply: bool = False) -> "Transfer | None":
        """Issue ``nbytes`` from ``src`` to ``dst``; returns the
        :class:`Transfer` record the sender yields (``yield t``) to wait for
        delivery, or ``None`` for a local transfer, which is not waited for.

        ``kind`` tags the traffic counters; ``reply`` marks an answer frame
        (an RPC's reply or shipped error), which the ``"requests"`` loss
        scope never drops.

        Local transfers (src == dst) cost nothing and are not counted —
        the paper's network-traffic numbers are inter-node bytes.  Traffic
        counters are recorded at *completion*: a sender that crashes
        mid-transfer (or a lossy-link drop) contributes no bytes to the
        traffic rows.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if src == dst:
            return None
        try:
            src_nic = self.nics[src]
            dst_nic = self.nics[dst]
        except KeyError as missing:
            raise KeyError(f"endpoint {missing.args[0]!r} not attached") from None
        wire = nbytes + self.profile.header_bytes
        # Leg costs, fixed at issue; link degradation scales them here.
        tx_time = wire / src_nic.bandwidth
        rx_time = wire / dst_nic.bandwidth
        latency = float(self.profile.base_latency)
        loss = None
        if self._links:
            src_link = self._links.get(src)
            dst_link = self._links.get(dst)
            if src_link is not None:
                if src_link.bw_factor != 1.0:
                    tx_time /= src_link.bw_factor
                latency += src_link.extra_latency
                if self._egress_drop(src_link, reply):
                    loss = LinkLossError(src, kind)
            if dst_link is not None:
                if dst_link.bw_factor != 1.0:
                    rx_time /= dst_link.bw_factor
                latency += dst_link.extra_latency
        # The tx direction is FIFO in *issue* order (only this endpoint
        # sends on it), so its grant and completion project at issue time;
        # the rx direction is claimed by the record at arrival.
        now = self.sim.now
        start = src_nic.tx_busy
        if start < now:
            start = now
        tx_done = start + tx_time
        src_nic.tx_busy = tx_done
        return Transfer(tx_done + latency, src_nic, dst_nic, rx_time, nbytes, kind, loss)
