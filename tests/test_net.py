"""Tests for the network fabric."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.net import Fabric, NET_25GBE, NET_40GIB, NetworkProfile
from repro.net.fabric import LinkLossError
from repro.sim import Resource, Simulator


def test_transfer_costs_serialize_latency_deserialize():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")
    fab.attach("b")
    nbytes = 1 << 20

    def proc(sim, fab):
        yield fab.transfer("a", "b", nbytes)
        return sim.now

    p = sim.process(proc(sim, fab))
    sim.run()
    wire = (nbytes + NET_25GBE.header_bytes) / NET_25GBE.bandwidth
    assert p.value == pytest.approx(2 * wire + NET_25GBE.base_latency)


def test_local_transfer_is_free_and_uncounted():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    fab.attach("a")

    def proc(sim, fab):
        assert fab.transfer("a", "a", 10**9) is None  # nothing to wait for
        yield 0.0
        return sim.now

    p = sim.process(proc(sim, fab))
    sim.run()
    assert p.value == 0.0
    assert fab.counters.messages == 0


def test_counters_accumulate_by_kind():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    for n in ("a", "b"):
        fab.attach(n)

    def proc(sim, fab):
        yield fab.transfer("a", "b", 100, kind="delta")
        yield fab.transfer("b", "a", 50, kind="delta")
        yield fab.transfer("a", "b", 25, kind="ack")

    sim.process(proc(sim, fab))
    sim.run()
    assert fab.counters.messages == 3
    assert fab.counters.bytes_sent == 175
    assert fab.counters.by_kind == {"delta": 150, "ack": 25}
    assert fab.nics["a"].counters.bytes_sent == 125
    assert fab.nics["b"].counters.bytes_sent == 50


def test_sender_tx_serializes_concurrent_transfers():
    sim = Simulator()
    fab = Fabric(sim, NET_25GBE)
    for n in ("a", "b", "c"):
        fab.attach(n)
    done = []

    def send(sim, fab, dst, nbytes):
        yield fab.transfer("a", dst, nbytes)
        done.append((dst, sim.now))

    nbytes = 10 << 20
    sim.process(send(sim, fab, "b", nbytes))
    sim.process(send(sim, fab, "c", nbytes))
    sim.run()
    wire = (nbytes + NET_25GBE.header_bytes) / NET_25GBE.bandwidth
    # Second transfer's serialisation waits for the first.
    assert done[0][1] == pytest.approx(2 * wire + NET_25GBE.base_latency)
    assert done[1][1] == pytest.approx(3 * wire + NET_25GBE.base_latency)


def test_unattached_endpoint_raises():
    sim = Simulator()
    fab = Fabric(sim)
    fab.attach("a")

    def proc(sim, fab):
        yield fab.transfer("a", "ghost", 10)

    sim.process(proc(sim, fab))
    with pytest.raises(KeyError):
        sim.run()


def test_negative_size_rejected():
    sim = Simulator()
    fab = Fabric(sim)
    fab.attach("a")
    fab.attach("b")

    def proc(sim, fab):
        yield fab.transfer("a", "b", -1)

    sim.process(proc(sim, fab))
    with pytest.raises(ValueError):
        sim.run()


def test_attach_is_idempotent():
    sim = Simulator()
    fab = Fabric(sim)
    n1 = fab.attach("a")
    n2 = fab.attach("a")
    assert n1 is n2


def test_infiniband_profile_has_lower_latency():
    assert NET_40GIB.base_latency < NET_25GBE.base_latency
    assert NET_40GIB.bandwidth > NET_25GBE.bandwidth


def test_profile_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Fabric(sim, NetworkProfile("bad", bandwidth=-1, base_latency=0)).attach("x")


# ----------------------------------------------------------------------
# projected completion == an independent FIFO queue per NIC direction
# ----------------------------------------------------------------------
_ENDPOINTS = ("a", "b", "c", "d")


def _reference_transfer_outcomes(profile, frames, faults):
    """Per-frame ``("done" | "lost", instant)`` from one capacity-1
    ``Resource`` per NIC direction and a cost model written out here — no
    busy-until clocks, no ``Fabric``.  Costs, and the drop decision, are
    fixed when the frame is issued.  Also returns every ``(receiver,
    arrival instant)`` so the caller can tell when two frames tied."""
    sim = Simulator()
    tx = {e: Resource(sim, capacity=1) for e in _ENDPOINTS}
    rx = {e: Resource(sim, capacity=1) for e in _ENDPOINTS}
    links = {}  # endpoint -> [bw_factor, extra_latency, loss_every, sent]
    out = {}
    arrivals = []

    def fault(at, endpoint, state):
        yield at
        if state is None:
            links.pop(endpoint, None)
        else:
            links[endpoint] = [*state, 0]

    def frame(i, at, src, dst, nbytes):
        yield at
        wire = nbytes + profile.header_bytes
        tx_time = wire / profile.bandwidth
        rx_time = wire / profile.bandwidth
        latency = profile.base_latency
        dropped = False
        if src in links:
            link = links[src]
            tx_time /= link[0]
            latency += link[1]
            if link[2]:
                link[3] += 1
                dropped = link[3] % link[2] == 0
        if dst in links:
            rx_time /= links[dst][0]
            latency += links[dst][1]
        yield tx[src].request()
        yield tx_time
        tx[src].release()
        yield latency
        if dropped:
            out[i] = ("lost", sim.now)
            return
        arrivals.append((dst, sim.now))
        yield rx[dst].request()
        yield rx_time
        rx[dst].release()
        out[i] = ("done", sim.now)

    for f in faults:
        sim.process(fault(*f))
    for i, f in enumerate(frames):
        sim.process(frame(i, *f))
    sim.run()
    return out, arrivals


def _fabric_transfer_outcomes(profile, frames, faults):
    sim = Simulator()
    fab = Fabric(sim, profile)
    for e in _ENDPOINTS:
        fab.attach(e)
    out = {}

    def fault(at, endpoint, state):
        yield at
        if state is None:
            fab.heal_link(endpoint)
        else:
            bw_factor, extra_latency, loss_every = state
            fab.degrade_link(endpoint, bw_factor, extra_latency, loss_every)

    def frame(i, at, src, dst, nbytes):
        yield at
        try:
            yield fab.transfer(src, dst, nbytes, kind="data")
        except LinkLossError:
            out[i] = ("lost", sim.now)
        else:
            out[i] = ("done", sim.now)

    for f in faults:
        sim.process(fault(*f))
    for i, f in enumerate(frames):
        sim.process(frame(i, *f))
    sim.run()
    delivered = sum(1 for kind, _t in out.values() if kind == "done")
    assert fab.counters.messages == delivered  # recorded at completion only
    return out


# Issue times on a 1 us grid inside 100 us, frames up to 256 KiB (84 us on
# the wire): directions queue and frames straddle degrade/heal events.
_net_time = st.integers(0, 100).map(lambda n: n * 1e-6)
_frame = st.tuples(
    _net_time,
    st.sampled_from(_ENDPOINTS),
    st.sampled_from(_ENDPOINTS),
    st.integers(0, 256 * 1024),
).filter(lambda f: f[1] != f[2])
_link_fault = st.tuples(
    _net_time,
    st.sampled_from(_ENDPOINTS),
    st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from([0.25, 0.5, 1.0]),
            st.sampled_from([0.0, 5e-6, 40e-6]),
            st.integers(0, 3),
        ),
    ),
)


@given(
    frames=st.lists(_frame, min_size=1, max_size=20),
    faults=st.lists(_link_fault, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_transfer_completions_match_fifo_direction_queues(frames, faults):
    want, arrivals = _reference_transfer_outcomes(NET_25GBE, frames, faults)
    # Two frames reaching one receiver in the same instant are served in
    # the kernel's intra-instant tie order (docs/dataplane.md), which FIFO
    # queueing does not define: skip those schedules.
    assume(len(set(arrivals)) == len(arrivals))
    got = _fabric_transfer_outcomes(NET_25GBE, frames, faults)
    assert got == want  # the same floats, not approximately
