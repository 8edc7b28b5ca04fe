"""Draw-order equivalence: workload and trace draws against live numpy.

Bit-identity of every benchmark baseline rests on the workload, trace and
payload draws consuming the seeded PCG64 streams exactly as the historical
scalar numpy calls did.  Two shortcuts stand in for numpy calls:
:func:`~repro.sim.rng.payload_bytes` (one bulk raw pull in place of
``integers(0, 256, n, dtype=np.uint8)``) and :func:`choice_cdf` searches
(in place of ``Generator.choice``).  These tests pin both against numpy,
then pin the trace generators and the full interleaved per-op draw order
of :class:`OpenLoopGenerator` against their scalar references.  If a numpy
upgrade changes its uint8 fill or 32-bit buffering, they fail loudly
before any baseline drifts.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import payload_bytes, skip_payload_bytes
from repro.traces.synth import SyntheticTraceConfig, choice_cdf, generate_trace
from repro.workload.arrival import (
    ClosedLoop,
    DiurnalArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.workload.generator import OpenLoopGenerator, WorkloadSpec


def fresh(seed=12345):
    return np.random.default_rng(seed)


def assert_state_equal(g1, g2):
    s1, s2 = g1.bit_generator.state, g2.bit_generator.state
    assert s1["state"] == s2["state"]
    assert s1["has_uint32"] == s2["has_uint32"]
    # numpy leaves a stale ``uinteger`` behind once the half is consumed.
    if s1["has_uint32"]:
        assert s1["uinteger"] == s2["uinteger"]


# ----------------------------------------------------------------------
# payload_bytes and choice_cdf
# ----------------------------------------------------------------------
_PAYLOAD_SIZES = list(range(9)) + [11, 12, 13, 15, 16, 17, 4095, 4096, 4097, 65537]

_draw_ops = st.lists(
    st.one_of(
        st.just(("random", 0)),
        st.just(("exponential", 0)),
        st.tuples(st.just("integers"), st.sampled_from([1, 2, 3, 100, 2**31, 2**34])),
        st.tuples(st.just("payload"), st.sampled_from(_PAYLOAD_SIZES)),
    ),
    max_size=40,
)


@given(seed=st.integers(min_value=0, max_value=2**32), ops=_draw_ops,
       pending_half=st.booleans())
@settings(max_examples=300, deadline=None)
def test_payload_bytes_matches_numpy_over_interleavings(seed, ops, pending_half):
    """Same bytes and same stream position as numpy's uint8 fill, whatever
    the draws around it and whether a 32-bit half is pending."""
    ref, gen = fresh(seed), fresh(seed)
    if pending_half:
        # A 32-bit bounded draw leaves the high half of a raw64 buffered.
        ref.integers(0, 100)
        gen.integers(0, 100)
        assert ref.bit_generator.state["has_uint32"] == 1
    for i, (kind, n) in enumerate(ops):
        if kind == "random":
            assert gen.random() == ref.random(), i
        elif kind == "exponential":
            assert gen.exponential(0.01) == ref.exponential(0.01), i
        elif kind == "integers":
            assert gen.integers(0, n) == ref.integers(0, n), i
        else:
            want = ref.integers(0, 256, n, dtype=np.uint8)
            got = payload_bytes(gen, n)
            assert got.dtype == np.uint8 and got.tobytes() == want.tobytes(), i
        assert_state_equal(ref, gen)


def test_mixed_draw_script_is_bit_identical():
    """A long adversarial mix of every draw kind, numpy vs the shortcuts."""
    pyrandom = random.Random(1)
    ref, gen = fresh(), fresh()
    p = np.array([0.2, 0.5, 0.1, 0.2])
    cdf = choice_cdf(p)
    for i in range(6000):
        k = pyrandom.randrange(5)
        if k == 0:
            a, b = float(ref.random()), float(gen.random())
        elif k == 1:
            n = pyrandom.choice([1, 2, 3, 7, 100, 4096, 2**31, 2**34])
            a, b = int(ref.integers(0, n)), int(gen.integers(0, n))
        elif k == 2:
            n = pyrandom.choice([1, 2, 3, 4, 5, 8, 9, 513, 4096, 4099])
            a = ref.integers(0, 256, n, dtype=np.uint8).tobytes()
            b = payload_bytes(gen, n).tobytes()
        elif k == 3:
            a = int(ref.choice(4, p=p))
            b = int(cdf.searchsorted(gen.random(), "right"))
        else:
            a, b = float(ref.exponential(0.01)), float(gen.exponential(0.01))
        assert a == b, f"draw {i} kind {k}: {a!r} != {b!r}"
    assert_state_equal(ref, gen)


@given(seed=st.integers(min_value=0, max_value=2**32),
       sizes=st.lists(st.one_of(st.integers(0, 17), st.integers(0, 70_000)),
                      min_size=1, max_size=12),
       pending_half=st.booleans())
@settings(max_examples=300, deadline=None)
def test_skip_payload_bytes_moves_the_stream_like_payload_bytes(seed, sizes, pending_half):
    """Skipping ``n`` payload bytes leaves the stream where drawing them
    does, whatever the size and whether a 32-bit half is pending."""
    ref, gen = fresh(seed), fresh(seed)
    if pending_half:
        ref.integers(0, 100)
        gen.integers(0, 100)
    for i, n in enumerate(sizes):
        payload_bytes(ref, n)
        skip_payload_bytes(gen, n)
        assert_state_equal(ref, gen)
        assert gen.integers(0, 2**31) == ref.integers(0, 2**31), i  # leave a half pending
    assert gen.random() == ref.random()


def test_payload_is_writable_and_fresh():
    gen = fresh()
    a = payload_bytes(gen, 37)
    assert a.flags.writeable and a.dtype == np.uint8 and a.size == 37
    a[:] = 0  # must not raise
    assert payload_bytes(gen, 37).any()


def test_choice_cdf_search_matches_choice_for_many_tables():
    tables = [
        [1.0],
        [0.5, 0.5],
        [0.69, 0.12, 0.07, 0.07, 0.05],
        list(np.linspace(1, 40, 40) / np.linspace(1, 40, 40).sum()),
    ]
    ref, gen = fresh(), fresh()
    for p in tables:
        p = np.asarray(p, dtype=np.float64)
        cdf = choice_cdf(p)
        for _ in range(500):
            assert int(ref.choice(len(p), p=p)) == cdf.searchsorted(gen.random(), "right")
    assert_state_equal(ref, gen)


# ----------------------------------------------------------------------
# trace generation
# ----------------------------------------------------------------------
def _reference_generate_trace(config, file_size, n_requests, rng):
    """The historical scalar implementation, verbatim."""
    from repro.traces.synth import PAGE, TraceRecord, _zipf_weights

    n_pages = file_size // PAGE
    hot_pages = max(1, int(n_pages * config.hot_fraction))
    perm = rng.permutation(n_pages)
    hot = perm[:hot_pages]
    weights = _zipf_weights(hot_pages, config.zipf_s)
    sizes = np.array([s for s, _ in config.size_dist])
    size_p = np.array([p for _, p in config.size_dist])
    out = []
    prev_end = None
    for _ in range(n_requests):
        size = int(rng.choice(sizes, p=size_p))
        if prev_end is not None and rng.random() < config.run_prob:
            offset = prev_end
        elif rng.random() < config.cold_prob:
            offset = int(rng.integers(0, n_pages)) * PAGE
        else:
            offset = int(hot[rng.choice(hot_pages, p=weights)]) * PAGE
        if offset + size > file_size:
            offset = max(0, file_size - size)
        out.append(TraceRecord(offset, size))
        prev_end = offset + size
    return out


_TRACE_CONFIGS = [
    SyntheticTraceConfig(
        name="tenlike",
        size_dist=[(4096, 0.69), (8192, 0.12), (16384, 0.07),
                   (32768, 0.07), (65536, 0.05)],
        hot_fraction=0.015, zipf_s=1.3, run_prob=0.45, cold_prob=0.04,
    ),
    SyntheticTraceConfig(
        name="alilike",
        size_dist=[(4096, 0.45), (8192, 0.2), (16384, 0.15),
                   (65536, 0.2)],
        hot_fraction=0.05, zipf_s=1.1, run_prob=0.3, cold_prob=0.05,
    ),
    # Corner probabilities: no cold jumps / no runs / everything cold.
    SyntheticTraceConfig(name="nocold", size_dist=[(4096, 1.0)],
                         hot_fraction=0.1, run_prob=0.5, cold_prob=0.0),
    SyntheticTraceConfig(name="norun", size_dist=[(512, 0.4), (4096, 0.6)],
                         hot_fraction=0.02, run_prob=0.0, cold_prob=0.9),
]


@pytest.mark.parametrize("config", _TRACE_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [0, 7, 991])
def test_generate_trace_matches_scalar_reference(config, seed):
    file_size = 4 * 1024 * 1024
    ref_rng, new_rng = fresh(seed), fresh(seed)
    want = _reference_generate_trace(config, file_size, 400, ref_rng)
    got = generate_trace(config, file_size, 400, new_rng)
    assert got == want
    # Back-to-back traces from one rng chain identically too.
    assert_state_equal(ref_rng, new_rng)
    want2 = _reference_generate_trace(config, file_size, 50, ref_rng)
    got2 = generate_trace(config, file_size, 50, new_rng)
    assert got2 == want2
    assert_state_equal(ref_rng, new_rng)


def test_hot_stripe_records_match_scalar_reference():
    from repro.traces.synth import PAGE, TraceRecord, _zipf_weights
    from repro.workload.scenarios import _hot_stripe_records, scenario_config

    cfg = scenario_config(seed=3, n_clients=2, requests_per_client=333)

    def reference(cfg, rng):
        span = cfg.k * cfg.block_size
        n_stripes = cfg.stripes_per_file
        pages_per_stripe = span // PAGE
        weights = _zipf_weights(n_stripes, 1.5)
        order = list(rng.permutation(n_stripes))
        out = []
        for _ in range(cfg.updates_per_client):
            stripe = int(order[int(rng.choice(n_stripes, p=weights))])
            page = int(rng.integers(0, pages_per_stripe))
            size = int(rng.choice([512, 4096], p=[0.4, 0.6]))
            out.append(TraceRecord(stripe * span + page * PAGE, size))
        return out

    for seed in (0, 7, 123):
        ref_rng, new_rng = fresh(seed), fresh(seed)
        assert _hot_stripe_records(cfg, new_rng) == reference(cfg, ref_rng)
        assert_state_equal(ref_rng, new_rng)


# ----------------------------------------------------------------------
# the generator's full interleaved per-op draw order
# ----------------------------------------------------------------------
class _Rec:
    """Duck-typed trace record (generator requires .offset/.size only)."""

    def __init__(self, offset, size):
        self.offset = offset
        self.size = size


def _reference_next_op(tenants, cursors, spec, rng):
    """The historical scalar ``_next_op``, verbatim."""
    if len(tenants) > 1:
        ti = int(rng.integers(0, len(tenants)))
    else:
        ti = 0
    inode, records = tenants[ti]
    rec = records[cursors[ti] % len(records)]
    cursors[ti] += 1
    if spec.read_fraction > 0 and (
        float(rng.random()) < spec.read_fraction
    ):
        return ("read", inode, rec.offset, rec.size)
    payload = rng.integers(0, 256, rec.size, dtype=np.uint8)
    return ("update", inode, rec.offset, payload)


_ARRIVALS = {
    "closed": ClosedLoop,
    "poisson": lambda: PoissonArrivals(rate=4000.0),
    "onoff": lambda: OnOffArrivals(burst_rate=12000.0, on_s=0.02, off_s=0.03),
    "diurnal": lambda: DiurnalArrivals(low=500.0, peak=8000.0, period=0.5),
}

_OP_SIZES = [1, 2, 3, 4, 512, 4096, 65536, 37, 4099]


@pytest.mark.parametrize("arrival", sorted(_ARRIVALS), ids=str)
@pytest.mark.parametrize("read_fraction", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_tenants", [1, 3])
def test_generator_draw_order_equivalence(arrival, read_fraction, n_tenants):
    """Interleaved gap + op draws on one rng, every configuration.

    Replicates the exact consumption pattern of ``OpenLoopGenerator.run``:
    ``next_gap`` on the shared generator, then the op draw — the reference
    side uses the historical scalar ``_next_op``, the new side the real
    generator object.
    """
    seed = hash((arrival, read_fraction, n_tenants)) % (2**31)
    tenants = [
        (
            1000 + t,
            [_Rec((i * 4096) % 65536, _OP_SIZES[(i + t) % len(_OP_SIZES)])
             for i in range(17 + t)],
        )
        for t in range(n_tenants)
    ]
    spec = WorkloadSpec(
        arrivals=_ARRIVALS[arrival](),
        n_requests=250,
        iodepth=4,
        read_fraction=read_fraction,
    )
    ref_rng, new_rng = fresh(seed), fresh(seed)
    gen = OpenLoopGenerator(None, tenants, new_rng, spec)
    ref_tenants = [(inode, list(records)) for inode, records in tenants]
    ref_cursors = [0] * n_tenants
    ref_arrivals = _ARRIVALS[arrival]()
    now = 0.0
    for i in range(spec.n_requests):
        gap_ref = ref_arrivals.next_gap(now, ref_rng)
        gap_new = spec.arrivals.next_gap(now, new_rng)
        assert gap_ref == gap_new, f"gap {i}"
        want = _reference_next_op(ref_tenants, ref_cursors, spec, ref_rng)
        got = gen._next_op()
        assert want[:3] == got[:3], f"op {i}"
        if want[0] == "update":
            assert np.array_equal(want[3], got[3]), f"payload {i}"
        else:
            assert want[3] == got[3]
        now += gap_ref + 1e-5 * (i % 7)  # deterministic clock skew
    assert_state_equal(ref_rng, new_rng)
    assert gen._cursors == ref_cursors


def test_ghost_generator_keeps_the_byte_plane_stream_positions():
    """Ghost plane: ``_next_op`` hands out metadata-only extents, yet every
    tenant / mix / gap draw lands where the byte plane's would."""
    from types import SimpleNamespace

    from repro.dataplane import GhostExtent

    tenants = [
        (1000 + t, [_Rec(i * 4096, _OP_SIZES[(i + t) % len(_OP_SIZES)])
                    for i in range(17 + t)])
        for t in range(3)
    ]
    spec = WorkloadSpec(arrivals=PoissonArrivals(rate=4000.0), n_requests=250,
                        iodepth=4, read_fraction=0.3)
    ghost_client = SimpleNamespace(
        cluster=SimpleNamespace(config=SimpleNamespace(ghost_dataplane=True))
    )
    ref_rng, new_rng = fresh(99), fresh(99)
    gen = OpenLoopGenerator(ghost_client, tenants, new_rng, spec)
    ref_tenants = [(inode, list(records)) for inode, records in tenants]
    ref_cursors = [0] * len(tenants)
    ref_arrivals = PoissonArrivals(rate=4000.0)
    for i in range(spec.n_requests):
        assert ref_arrivals.next_gap(0.0, ref_rng) == spec.arrivals.next_gap(0.0, new_rng)
        want = _reference_next_op(ref_tenants, ref_cursors, spec, ref_rng)
        got = gen._next_op()
        assert want[:3] == got[:3], f"op {i}"
        if want[0] == "update":
            assert isinstance(got[3], GhostExtent) and got[3].size == want[3].size
        else:
            assert want[3] == got[3]
    assert_state_equal(ref_rng, new_rng)
