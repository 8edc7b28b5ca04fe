"""Tests for the block store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import GhostExtent
from repro.devices import SSD
from repro.fs.blockstore import PAGE, BlockStore
from repro.logstruct.intervals import IntervalSet
from repro.sim import Simulator


def make_store(block_size=256):
    sim = Simulator()
    dev = SSD(sim)
    return sim, dev, BlockStore(sim, dev, block_size)


def run(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def test_block_size_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        BlockStore(sim, SSD(sim), 0)


def test_write_then_read_roundtrip():
    sim, dev, store = make_store()
    data = np.arange(256, dtype=np.uint8)
    run(sim, store.write_block("b", data))
    got = run(sim, store.read_range("b", 10, 5))
    assert np.array_equal(got, data[10:15])


def test_write_block_size_mismatch():
    sim, dev, store = make_store()

    def go():
        yield from store.write_block("b", np.zeros(100, dtype=np.uint8))

    sim.process(go())
    with pytest.raises(ValueError):
        sim.run()


def test_fresh_write_is_not_overwrite_second_is():
    sim, dev, store = make_store()
    data = np.zeros(256, dtype=np.uint8)
    run(sim, store.write_block("b", data))
    assert dev.counters.overwrite_ops == 0
    run(sim, store.write_block("b", data))
    assert dev.counters.overwrite_ops == 1


def test_write_range_materializes_zero_block():
    sim, dev, store = make_store()
    run(sim, store.write_range("sparse", 100, np.full(4, 9, dtype=np.uint8)))
    blk = store.peek("sparse")
    assert blk[99] == 0 and list(blk[100:104]) == [9, 9, 9, 9]
    assert dev.counters.overwrite_ops == 1  # range updates are write-penalty


def test_range_validation():
    sim, dev, store = make_store()

    def go():
        yield from store.read_range("b", 250, 10)

    sim.process(go())
    with pytest.raises(ValueError):
        sim.run()


def test_xor_range_is_commutative_under_interleaving():
    sim, dev, store = make_store()
    d1 = np.full(8, 0b0101, dtype=np.uint8)
    d2 = np.full(8, 0b0011, dtype=np.uint8)
    # Two concurrent xor_range calls on the same range.
    sim.process(store.xor_range("b", 0, d1))
    sim.process(store.xor_range("b", 0, d2))
    sim.run()
    assert np.array_equal(store.peek("b")[:8], d1 ^ d2)


def test_device_offsets_are_stable_and_disjoint():
    sim, dev, store = make_store()
    o1 = store.device_offset("a")
    o2 = store.device_offset("b")
    assert o1 != o2
    assert store.device_offset("a") == o1
    assert abs(o2 - o1) >= store.block_size


def test_install_and_peek_cost_nothing():
    sim, dev, store = make_store()
    store.install("x", np.ones(256, dtype=np.uint8))
    assert sim.now == 0.0
    assert dev.counters.rw_ops == 0
    assert store.peek("x")[0] == 1
    assert store.peek("ghost") is None
    with pytest.raises(ValueError):
        store.install("y", np.ones(3, dtype=np.uint8))


def test_reads_cost_device_time():
    sim, dev, store = make_store()
    run(sim, store.write_range("b", 0, np.ones(16, dtype=np.uint8)))
    t0 = sim.now
    run(sim, store.read_range("b", 0, 16))
    assert sim.now > t0
    assert dev.counters.read_ops == 1


# ----------------------------------------------------------------------
# the written hull against a dense reference, on both planes
# ----------------------------------------------------------------------
# Not a multiple of PAGE: the last page of the hull is short.
HULL_BLOCK = 3 * PAGE + 512
KEYS = ("a", "b", "c")


def _payload(n, seed):
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


_range = st.integers(0, HULL_BLOCK).flatmap(
    lambda off: st.tuples(st.just(off), st.integers(0, HULL_BLOCK - off))
)
_key = st.sampled_from(KEYS)
_seed = st.integers(0, 2**16)
_op = st.one_of(
    st.tuples(st.sampled_from(("write_range", "xor_range", "fold_xor")), _key, _range, _seed),
    st.tuples(st.just("read_range"), _key, _range, st.just(0)),
    st.tuples(st.sampled_from(("write_block", "install")), _key, st.just((0, HULL_BLOCK)), _seed),
    st.tuples(st.sampled_from(("peek", "drop")), _key, st.just((0, 0)), st.just(0)),
)


COSTED = ("write_range", "xor_range", "read_range", "write_block")


def _apply(sim, store, op, key, offset, arg):
    """Run one store call to completion; returns what it returned.  ``arg``
    is the payload, or the length for ``read_range``."""
    if op in ("peek", "drop"):
        args = (key,)
    elif op in ("write_block", "install"):
        args = (key, arg)
    else:
        args = (key, offset, arg)
    out = getattr(store, op)(*args)
    return run(sim, out) if op in COSTED else out


@given(ops=st.lists(_op, max_size=25))
@settings(max_examples=150, deadline=None)
def test_hull_store_matches_a_dense_reference_on_both_planes(ops):
    byte_sim, ghost_sim = Simulator(), Simulator()
    byte = BlockStore(byte_sim, SSD(byte_sim), HULL_BLOCK)
    ghost = BlockStore(ghost_sim, SSD(ghost_sim), HULL_BLOCK, ghost=True)
    ref = {}          # key -> the whole block, dense
    cov = {}          # key -> written intervals (ghost coverage)
    for op, key, (offset, length), seed in ops:
        data = _payload(length, seed)
        reading = op == "read_range"
        got = _apply(byte_sim, byte, op, key, offset, length if reading else data)
        ghost_got = _apply(
            ghost_sim, ghost, op, key, offset, length if reading else GhostExtent(length)
        )
        # Device time is a function of sizes only: both planes agree.
        assert byte_sim.now == ghost_sim.now
        if op == "drop":
            ref.pop(key, None)
            continue
        if op == "peek":
            if key not in ref:
                assert got is None and ghost_got is None
            else:
                assert np.array_equal(got, ref[key])
                assert not got.flags.writeable
                assert ghost_got.size == HULL_BLOCK
            continue
        blk = ref.setdefault(key, np.zeros(HULL_BLOCK, dtype=np.uint8))
        if op == "read_range":
            assert np.array_equal(got, blk[offset : offset + length])
            assert not got.flags.writeable
            assert ghost_got.size == length
            continue
        if op in ("write_block", "install", "write_range"):
            blk[offset : offset + length] = data
        else:
            blk[offset : offset + length] ^= data
        cov.setdefault(key, IntervalSet()).add(offset, offset + length)
    for key in KEYS:
        assert (key in byte) == (key in ghost) == (key in ref)
        expect = ref.get(key)
        got = byte.peek(key)
        assert (got is None) if expect is None else np.array_equal(got, expect)
        assert ghost.covered(key).intervals() == cov.get(key, IntervalSet()).intervals()
    assert len(byte) == len(ghost) == len(ref)
    assert sorted(byte) == sorted(ghost) == sorted(ref)


def test_a_grow_under_a_parked_xor_loses_no_delta():
    """``xor_range`` resolves the block's array after its last ``yield``.

    The first XOR parks on the device with the hull at one page; the
    second, shorter and overlapping it, finishes first and grows the hull
    to two pages (a new array).  Had the first taken its array before the
    wait, its delta would land in the discarded one.
    """
    sim, dev, store = make_store(block_size=4 * PAGE)
    base = _payload(PAGE, 1)
    store.fold_xor("p", 0, base)  # hull: page 0
    d1 = _payload(3000, 2)        # [0, 3000): the long I/O
    d2 = _payload(2500, 3)        # [2000, 4500): grows the hull to page 1
    done = []

    def xor(offset, delta, name):
        yield from store.xor_range("p", offset, delta)
        done.append(name)

    sim.process(xor(0, d1, "first"))
    sim.process(xor(2000, d2, "second"))
    sim.run()
    assert done == ["second", "first"]  # the grow happened under the park
    expect = np.zeros(4 * PAGE, dtype=np.uint8)
    expect[:PAGE] = base
    expect[:3000] ^= d1
    expect[2000:4500] ^= d2
    assert np.array_equal(store.peek("p"), expect)
