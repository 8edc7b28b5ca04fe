"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store


def test_resource_serializes_single_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    starts = []

    def worker(sim, res, i):
        yield res.request()
        starts.append((i, sim.now))
        yield sim.timeout(2.0)
        res.release()

    for i in range(3):
        sim.process(worker(sim, res, i))
    sim.run()
    assert starts == [(0, 0.0), (1, 2.0), (2, 4.0)]


def test_resource_parallelism_matches_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def worker(sim, res, i):
        yield res.request()
        starts.append((i, sim.now))
        yield sim.timeout(1.0)
        res.release()

    for i in range(4):
        sim.process(worker(sim, res, i))
    sim.run()
    assert starts == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 1.0)]


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, i, delay):
        yield sim.timeout(delay)
        yield res.request()
        order.append(i)
        yield sim.timeout(1.0)
        res.release()

    sim.process(worker(sim, res, "late", 0.2))
    sim.process(worker(sim, res, "early", 0.1))
    sim.process(worker(sim, res, "first", 0.0))
    sim.run()
    assert order == ["first", "early", "late"]


def test_release_of_idle_resource_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_store_put_before_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")

    def getter(sim, store):
        item = yield store.get()
        return item

    p = sim.process(getter(sim, store))
    sim.run()
    assert p.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def getter(sim, store):
        item = yield store.get()
        return (sim.now, item)

    def putter(sim, store):
        yield sim.timeout(3.0)
        store.put("late")

    g = sim.process(getter(sim, store))
    sim.process(putter(sim, store))
    sim.run()
    assert g.value == (3.0, "late")


def test_store_fifo_ordering_of_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, store, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(getter(sim, store, "g1"))
    sim.process(getter(sim, store, "g2"))

    def putter(sim, store):
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    sim.process(putter(sim, store))
    sim.run()
    assert got == [("g1", "a"), ("g2", "b")]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put(1)
    store.put(2)
    assert store.try_get() == 1
    assert len(store) == 1
