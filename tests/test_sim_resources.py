"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


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
