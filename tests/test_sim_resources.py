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


def test_interrupted_waiter_leaves_the_queue():
    """An interrupt withdraws a queued request: the slot goes to the next
    live waiter instead of leaking to a process that never releases it."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    got = []

    def holder():
        yield res.request()
        yield sim.timeout(2.0)
        res.release()

    def waiter():
        yield res.request()
        got.append(("waiter", sim.now))
        res.release()

    def late():
        yield sim.timeout(1.5)
        yield res.request()
        got.append(("late", sim.now))
        res.release()

    sim.process(holder())
    victim = sim.process(waiter())
    sim.process(late())

    def interrupter():
        yield sim.timeout(1.0)
        victim.interrupt("crash")

    sim.process(interrupter())
    sim.run()
    assert got == [("late", 2.0)]
    assert res.in_use == 0 and res.queue_len == 0
