"""Fixtures shared by the tier-1 tests."""

import gc

import pytest


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """Every test starts from an empty cell memo, so each cell it asks the
    executor for simulates; the dict is the memo the test fills.
    ``benchmarks/`` keeps one memo per session: shared cells simulate once."""
    from repro.harness import artifacts

    fresh = {}
    monkeypatch.setattr(artifacts, "_MEMO", fresh)
    return fresh


@pytest.fixture
def declare(monkeypatch):
    """``declare(name, request, reply=ack, delivery="cached")``: a test's
    own message kind, declared like the shipped ones (a
    :class:`~repro.fs.messages.MessageKind` in ``KINDS``) for the test's
    duration only."""
    from repro.fs import messages

    def declare(name, request, reply=messages.ack, delivery="cached"):
        kind = messages.MessageKind(name, request, reply, delivery)
        monkeypatch.setitem(messages.KINDS, name, kind)
        return kind

    return declare


@pytest.fixture
def caller_gc(request):
    """Run a test with the cyclic collector in the caller state named by
    the (indirect) parameter, then put pytest's own setting back."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


@pytest.fixture
def assert_holds():
    """``assert_holds(cluster, osd_name, files)``: the OSD stores at least
    one block, and every block it stores equals the stripe encoding of
    ``files`` (``{inode: content}``), data and parity alike."""
    import numpy as np

    def check(cluster, name, files):
        k, size = cluster.config.k, cluster.config.block_size
        store = cluster.osd_by_name(name).store
        keys = list(store)
        assert keys, f"{name} stores nothing"
        for inode, stripe, j in keys:
            lo = stripe * k * size
            data = [files[inode][lo + b * size : lo + (b + 1) * size] for b in range(k)]
            want = data[j] if j < k else cluster.codec.encode(data)[j - k]
            assert np.array_equal(store.peek((inode, stripe, j)), want), (inode, stripe, j)

    return check


@pytest.fixture
def reported():
    """``reported(res)``: every field of an ``ExperimentResult`` a grid can
    report, comparable with ``==``; the recorder as its samples, the
    residency tracker as its per-phase totals and counts."""
    import dataclasses

    def fields(res):
        out = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
        rec = out.pop("update_recorder")
        out["samples"] = (list(rec.completion_times), list(rec.latencies))
        tracker = out.pop("residency")
        if tracker is not None:
            out["residency"] = {key: (p.total, p.n) for key, p in tracker._acc.items()}
        return out

    return fields
