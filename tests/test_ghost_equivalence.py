"""Ghost-plane <-> byte-plane equivalence: the tentpole safety gate.

The ghost payload plane replaces every ``np.ndarray`` payload with a
metadata-only :class:`~repro.dataplane.GhostExtent`.  Every simulated
cost is a function of payload sizes, so the two planes must be
*bit-identical* in everything the simulator outputs: kernel event
counts, per-client latency streams, completion orderings, and every
simulated row of the bench JSON.  This suite pins that per update
method on a small geometry, proves the drain-consistency gate still
holds on the ghost plane (via parity-coverage intervals), and proves
ghost mode refuses loudly wherever real bytes are required (decode,
scrub/rebuild scenarios).
"""

import dataclasses

import numpy as np
import pytest

import repro.harness.artifacts as art
from repro.dataplane import (
    GhostExtent,
    GhostMaterializationError,
    as_payload,
    assemble_overlay,
    blank_payload,
    concat_payloads,
    is_ghost,
    payload_size,
)
from repro.ec import RSCodec
from repro.harness.experiment import run_experiment
from repro.workload import METHODS, run_scenario

SMALL = dict(n_clients=2, requests_per_client=30, seed=7)


def _pair(name, method, **kw):
    byte = run_scenario(name, method=method, ghost_dataplane=False,
                        **SMALL, **kw)
    ghost = run_scenario(name, method=method, ghost_dataplane=True,
                         **SMALL, **kw)
    return byte, ghost


# ----------------------------------------------------------------------
# the equivalence property, per method
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_ghost_plane_is_bit_identical_per_method(method):
    byte, ghost = _pair("steady", method)
    # Every simulated-output cell matches: updates/reads, horizon, iops,
    # the full latency percentile set, pipelining peak and lock stats.
    b, g = byte.to_dict(), ghost.to_dict()
    assert g.pop("ghost_dataplane") is True
    assert "ghost_dataplane" not in b  # byte rows stay baseline-identical
    assert b == g
    # The kernel fired exactly the same number of events: the planes
    # walked the same event sequence, not merely similar aggregates.
    assert byte.perf["events"] == ghost.perf["events"]
    # Drain consistency held on both planes (run_scenario raises
    # InconsistentDrainError otherwise); the ghost side checked it via
    # parity-coverage intervals, with no bytes anywhere.
    assert byte.consistent and ghost.consistent


def test_ghost_plane_equivalence_under_contention():
    # hot_stripe serializes RMW methods on stripe locks: lock wait
    # streams are timing-sensitive, so equality here pins ordering too.
    byte, ghost = _pair("hot_stripe", "fo")
    assert byte.lock_contended > 0
    b, g = byte.to_dict(), ghost.to_dict()
    g.pop("ghost_dataplane")
    assert b == g
    assert byte.perf["events"] == ghost.perf["events"]


# ----------------------------------------------------------------------
# the paper's artifacts: what every grid reads, on both planes
# ----------------------------------------------------------------------
# Each grid at 4 clients x 80 updates with its own overrides: codes,
# traces, HDD devices with TSUE's three DataLog copies and no DeltaLog, log
# settings, ladder flags.  The artifacts run it on the ghost plane; each
# cell is rerun on the byte plane.
_ARTIFACTS = {
    "fig5": lambda: art.run_fig5(6, 2, "ali", clients=(4,), updates_per_client=80),
    "fig6a": lambda: art.run_fig6a(n_clients=4, updates_per_client=80, buckets=2),
    "fig6b": lambda: art.run_fig6b(quotas=(2,), n_clients=4, updates_per_client=80),
    "fig7": lambda: art.run_fig7(n_clients=4, updates_per_client=80),
    "fig8a": lambda: art.run_fig8a(volumes=("proj2",), n_clients=4, updates_per_client=80),
    "table1_lifespan": lambda: art.run_lifespan(n_clients=4, updates_per_client=80),
    "table2": lambda: art.run_table2(n_clients=4, updates_per_client=80),
    "unit_size": lambda: art.run_unit_size_ablation(unit_sizes=(256 * 1024,), n_clients=4, updates=80),
    "replica": lambda: art.run_replica_ablation(replica_counts=(1, 3), n_clients=4, updates=80),
    "index": lambda: art.run_index_ablation(n_clients=4, updates=80),
}


@pytest.mark.parametrize("grid", sorted(_ARTIFACTS))
def test_artifact_cells_are_bit_identical_on_the_byte_plane(grid, reported):
    ghost = list({id(r): r for r in _ARTIFACTS[grid]().cells.values()}.values())
    byte = art.run_cells(run_experiment, [dataclasses.replace(r.config, verify=True) for r in ghost])
    for g, b in zip(ghost, byte):
        want, got = reported(g), reported(b)
        assert want.pop("consistent") is None and got.pop("consistent") is True
        assert dataclasses.replace(want.pop("config"), verify=True) == got.pop("config")
        assert got == want


# ----------------------------------------------------------------------
# refusal: anything needing real bytes rejects the ghost plane
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["degraded_read", "rebuild_under_load",
                                  "double_fault"])
def test_fault_scenarios_refuse_ghost_plane(name):
    with pytest.raises(ValueError, match="real bytes"):
        run_scenario(name, ghost_dataplane=True, **SMALL)


def test_decode_refuses_ghost_shards():
    codec = RSCodec(2, 2)
    shards = {0: GhostExtent(8), 2: GhostExtent(8)}
    with pytest.raises(GhostMaterializationError, match="byte plane"):
        codec.decode(shards, [1])


def test_asarray_on_ghost_raises():
    with pytest.raises(GhostMaterializationError):
        np.asarray(GhostExtent(16))


# ----------------------------------------------------------------------
# GhostExtent: the numpy-duck-typed surface
# ----------------------------------------------------------------------
def test_ghost_extent_metadata_surface():
    g = GhostExtent(64, tag="wl")
    assert g.size == 64 and g.nbytes == 64 and len(g) == 64
    assert g.shape == (64,) and g.ndim == 1 and g.dtype == np.uint8
    assert is_ghost(g) and not is_ghost(np.zeros(4, dtype=np.uint8))
    assert payload_size(g) == 64
    with pytest.raises(ValueError):
        GhostExtent(-1)


def test_ghost_extent_slicing_and_xor():
    g = GhostExtent(64)
    part = g[8:24]
    assert is_ghost(part) and part.size == 16
    assert (g ^ GhostExtent(64)).size == 64
    assert (g ^ np.zeros(64, dtype=np.uint8)).size == 64
    with pytest.raises(ValueError, match="mismatch"):
        g ^ GhostExtent(63)
    with pytest.raises(ValueError, match="contiguous"):
        g[::2]
    with pytest.raises(GhostMaterializationError):
        g[3]  # element reads would need real bytes


def test_ghost_extent_write_validation():
    g = GhostExtent(32)
    gen0 = g.gen
    g[0:16] = GhostExtent(16)      # exact-length range write
    g[16:32] = np.zeros(16, dtype=np.uint8)
    g[0:32] = 0                    # scalars broadcast, as in numpy
    g[4:8] ^= GhostExtent(4)       # getitem -> ixor -> setitem chain
    assert g.gen > gen0
    with pytest.raises(ValueError, match="broadcast"):
        g[0:16] = GhostExtent(15)
    g.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        g[0:16] = GhostExtent(16)
    copy = g.copy()
    assert copy.size == g.size and copy.flags.writeable


def test_payload_helpers_cover_both_planes():
    arr = np.arange(8, dtype=np.uint8)
    assert as_payload(arr) is arr
    assert as_payload([1, 2, 3]).dtype == np.uint8
    g = GhostExtent(8)
    assert as_payload(g) is g
    assert is_ghost(blank_payload(5, ghost=True))
    assert blank_payload(5, ghost=False).sum() == 0
    assert concat_payloads([GhostExtent(3), GhostExtent(5)]).size == 8
    assert np.array_equal(concat_payloads([arr[:4], arr[4:]]), arr)
    assert concat_payloads([]).size == 0
    ghost_read = assemble_overlay(10, 100, [(100, GhostExtent(4)),
                                            (104, GhostExtent(6))])
    assert is_ghost(ghost_read) and ghost_read.size == 10
    byte_read = assemble_overlay(4, 0, [(0, arr[:4])])
    assert np.array_equal(byte_read, arr[:4])


# ----------------------------------------------------------------------
# the scale_out tier itself
# ----------------------------------------------------------------------
def test_scale_out_scenario_runs_ghost_by_default():
    res = run_scenario("scale_out", n_clients=8, requests_per_client=10,
                       seed=7)
    assert res.ghost_dataplane
    assert res.to_dict()["ghost_dataplane"] is True
    assert res.perf["ghost_dataplane"] == 1.0
    assert res.consistent and res.updates == 80
    # perf carries the peak-RSS sample the CI budget asserts against.
    assert res.perf["peak_rss_kb"] > 0
