"""Integration tests for the experiment harness (tiny scales)."""

import gc
import re
from pathlib import Path

import numpy as np
import pytest

import repro.harness.artifacts as art
import repro.harness.experiment as hx
from repro.cluster import Cluster
from repro.harness import ExperimentConfig, run_experiment
from repro.update import STRATEGIES
from repro.workload import InconsistentDrainError, run_scenario


def tiny(method="tsue", **kw):
    defaults = dict(
        method=method,
        trace="ten",
        k=4,
        m=2,
        n_osds=8,
        n_clients=2,
        updates_per_client=15,
        block_size=16 * 1024,
        stripes_per_file=4,
        seed=1,
        verify=True,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_experiment_returns_complete_result():
    res = run_experiment(tiny())
    assert res.n_updates == 30
    assert res.horizon > 0
    assert res.agg_iops == pytest.approx(res.n_updates / res.horizon)
    assert res.mean_latency > 0
    assert res.p99_latency >= res.mean_latency
    assert res.rw_ops > 0 and res.net_bytes > 0
    assert res.consistent is True
    assert res.residency is not None  # tsue extras
    assert res.peak_log_memory > 0


def test_run_experiment_non_tsue_has_no_residency():
    res = run_experiment(tiny(method="fo"))
    assert res.residency is None
    assert res.peak_log_memory == 0
    assert res.consistent is True


def test_determinism_same_seed():
    a = run_experiment(tiny(verify=False))
    b = run_experiment(tiny(verify=False))
    assert a.horizon == b.horizon
    assert a.rw_ops == b.rw_ops
    assert a.net_bytes == b.net_bytes


def test_seed_changes_results():
    a = run_experiment(tiny(verify=False, seed=1))
    b = run_experiment(tiny(verify=False, seed=2))
    assert a.horizon != b.horizon


def test_unknown_trace_rejected():
    with pytest.raises(ValueError, match="unknown trace"):
        run_experiment(tiny(trace="gcs"))


def test_msr_trace_and_hdd_path():
    res = run_experiment(
        tiny(method="tsue", trace="msr:hm0", device_kind="hdd", updates_per_client=10)
    )
    assert res.consistent is True


def test_fig5_panel_tiny():
    panel = art.run_fig5(
        4, 2, "ten", clients=(2,), updates_per_client=10, methods=("fo", "tsue"),
    )
    assert set(panel.series) == {"fo", "tsue"}
    assert all(len(v) == 1 for v in panel.series.values())
    assert set(panel.cells) == {(2, "fo"), (2, "tsue")}
    assert panel.series["tsue"][0] == panel.cells[2, "tsue"].agg_iops
    assert "RS(4,2)" in panel.render()


def test_result_gb_properties():
    res = run_experiment(tiny(method="fo", verify=False))
    assert res.net_gb == pytest.approx(res.net_bytes / (1 << 30))
    assert res.rw_gb == pytest.approx(res.rw_bytes / (1 << 30))
    assert res.overwrite_gb == pytest.approx(res.overwrite_bytes / (1 << 30))


# ----------------------------------------------------------------------
# collector ownership: the runners pause the cyclic GC from build to gates
# ----------------------------------------------------------------------
@pytest.fixture
def built(monkeypatch):
    """Keep every cluster a runner builds, with the collector state it was
    built under.  Wraps ``repro.harness.experiment.build_cluster`` the way
    the frozen perf benchmark does: both runners must resolve it through
    that module attribute at call time."""
    records = []
    build = hx.build_cluster

    def keeping(cfg):
        cluster = build(cfg)
        records.append((cluster, gc.isenabled()))
        return cluster

    monkeypatch.setattr(hx, "build_cluster", keeping)
    return records


def _run_steady(method="tsue"):
    return run_scenario("steady", method=method, n_clients=2, requests_per_client=30)


# Every caller of the run protocol, each returning its own gate verdict.
_RUNNERS = {
    "run_experiment": lambda: run_experiment(tiny()).consistent,
    "run_scenario": lambda: _run_steady().consistent,
    "fig8b_cell": lambda: art.run_recovery(ExperimentConfig(
        method="tsue", trace="msr:hm0", k=6, m=4, device_kind="hdd", n_clients=2,
        updates_per_client=20, stripes_per_file=24, seed=3, verify=False,
        strategy_params=art.FIG8B_TSUE,
    )).correct,
}


@pytest.mark.parametrize("caller_gc", [True, False], indirect=True)
@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_runner_pauses_collector_and_restores_callers_state(caller_gc, runner, built):
    assert _RUNNERS[runner]() is True
    # Exactly one cluster, built through the module attribute, under the pause.
    assert [paused for _, paused in built] == [False]
    assert gc.isenabled() is caller_gc


def test_shared_cells_simulate_once(built, monkeypatch):
    """Table 1 and the lifespan comparison reduce the same runs: after
    Table 1, the lifespan grid at the same sizes builds no cluster."""
    monkeypatch.setattr(art, "_CELLS", {})
    sizes = dict(n_clients=2, updates_per_client=10, methods=("fo", "tsue"))
    table1 = art.run_table1(**sizes)
    assert len(built) == 2
    lifespan = art.run_lifespan(**sizes)
    assert len(built) == 2
    assert lifespan.cells["TSUE", "erase ops"] is table1.cells["TSUE", "R/W Num."]
    # A sweep's columns over one config are one run, too.
    assert len({id(run) for run in table1.cells.values()}) == 2


@pytest.mark.parametrize("caller_gc", [True, False], indirect=True)
def test_runner_restores_collector_when_a_gate_trips(caller_gc, built, monkeypatch):
    monkeypatch.setattr(Cluster, "stripe_consistent", lambda self, inode, stripe: False)
    with pytest.raises(InconsistentDrainError):
        _run_steady()
    assert gc.isenabled() is caller_gc
    # run_experiment reports its gate instead of raising; an exception from
    # inside the paused region (after the build) takes the same exit.
    assert run_experiment(tiny()).consistent is False
    assert gc.isenabled() is caller_gc
    with pytest.raises(ValueError, match="file size"):
        run_experiment(tiny(stripes_per_file=0))
    assert len(built) == 3
    assert gc.isenabled() is caller_gc
    # Invalid input never reaches the build (and leaves the collector alone).
    with pytest.raises(ValueError, match="unknown trace"):
        run_experiment(tiny(trace="nope"))
    assert len(built) == 3
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("argv", [
    ["run", "--clients", "0", "--updates", "2"],
    ["run", "--clients", "-1"],
    ["run", "--updates", "-3"],
    ["run", "--trace", "bogus"],
    ["run", "--trace", "msr:bogus"],
    ["scenario", "nope"],
    ["scenario", "steady", "--clients", "0"],
    ["scenario", "steady", "--requests", "-3"],
    ["bench", "--scenarios", "steady", "--clients", "0", "--methods"],
], ids=" ".join)
def test_cli_rejects_invalid_sizes_and_traces_before_building(argv, built, capsys):
    from repro.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert built == []


def test_protocol_steps_are_written_once_in_src():
    """One place builds a cluster, one starts it, one drives a kernel."""
    src = Path(__file__).resolve().parents[1] / "src"

    def sites(pattern, skip=()):
        found = re.compile(pattern)
        return [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if not any(part in skip for part in path.relative_to(src).parts)
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if found.search(line)
        ]

    assert len(sites(r"\bCluster\(", skip=("cluster",))) == 1
    assert len(sites(r"\bcluster\.start\(\)", skip=("cluster",))) == 1
    assert len(sites(r"(?<!def )\brun_until_fired\(")) == 1
    assert sites(
        r"def (run_all_scenarios|run_method_sweep|_run_until|drive_to_completion)\b"
    ) == []
    # One parity-apply handler, and the strategies' pending ledger lives
    # in the base class.
    assert len(sites(r'register\("parity_apply"')) == 1
    assert [s for s in sites(r"\b_inflight_") if s.startswith("repro/update/")] == []

    # One concurrent-RPC barrier (``RpcHost.fan_out``).  The spawns left
    # by hand interleave with yields that a barrier would reorder.
    spawn = re.compile(r"sim\.process\(\s*(?:#[^\n]*\n\s*)*[\w.]*\brpc(?:_with_retry)?\(")
    enclosing = re.compile(r"def (\w+)")
    by_hand = sorted(
        f"{path.relative_to(src)}:{enclosing.findall(text, 0, m.start())[-1]}"
        for path in src.rglob("*.py")
        if path.relative_to(src).as_posix() != "repro/fs/messages.py"
        for text in [path.read_text()]
        for m in spawn.finditer(text)
    )
    assert by_hand == [
        "repro/tsue/engine.py:_recycle_delta_stripe",  # own share appended in between
        "repro/update/cord.py:_apply_snapshot",  # own share applied in between
        "repro/update/fl.py:_recycle_block",  # ships overlap the next RMW
    ]


@pytest.mark.parametrize("method", sorted(STRATEGIES))
def test_fault_free_run_leaves_nothing_for_the_collector(method, built):
    """The assumption the pause rests on: a fault-free run makes no cyclic
    garbage — reference counting frees everything the run discards, so the
    collections the pause suppresses would have reclaimed nothing."""
    gc.collect()
    assert _run_steady(method).consistent is True
    assert len(built) == 1  # the cluster is alive: it is not the garbage
    assert gc.collect() == 0


def test_verify_shadow_accumulates_per_block_and_catches_a_flipped_byte(built, monkeypatch):
    calls = []
    verify = hx._verify
    monkeypatch.setattr(hx, "_verify", lambda *a: calls.append(a) or verify(*a))
    # 40 updates per client on a 256 KiB file: many extents land in the
    # same block, so the shadow must keep writing into the block it built
    # for the first of them.
    assert run_experiment(tiny(updates_per_client=40)).consistent is True
    ((cluster, cfg, replayers),) = calls
    assert cluster is built[0][0]
    store, key = next(
        (osd.store, key) for osd in cluster.osds for key in osd.store
        if key[2] < cfg.k and osd.store.peek(key).any()
    )
    at = int(np.flatnonzero(store.peek(key))[0])
    store.fold_xor(key, at, np.array([0xFF], dtype=np.uint8))
    assert verify(cluster, cfg, replayers) is False
