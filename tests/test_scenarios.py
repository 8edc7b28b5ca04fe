"""End-to-end tests for the named scenario registry and its CLI."""

import json

import pytest

from repro.workload import (
    METHODS,
    SCENARIOS,
    Scenario,
    PoissonArrivals,
    register_scenario,
    results_to_json,
    run_bench_cells,
    run_scenario,
)

SMOKE = dict(n_clients=2, requests_per_client=40)


def test_required_scenarios_registered():
    assert {"steady", "burst", "diurnal", "mixed_rw", "hot_stripe"} <= set(SCENARIOS)


def test_register_rejects_duplicates():
    with pytest.raises(ValueError):
        register_scenario(Scenario(
            name="steady", description="dup",
            make_arrivals=lambda: PoissonArrivals(1.0),
        ))


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("nope", **SMOKE)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_end_to_end(name):
    res = run_scenario(name, **SMOKE)
    assert res.updates > 0
    assert res.horizon > 0 and res.iops > 0
    assert res.consistent
    # Open-loop pipelining genuinely overlaps requests in every scenario.
    assert res.peak_inflight > 1
    assert 0 < res.p50_latency <= res.p95_latency <= res.p99_latency
    # Default method is tsue, which never takes stripe locks.
    assert res.method == "tsue"
    assert res.lock_acquisitions == 0 and res.lock_contended == 0
    if SCENARIOS[name].read_fraction > 0:
        assert res.reads > 0
    else:
        assert res.reads == 0
    assert res.updates + res.reads == SMOKE["n_clients"] * SMOKE["requests_per_client"]


@pytest.mark.parametrize("method", METHODS)
def test_every_method_drains_consistent_under_pipelining(method):
    """The PR-2 acceptance bar: iodepth >= 8 pipelining (16 on hot_stripe)
    leaves every method parity-consistent — run_scenario would raise
    InconsistentDrainError otherwise."""
    for name in ("steady", "hot_stripe"):
        res = run_scenario(name, method=method, **SMOKE)
        assert res.consistent
        assert SCENARIOS[name].iodepth >= 8
        if method in ("fl", "tsue"):
            assert res.lock_acquisitions == 0
        else:
            # One lock grant per OSD-level extent update; a client update
            # spanning several blocks takes several locks.
            assert res.lock_acquisitions >= res.updates
            assert res.lock_wait_mean >= 0.0


def test_hot_stripe_contends_for_in_place_methods():
    res = run_scenario("hot_stripe", method="fo", **SMOKE)
    assert res.lock_contended > 0
    assert res.lock_wait_p99 > 0.0
    assert res.lock_wait_p99 >= res.lock_wait_mean


def test_scenarios_deterministic_for_fixed_seed():
    a = run_scenario("burst", seed=11, **SMOKE)
    b = run_scenario("burst", seed=11, **SMOKE)
    assert a.to_dict() == b.to_dict()
    c = run_scenario("burst", seed=12, **SMOKE)
    assert c.to_dict() != a.to_dict()


def test_run_bench_cells_row_order_and_json_payload():
    # Keyed by cell in row order, whatever order the names come in.
    cells = run_bench_cells([("steady", "tsue"), ("mixed_rw", "tsue")], **SMOKE)
    assert list(cells) == [("steady", "tsue"), ("mixed_rw", "tsue")]
    payload = results_to_json(list(cells.values()))
    assert payload["bench"] == "scenarios"
    assert set(payload["scenarios"]) == {"steady", "mixed_rw"}
    assert "methods" not in payload
    doc = json.dumps(payload)  # must be JSON-serialisable
    assert "p99_latency_us" in doc
    assert "lock_wait_p99_us" in doc


def test_method_sweep_rows_and_json_section():
    from repro.workload.results import bench_rows

    rows = bench_rows(["steady", "hot_stripe"], ["fo", "tsue"])
    # Registry rows on tsue first, then the swept scenario per method.
    assert rows == [("steady", "tsue"), ("hot_stripe", "tsue"),
                    ("hot_stripe", "fo"), ("hot_stripe", "tsue")]
    cells = run_bench_cells(rows, **SMOKE)
    sweep = [cells[("hot_stripe", m)] for m in ("fo", "tsue")]
    assert [r.method for r in sweep] == ["fo", "tsue"]
    assert all(r.name == "hot_stripe" and r.consistent for r in sweep)
    payload = results_to_json([], {"hot_stripe": sweep})
    assert set(payload["methods"]) == {"fo", "tsue"}
    assert payload["methods"]["fo"]["lock_acquisitions"] > 0
    assert payload["methods"]["tsue"]["lock_acquisitions"] == 0
    assert set(payload["perf"]) == {"hot_stripe/fo", "hot_stripe/tsue"}
    # Nested sections: a live-change sweep lands under elastic.<scenario>.
    nested = results_to_json([], {"fail_slow": [cells[("steady", "tsue")]]})
    assert set(nested["elastic"]) == {"fail_slow"}
    assert set(nested["elastic"]["fail_slow"]) == {"tsue"}


def test_run_bench_cells_simulates_a_duplicate_cell_once(monkeypatch):
    import repro.workload.runner as runner

    ran = []
    real = runner.run_scenario
    monkeypatch.setattr(
        runner, "run_scenario",
        lambda name, **kw: ran.append((name, kw["method"])) or real(name, **kw),
    )
    # The hot_stripe/tsue registry row reappears in the sweep.  In-process
    # (jobs=1), so the calls are counted here.
    cells = run_bench_cells(
        [("hot_stripe", "tsue"), ("hot_stripe", "fl"), ("hot_stripe", "tsue")],
        jobs=1, **SMOKE,
    )
    assert ran == [("hot_stripe", "tsue"), ("hot_stripe", "fl")]
    assert list(cells) == ran


def test_methods_tuple_covers_the_strategy_registry():
    from repro.update import STRATEGIES

    assert set(METHODS) == set(STRATEGIES)
    assert len(METHODS) == len(STRATEGIES)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_scenario_runs_each_name(capsys):
    from repro.cli import main

    for name in ("steady", "burst", "diurnal", "mixed_rw"):
        rc = main(["scenario", name, "--clients", "2", "--requests", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"scenario={name}" in out
        assert "p99" in out and "consistent : True" in out


def test_cli_scenario_list(capsys):
    from repro.cli import main

    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_cli_bench_writes_json_baseline(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "BENCH_scenarios.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--methods", "fo", "tsue", "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-method rows (hot_stripe)" in out
    payload = json.loads(path.read_text())
    assert set(payload["scenarios"]) >= {"steady", "burst", "diurnal",
                                         "mixed_rw", "hot_stripe"}
    for entry in payload["scenarios"].values():
        assert entry["consistent"] is True
        assert entry["iops"] > 0
        assert entry["lock_wait_mean_us"] >= 0.0
    assert set(payload["methods"]) == {"fo", "tsue"}


def test_cli_bench_scale_out_rows(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bench.json"
    base = ["bench", "--clients", "2", "--requests", "10",
            "--methods", "tsue", "fl", "--json", str(path)]
    rc = main(base + ["--scenarios", "steady", "scale_out"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ghost-plane cluster rows (scale_out)" in out
    payload = json.loads(path.read_text())
    assert set(payload["scale_out"]) == {"tsue", "fl"}
    for row in payload["scale_out"].values():
        assert row["ghost_dataplane"] is True
        assert row["consistent"] is True
    assert payload["perf"]["scale_out/tsue"]["ghost_dataplane"] == 1.0
    # Only the scale_out rows are on the ghost plane.
    assert "ghost_dataplane" not in payload["scenarios"]["steady"]
    assert payload["scenarios"]["scale_out"]["ghost_dataplane"] is True
    # Not selecting the scenario skips its sweep entirely.
    rc = main(base + ["--scenarios", "steady"])
    assert rc == 0
    capsys.readouterr()
    assert set(json.loads(path.read_text())) == {"bench", "scenarios", "perf"}


def test_baseline_drift_reports_leaf_paths():
    from repro.workload.results import baseline_drift as _baseline_drift

    base = {
        "scenarios": {
            "steady": {"iops": 1.0, "recovery": {"drain_s": 0.1},
                       "gone": 4},
        },
        "recovery": {"tsue": {"p99": 5.0}},
        "scale_out": {"fl": {"updates": 10}},
        "perf": {"steady": {"wall_s": 1.0}},
    }
    new = {
        "scenarios": {
            "steady": {"iops": 2.0, "recovery": {"drain_s": 0.1},
                       "fresh": 9},
            "burst": {"iops": 3.0},
        },
        "scale_out": {"fl": {"updates": 12}},
        "perf": {"steady": {"wall_s": 9.0}},
    }
    drift = _baseline_drift(base, new)
    # Leaf cells report dotted paths with old -> new values; unchanged
    # nested leaves (recovery.drain_s) stay silent.
    assert "scenarios.steady.iops: 1.0 -> 2.0" in drift
    assert "scale_out.fl.updates: 10 -> 12" in drift
    assert "scenarios.steady.gone: 4 -> <absent>" in drift
    assert "scenarios.steady.fresh: <absent> -> 9" in drift
    assert ("recovery.tsue: present in baseline, missing from this run"
            in drift)
    assert not any("drain_s" in d for d in drift)
    # New rows are additions, not drift; perf is ignored entirely.
    assert not any("burst" in d or "perf" in d for d in drift)
    assert _baseline_drift(base, base) == []


def test_cli_bench_scenario_subset_and_no_methods(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bench.json"
    rc = main(["bench", "--clients", "2", "--requests", "30",
               "--scenarios", "steady", "--methods", "--json", str(path)])
    assert rc == 0
    payload = json.loads(path.read_text())
    assert set(payload["scenarios"]) == {"steady"}
    assert "methods" not in payload
