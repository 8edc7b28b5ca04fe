"""Smoke test of the perf benchmark: every workload, tiny, through the child path.

Sizes are a few requests per client, so the whole file stays within seconds;
what is checked is the plumbing (metric names against BENCHMARK.json, gates
counted as failures), not any number.
"""

import json
import re
import subprocess
import sys
import textwrap

import pytest

import run
from workloads import WORKLOADS

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = {
    "ali_closed_tsue": 6,
    "ali_closed_plr": 6,
    "ghost_scaleout_tsue": 1,
    "faulty_mixed_tsue": 120,
}
# Computed by the parent from a plain and a traced round, not by a child.
PARENT_METRICS = {"trace.overhead_ratio", "harness.run_cpu_s"}


def test_spec_declares_the_workloads_and_wellformed_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert SPEC["paths"] == ["benchmarks/perf"]
    declared = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [m["name"] for m in declared]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert set(run.HOST_METRICS) <= {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_round_reports_every_declared_metric(name):
    record = run.run_child(name, seed=3, requests=TINY[name], profile=True)
    assert record["gate"] is None
    assert record["completed"] == record["attempted"] == WORKLOADS[name].attempted(TINY[name])
    assert set(record["per_layer"]) | PARENT_METRICS == {m["name"] for m in SPEC["per_layer"]}
    record["host"].update(speed_cpu=1.0, speed_wall=1.0)
    rounds = [record] * run.ROUNDS
    metrics = run.end_to_end(rounds, rounds)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["completed_frac"] == 1.0
    assert all(v > 0 for v in metrics.values())


def test_tripped_gate_fails_every_operation_and_the_exit_code(monkeypatch, capsys):
    # A child whose runner raises the program's own gate exception.
    script = textwrap.dedent(f"""
        import dataclasses, sys
        sys.path.insert(0, {str(run.HERE)!r})
        import run

        def inconsistent(seed, requests):
            from repro.workload import InconsistentDrainError
            raise InconsistentDrainError("injected by test_perf_smoke")

        w = run.WORKLOADS["ali_closed_tsue"]
        run.WORKLOADS[w.name] = dataclasses.replace(w, run=inconsistent)
        sys.exit(run.main(["--child", "--workload", w.name, "--seed", "1",
                           "--requests", "4", "--profile", "0"]))
    """)
    done = subprocess.run([sys.executable, "-c", script], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 1
    assert record["gate"].startswith("InconsistentDrainError")
    assert record["completed"] == 0

    # The parent counts the whole round as failed and exits non-zero too.
    monkeypatch.setattr(run, "run_child", lambda *a, **k: json.loads(json.dumps(record)))
    assert run.main(["--workload", "ali_closed_tsue", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == record["attempted"]
    assert result["metrics"]["completed_frac"]["value"] == 0.0
