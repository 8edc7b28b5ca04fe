"""The parallel bench orchestrator: ``--jobs N`` must be invisible.

Every scenario x method cell is an isolated simulator and a pure function
of its arguments, so fanning the rows over a process pool may change wall
time only — the merged JSON payload (minus the machine-dependent ``perf``
section) must be byte-identical to the serial reference path, with row
order independent of worker completion order.  Also covers the atomic
``--json`` write, the --jobs flag validation, and a fast slice of
``--check-baseline`` run under two string-hash seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).parents[1]


def _bench(tmp_path, tag, jobs, extra=()):
    out = tmp_path / f"bench-{tag}.json"
    rc = cli.main(
        [
            "bench",
            "--clients", "2",
            "--requests", "20",
            "--scenarios", "steady", "hot_stripe", "scale_out", "fail_slow",
            "--methods", "tsue", "fl",
            "--jobs", str(jobs),
            "--json", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return json.loads(out.read_text())


def _sans_perf(payload):
    return {k: v for k, v in payload.items() if k != "perf"}


def test_jobs_output_identical_to_serial(tmp_path, memo):
    serial = _bench(tmp_path, "serial", 1)
    # The memo would hand the second run the first's cells: empty it, so
    # the pooled run simulates all seven cells itself.
    memo.clear()
    pooled = _bench(tmp_path, "pooled", 3)
    assert len(memo) == 7
    assert _sans_perf(pooled) == _sans_perf(serial)
    # Both runs carry a perf section for every simulated registry row.
    assert set(pooled["perf"]) == set(serial["perf"])


def test_jobs_check_baseline_round_trip(tmp_path, memo):
    """A --jobs N run passes --check-baseline against a serial baseline."""
    out = tmp_path / "base.json"
    args = [
        "bench", "--clients", "2", "--requests", "15",
        "--scenarios", "steady", "hot_stripe", "lossy_cluster",
        "--methods", "tsue",
        "--json", str(out),
    ]
    assert cli.main(args + ["--jobs", "1"]) == 0
    memo.clear()
    assert cli.main(args + ["--jobs", "2", "--check-baseline", str(out)]) == 0
    assert len(memo) == 3


def test_jobs_flag_validation(capsys):
    base = ["bench", "--scenarios", "steady", "--methods"]
    assert cli.main(base + ["--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_json_write_is_atomic(tmp_path, monkeypatch):
    """A crash mid-serialisation must not clobber the existing baseline."""
    out = tmp_path / "bench.json"
    out.write_text('{"sentinel": true}\n')

    def boom(*a, **k):
        raise RuntimeError("simulated crash mid-dump")

    monkeypatch.setattr(json, "dump", boom)
    with pytest.raises(RuntimeError, match="mid-dump"):
        cli.main(
            [
                "bench", "--clients", "2", "--requests", "5",
                "--scenarios", "steady", "--methods",
                "--json", str(out),
            ]
        )
    monkeypatch.undo()
    # Old content intact, no temp litter.
    assert json.loads(out.read_text()) == {"sentinel": True}
    assert list(tmp_path.glob("*.tmp")) == []


def test_hot_stripe_rows_match_the_baseline_under_two_hash_seeds(tmp_path):
    """A 5 s slice of ``repro bench --check-baseline``: the ``hot_stripe``
    sweep (every method on the most lock-contended cell) reproduces its
    committed rows in two interpreters whose string-hash seeds differ.

    It is the gate for two bug classes no other test sees
    (``docs/lint_audit.md``): a wait added under a stripe lock moves
    timing the parity gates cannot see, and an iteration over a set of
    strings makes rows depend on the hash seed, which forked ``--jobs``
    workers share with their parent.
    """
    baseline = json.loads((ROOT / "BENCH_scenarios.json").read_text())
    for seed in ("1", "2"):
        out = tmp_path / f"hot-{seed}.json"
        subprocess.run(
            [sys.executable, "-m", "repro", "bench",
             "--scenarios", "hot_stripe", "--json", str(out)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                 "PYTHONHASHSEED": seed},
            capture_output=True, check=True,
        )
        rows = json.loads(out.read_text())
        assert rows["scenarios"]["hot_stripe"] == \
            baseline["scenarios"]["hot_stripe"], seed
        assert rows["methods"] == baseline["methods"], seed
