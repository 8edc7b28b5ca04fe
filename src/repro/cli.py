"""Command-line runner: ``python -m repro <subcommand>``.

:func:`main` parses and dispatches; each ``_cmd_*`` function is one command.
Subcommands map one-to-one onto the paper's artifacts plus free-form cells;
every artifact command prints the ``Grid`` of its ``repro.harness.artifacts``
runner:

* ``run``    — one experiment cell (method x trace x geometry x clients);
* ``fig5``   — one throughput panel;
* ``fig6a`` / ``fig6b`` — recycle-overhead series / memory sweep;
* ``fig7``   — the O1..O5 breakdown;
* ``fig8a`` / ``fig8b`` — HDD throughput / recovery bandwidth;
* ``table1`` / ``table2`` — workload counters / residency;
* ``lifespan`` — flash wear comparison;
* ``scenario`` — one named open-loop workload scenario, failure and
  live-change axes included (``scenario list`` enumerates them);
* ``bench`` — a selection of scenarios, with an optional JSON baseline.
  One rule selects everything: every ``--scenarios`` name (default: the
  whole registry) runs once on ``tsue``, and the sweep scenarios among them
  (``repro.workload.results.SWEEP_SECTIONS``) once more per ``--methods``
  entry (default: all seven; no values = no sweeps).

Exit codes: 2 for invalid input (one line on stderr, nothing simulated),
1 for a tripped drain/scrub gate (``FAIL``), 3 for baseline drift.
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="one experiment cell")
    run.add_argument("--method", default="tsue",
                     choices=["fo", "fl", "pl", "plr", "parix", "cord", "tsue"])
    run.add_argument("--trace", default="ten",
                     help='"ali", "ten" or "msr:<volume>"')
    run.add_argument("--k", type=int, default=6)
    run.add_argument("--m", type=int, default=2)
    run.add_argument("--device", default="ssd", choices=["ssd", "hdd"])
    run.add_argument("--no-verify", action="store_true", help="ghost plane: sizes only, no check")
    run.add_argument("--clients", type=int, default=16)
    run.add_argument("--updates", type=int, default=100)
    run.add_argument("--seed", type=int, default=7)

    f5 = sub.add_parser("fig5", help="one Fig.5 throughput panel")
    f5.add_argument("--trace", default="ten", choices=["ali", "ten"])
    f5.add_argument("--k", type=int, default=6)
    f5.add_argument("--m", type=int, default=2)
    f5.add_argument("--client-sweep", type=int, nargs="+", default=[4, 16, 64])
    f5.add_argument("--updates", type=int, default=100)
    f5.add_argument("--seed", type=int, default=7)

    sub.add_parser("fig6a", help="recycle overhead over time")
    sub.add_parser("fig6b", help="throughput/memory vs unit quota")

    f7 = sub.add_parser("fig7", help="O1..O5 breakdown")
    f7.add_argument("--trace", default="ten", choices=["ali", "ten"])
    f7.add_argument("--m", type=int, default=4)

    sub.add_parser("fig8a", help="HDD update throughput (MSR volumes)")
    sub.add_parser("fig8b", help="HDD recovery bandwidth")
    sub.add_parser("table1", help="storage workload & network traffic")
    sub.add_parser("table2", help="residency per log layer")
    sub.add_parser("lifespan", help="flash wear comparison")

    sc = sub.add_parser("scenario", help="one named open-loop workload scenario")
    sc.add_argument("name", help='scenario name, or "list" to enumerate')
    sc.add_argument("--method", default="tsue",
                    choices=["fo", "fl", "pl", "plr", "parix", "cord", "tsue"])
    sc.add_argument("--device", default="ssd", choices=["ssd", "hdd"])
    sc.add_argument("--clients", type=int, default=None,
                    help="override the scenario's native client count "
                         "(default: scenario-defined, 4 for smoke rows)")
    sc.add_argument("--requests", type=int, default=None,
                    help="override requests per client (default: scenario-"
                         "defined, 200 for smoke rows)")
    sc.add_argument("--seed", type=int, default=7)

    be = sub.add_parser("bench", help="run every scenario; smoke perf baseline")
    be.add_argument("--clients", type=int, default=None,
                    help="override every scenario's client count (default: "
                         "native sizes — 4 for smoke rows, 32 for scale_up)")
    be.add_argument("--requests", type=int, default=None,
                    help="override requests per client (default: native "
                         "sizes — 200 for smoke rows, 2000 for scale_up)")
    be.add_argument("--seed", type=int, default=7)
    be.add_argument("--scenarios", nargs="+", default=None, metavar="NAME",
                    help="scenarios to run (default: all); each runs on "
                         "tsue, and the sweep scenarios among them "
                         "(hot_stripe, rebuild_under_load, scale_up, "
                         "scale_out, the live-change set) once more per "
                         "--methods entry")
    be.add_argument("--methods", nargs="*", default=None, metavar="METHOD",
                    help="methods the selected sweep scenarios run over "
                         "(default: all seven; pass with no values to skip "
                         "the sweeps)")
    be.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                    help="fan scenario x method rows out over N worker "
                         "processes (default and cap: the usable cores; "
                         "each row is an isolated simulator and rows are "
                         "merged deterministically, so output is identical "
                         "to --jobs 1, the serial in-process reference path)")
    be.add_argument("--json", nargs="?", const="BENCH_scenarios.json",
                    default=None, metavar="PATH",
                    help="also write a JSON baseline (default PATH: "
                         "BENCH_scenarios.json; written atomically via "
                         "temp file + rename)")
    be.add_argument("--check-baseline", nargs="?",
                    const="BENCH_scenarios.json", default=None,
                    metavar="PATH",
                    help="after the run, diff the simulated-output rows "
                         "(every section but the machine-dependent perf "
                         "one) against an existing baseline, reporting the "
                         "first differing JSON leaf cells; exit 3 on drift")
    return ap


def _cmd_run(args) -> int:
    from repro import harness

    cfg = harness.ExperimentConfig(
        method=args.method,
        trace=args.trace,
        k=args.k,
        m=args.m,
        device_kind=args.device,
        n_clients=args.clients,
        updates_per_client=args.updates,
        seed=args.seed,
        verify=not args.no_verify,
    )
    res = harness.run_experiment(cfg)
    print(f"method={args.method} trace={args.trace} RS({args.k},{args.m}) "
          f"{args.clients} clients")
    print(f"  aggregate IOPS : {res.agg_iops:,.0f}")
    print(f"  mean latency   : {res.mean_latency * 1e6:,.1f} us "
          f"(p99 {res.p99_latency * 1e6:,.1f} us)")
    print(f"  device ops     : {res.rw_ops:,} "
          f"({res.overwrite_ops:,} overwrites)")
    print(f"  network        : {res.net_bytes / 1e6:,.1f} MB")
    print(f"  erase ops      : {res.erase_ops:,.1f}")
    if res.consistent is not None:
        print(f"  verified       : {res.consistent}")
        return 0 if res.consistent else 1
    return 0


def _cmd_scenario(args) -> int:
    from repro.workload import SCENARIOS, run_scenario

    if args.name == "list":
        for name in sorted(SCENARIOS):
            print(f"{name:12s} {SCENARIOS[name].description}")
        return 0
    res = run_scenario(
        args.name,
        seed=args.seed,
        n_clients=args.clients,
        requests_per_client=args.requests,
        method=args.method,
        device=args.device,
    )
    print(res.render())
    return 0


def _cmd_bench(args) -> int:
    import json

    from repro.workload import METHODS, SCENARIOS, run_bench_cells
    from repro.workload.results import (
        SWEEP_SECTIONS,
        baseline_drift,
        bench_rows,
        results_to_json,
        write_json,
    )

    # Validate selectors before simulating anything: a typo must not
    # cost minutes of registry runs and end in a raw traceback.
    for kind, given, known in (("scenario", args.scenarios, sorted(SCENARIOS)),
                               ("method", args.methods, METHODS)):
        unknown = [x for x in given or () if x not in known]
        if unknown:
            print(f"unknown {kind}(s) {unknown}; known: {', '.join(known)}",
                  file=sys.stderr)
            return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2

    # Load the baseline BEFORE simulating (fail fast on a bad path) and
    # before any --json write — `bench --json --check-baseline` with
    # both at the default path must diff old vs new, not new vs itself.
    baseline = None
    if args.check_baseline:
        try:
            with open(args.check_baseline) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {args.check_baseline}: {exc}",
                  file=sys.stderr)
            return 2

    names = sorted(SCENARIOS) if args.scenarios is None else args.scenarios
    methods = tuple(METHODS if args.methods is None else args.methods)
    cells = run_bench_cells(
        bench_rows(names, methods), jobs=args.jobs, seed=args.seed,
        n_clients=args.clients, requests_per_client=args.requests,
    )
    results = [cells[(n, "tsue")] for n in names]
    sweeps = {
        s: [cells[(s, m)] for m in methods]
        for s in SWEEP_SECTIONS if s in names and methods
    }

    for res in results:
        print(res.render())
    for s, rows in sweeps.items():
        print(f"--- {SWEEP_SECTIONS[s][1]} ({s}) ---")
        for res in rows:
            print(res.render())
    payload = results_to_json(results, sweeps)
    if args.json:
        write_json(payload, args.json)
        print(f"wrote {args.json}")
    if baseline is not None:
        drift = baseline_drift(baseline, payload)
        if drift:
            print(f"BASELINE DRIFT ({len(drift)} leaf cell(s) changed):",
                  file=sys.stderr)
            for line in drift[:40]:
                print(f"  {line}", file=sys.stderr)
            if len(drift) > 40:
                print(f"  ... and {len(drift) - 40} more", file=sys.stderr)
            return 3
        print(f"baseline check ok against {args.check_baseline}")
    return 0


def _cmd_artifact(args) -> int:
    """fig5 .. lifespan: run one paper artifact and print its grid."""
    from repro.harness import artifacts

    if args.cmd == "fig5":
        out = artifacts.run_fig5(
            args.k, args.m, args.trace, clients=tuple(args.client_sweep),
            updates_per_client=args.updates, seed=args.seed,
        )
    elif args.cmd == "fig7":
        out = artifacts.run_fig7(trace=args.trace, m=args.m)
    else:
        out = getattr(artifacts, f"run_{args.cmd}")()
    print(out.render())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Engine imports are deferred into the commands so `--help` stays
    # instant and numpy-free.
    command = {
        "run": _cmd_run, "scenario": _cmd_scenario, "bench": _cmd_bench,
    }.get(args.cmd, _cmd_artifact)
    from repro.harness.experiment import InvalidRunError, LostUpdateError
    from repro.workload import InconsistentDrainError, PostRecoveryScrubError

    try:
        return command(args)
    except (InconsistentDrainError, PostRecoveryScrubError, LostUpdateError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except InvalidRunError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
