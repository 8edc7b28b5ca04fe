#!/usr/bin/env python3
"""The perf benchmark: host cost per simulated request vs simulated statistics.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]
    python3 benchmarks/perf/run.py --check-determinism
    python3 benchmarks/perf/run.py --aa [N]

One invocation measures one workload (or, without ``--workload``, all four
in sequence).  Every measurement is a *round*: a fresh ``python`` child with
``PYTHONHASHSEED=0`` that sets up, calls the program's own runner with every
gate on, and reports one JSON record.  A run is ``ROUNDS`` rounds on the
sub-seeds ``seed * 64 + i``; their simulated results are pooled (one latency
distribution, summed counters), so simulated metrics are a pure function of
``--seed``.  Rounds then continue, cycling through the same sub-seeds, until
``--seconds`` of runner wall time have been measured; a repeated sub-seed
must reproduce its simulated results bit for bit.  A shared VM changes speed
by tens of percent over minutes, so the parent times a fixed calibration
kernel before and after every round and host times are scaled to the
reference box by it; host metrics are medians over rounds.  ``--trace 1``
instead runs one plain and one cProfile'd round and prints the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (see BENCHMARK.json).
A tripped gate marks every operation of its round failed and exits 1.
"""

import time

T_ENTRY = time.perf_counter()  # a child's set-up clock starts before `import repro`

import argparse
import cProfile
import gc
import heapq
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# End-to-end metrics that are host measurements; every other end-to-end
# metric is a pure function of (workload, seed).
HOST_METRICS = ("setup_s", "host_cpu_us_per_req", "host_wall_us_per_req", "peak_rss_mb")
# Per-layer metrics that exist only under the profiler / the device hook.
TRACE_ONLY = ("devices.busy_frac_mean", "devices.busy_frac_max")
# Rounds whose simulated results are pooled into one run's metrics.
ROUNDS = 5
# CPU seconds calibrate() takes on the quiet 2-core reference box.  Host
# times are reported as measured x CALIBRATION_REF_S / (calibration time
# around the round), i.e. in seconds of the reference box.
CALIBRATION_REF_S = 0.45
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# child: one round in this process
# ---------------------------------------------------------------------------
def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def measure(workload, seed: int, requests: int, profile: bool) -> dict:
    """Set up, run ``workload`` once through its runner, return the record."""
    sys.path.insert(0, str(SRC))
    import repro.harness.experiment as hx

    # Set-up: imports, scenario registration, and one throw-away build of
    # the exact cluster + per-client trace generation.  It also fills the
    # program's lazy caches (GF tables, coding matrices) before timing.
    cfg = workload.config(seed, requests)
    cluster = hx.build_cluster(cfg)
    for i in range(cfg.n_clients):
        cluster.register_sparse_file(1000 + i, cfg.file_size)
        cluster.add_client(f"client{i}")
        hx.make_trace(cfg, cluster.rng.get(f"trace{i}"))
    del cluster
    gc.collect()

    # Pass-through wrapper: keeps the Cluster the runner builds, so public
    # counters can be read after the run.
    captured = []
    busy = layers.DeviceBusy() if profile else None
    build_cluster = hx.build_cluster

    def capturing_build(config):
        built = build_cluster(config)
        captured.append(built)
        if busy is not None:
            busy.install(built)
        return built

    hx.build_cluster = capturing_build
    profiler = cProfile.Profile() if profile else None
    gate = outcome = None
    setup_s = time.perf_counter() - T_ENTRY
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    try:
        if profiler is not None:
            outcome = profiler.runcall(workload.run, seed, requests)
        else:
            outcome = workload.run(seed, requests)
    except Exception as exc:  # any runner failure is a tripped gate
        traceback.print_exc()
        gate = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    hx.build_cluster = build_cluster
    if gate is None and len(captured) != 1:
        gate = f"runner built {len(captured)} clusters, expected 1"

    record = {
        "workload": workload.name,
        "seed": seed,
        "requests_per_client": requests,
        "attempted": workload.attempted(requests),
        "completed": 0,
        "gate": gate,
        "host": {
            "setup_s": setup_s,
            "cpu_s": cpu_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if gate is not None:
        return record

    from repro.harness.experiment import aggregate_update_latency

    cluster = captured[0]
    record["completed"] = outcome.updates + outcome.reads
    # Raw simulated totals; the parent pools them over rounds.
    record["sim"] = {
        "horizon_s": outcome.horizon,
        "events": cluster.sim.events_fired,
        "dev_write_bytes": cluster.total_ops().write_bytes,
        "erase_ops": cluster.total_wear().erase_ops,
        "net_bytes": cluster.total_net().bytes_sent,
        "update_latency_s": aggregate_update_latency(cluster.clients).latencies.to_array().tolist(),
    }
    record["per_layer"] = layers.sim_layer_metrics(cluster, outcome, busy)
    if profiler is not None:
        host, trace = layers.fold_profile(pstats.Stats(profiler).stats, record["completed"])
        record["per_layer"].update(host)
        record["trace"] = trace
    return record


def child_main(args) -> int:
    record = measure(WORKLOADS[args.workload], args.seed, args.requests, bool(args.profile))
    print(json.dumps(record))
    return 0 if record["gate"] is None else 1


# ---------------------------------------------------------------------------
# parent: rounds in fresh children
# ---------------------------------------------------------------------------
def calibrate() -> dict:
    """Time a fixed pure-Python kernel: how fast is this host right now?

    Heap, dict, generator and list churn over a few MB, like the simulator's
    own mix, but sharing no code with it: a change to the program cannot
    move it.  Identical rounds cost up to 35% more CPU when the VM's
    neighbours are busy, and this kernel slows down with them.
    """
    cpu0, wall0 = time.process_time(), time.perf_counter()
    heap, table, churn, x = [], {}, [], 1

    def echo():
        value = 0
        while True:
            value = (yield value) or 0

    gen = echo()
    next(gen)
    for i in range(400_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        table[x & 65535] = (i, x)
        gen.send(i)
        if i & 3 == 3:
            heapq.heappop(heap)
            heapq.heappop(heap)
        if i & 7 == 0:
            churn.append([x, i])
            if len(churn) > 50_000:
                del churn[:25_000]
    return {"cpu_s": time.process_time() - cpu0, "wall_s": time.perf_counter() - wall0}


class ChildFailed(RuntimeError):
    """A child ended without a usable record (crash, timeout, bad output)."""


def run_child(name: str, seed: int, requests: int, profile: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
        "--seed", str(seed), "--requests", str(requests), "--profile", str(int(profile)),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name}: child exceeded {CHILD_TIMEOUT_S}s") from exc
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"{name}: child exit {done.returncode}, no record") from exc
    if done.returncode != (0 if record["gate"] is None else 1):
        raise ChildFailed(f"{name}: child exit {done.returncode} contradicts its record")
    return record


def _deterministic(record: dict) -> dict:
    """The part of a clean record that must not depend on the host."""
    out = dict(record["sim"], completed=record["completed"])
    out.update({
        k: v for k, v in record["per_layer"].items()
        if k not in TRACE_ONLY and not k.endswith((".self_us_per_req", ".calls_per_req"))
    })
    return out


def _differ(a: dict, b: dict) -> list:
    """Names on which two deterministic sections differ (bit-exact compare)."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile, the program's own definition (LatencyRecorder)."""
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def end_to_end(rounds: list, pooled: list) -> dict:
    """The end-to-end metrics of one run.

    ``pooled`` are the clean rounds whose simulated results count (one per
    sub-seed); ``rounds`` are all rounds, host samples included.  Every
    round's ``host`` section carries ``speed_cpu`` / ``speed_wall``, the
    factors that scale its times to the reference box.
    """
    host = [r["host"] for r in rounds]
    metrics = {
        "setup_s": statistics.median(h["setup_s"] * h["speed_wall"] for h in host),
        "peak_rss_mb": statistics.median(h["peak_rss_mb"] for h in host),
        "completed_frac": 0.0,
    }
    if len(pooled) < ROUNDS or any(r["gate"] is not None for r in rounds):
        return metrics
    completed = sum(r["completed"] for r in pooled)
    sim = [r["sim"] for r in pooled]
    latency = sorted(x for s in sim for x in s["update_latency_s"])
    metrics.update({
        "host_cpu_us_per_req": statistics.median(
            1e6 * r["host"]["cpu_s"] * r["host"]["speed_cpu"] / r["completed"] for r in rounds),
        "host_wall_us_per_req": statistics.median(
            1e6 * r["host"]["wall_s"] * r["host"]["speed_wall"] / r["completed"] for r in rounds),
        "events_per_req": sum(s["events"] for s in sim) / completed,
        "sim_iops": completed / sum(s["horizon_s"] for s in sim),
        "sim_update_p50_us": 1e6 * _percentile(latency, 50.0),
        "sim_update_p99_us": 1e6 * _percentile(latency, 99.0),
        "sim_update_p999_us": 1e6 * _percentile(latency, 99.9),
        "sim_dev_write_kb_per_req": sum(s["dev_write_bytes"] for s in sim) / 1024.0 / completed,
        "sim_erases_per_kreq": 1000.0 * sum(s["erase_ops"] for s in sim) / completed,
        "sim_net_kb_per_req": sum(s["net_bytes"] for s in sim) / 1024.0 / completed,
        "completed_frac": completed / sum(r["attempted"] for r in pooled),
    })
    return metrics


def bench(name: str, seed: int, seconds: float) -> dict:
    """ROUNDS untraced rounds, then more until ``seconds`` of runner wall time."""
    size = WORKLOADS[name].requests_per_client
    rounds = []
    problems = []
    measured = 0.0
    before = calibrate()
    while len(rounds) < ROUNDS or measured < seconds:
        i = len(rounds)
        last = run_child(name, seed * 64 + i % ROUNDS, size)
        after = calibrate()
        for clock in ("cpu", "wall"):
            around = (before[f"{clock}_s"] + after[f"{clock}_s"]) / 2.0
            last["host"][f"speed_{clock}"] = CALIBRATION_REF_S / around
        before = after
        rounds.append(last)
        measured += last["host"]["wall_s"]
        if last["gate"] is not None:
            problems.append(f"gate tripped on sub-seed {last['seed']}: {last['gate']}")
            break
        if i >= ROUNDS:
            diff = _differ(_deterministic(rounds[i - ROUNDS]), _deterministic(last))
            if diff:
                problems.append(f"sub-seed {last['seed']} did not repeat: {diff}")
                break
    pooled = [] if problems else rounds[:ROUNDS]
    attempted = sum(r["attempted"] for r in rounds)
    return {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "update_samples": sum(len(r["sim"]["update_latency_s"]) for r in pooled),
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - (sum(r["completed"] for r in rounds) if not problems else 0),
        "metrics": end_to_end(rounds, pooled),
    }


def trace(name: str, seed: int) -> dict:
    """One plain and one profiled round of the first sub-seed."""
    size = WORKLOADS[name].requests_per_client
    plain = run_child(name, seed * 64, size)
    traced = run_child(name, seed * 64, size, profile=True)
    problems = [f"gate tripped: {r['gate']}" for r in (plain, traced) if r["gate"] is not None]
    metrics = {}
    if not problems:
        diff = _differ(_deterministic(plain), _deterministic(traced))
        if diff:
            problems.append(f"tracing changed the simulation: {diff}")
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_ratio"] = traced["host"]["cpu_s"] / plain["host"]["cpu_s"]
        metrics["harness.run_cpu_s"] = plain["host"]["cpu_s"]
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace_{name}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "requests_per_client": size,
             "metrics": metrics, **traced["trace"]}, indent=1) + "\n")
    attempted = plain["attempted"] + traced["attempted"]
    return {
        "workload": name,
        "seed": seed,
        "rounds": 2,
        "update_samples": len(traced["sim"]["update_latency_s"]) if not problems else 0,
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - (plain["completed"] + traced["completed"] if not problems else 0),
        "metrics": metrics,
    }


def report(result: dict, declared: list) -> bool:
    """Print every declared metric by name with its unit, then the JSON line."""
    metrics = result["metrics"]
    ok = not result["problems"] and result["failed"] == 0
    mismatch = sorted(set(metrics) ^ {m["name"] for m in declared})
    if ok and mismatch:
        result["problems"].append(f"metrics do not match BENCHMARK.json: {mismatch}")
        ok = False
    workload = WORKLOADS[result["workload"]]
    print(f"== {workload.name}  clients={workload.n_clients} x iodepth={workload.iodepth}  "
          f"seed={result['seed']}  rounds={result['rounds']}  "
          f"update_samples={result['update_samples']}")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]:>16.6f} {m['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
    }))
    return ok


# ---------------------------------------------------------------------------
# --check-determinism and --aa
# ---------------------------------------------------------------------------
def check_determinism(names, seed: int) -> bool:
    """Each workload twice at half a round, traced: host-independent parts must match."""
    ok = True
    for name in names:
        size = max(1, WORKLOADS[name].requests_per_client // 2)
        a, b = (run_child(name, seed * 64, size, profile=True) for _ in range(2))
        gates = [r["gate"] for r in (a, b) if r["gate"] is not None]
        diff = [] if gates else _differ(_deterministic(a), _deterministic(b))
        compared = 0 if gates else len(_deterministic(a))
        print(f"{name:<22} {compared} deterministic fields: "
              + (f"FAILED gates {gates} differ on {diff}" if gates or diff else "ok"))
        ok = ok and not gates and not diff
    return ok


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (the driver's measure)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def aa(names, seed: int, seconds: float, n: int, spec: dict) -> bool:
    """Two interleaved sets of ``n`` runs (seeds seed..seed+n-1) of the same code."""
    sets = ({name: [] for name in names}, {name: [] for name in names})
    for i in range(n):
        for which in (0, 1):
            for name in names:
                print(f"aa: seed {seed + i} set {'AB'[which]} {name}", file=sys.stderr)
                sets[which][name].append(bench(name, seed + i, seconds))
    lines = [
        "# A/A check: two interleaved sets of runs of the same code",
        "",
        f"`run.py --aa {n} --seed {seed} --seconds {seconds:g}`: per workload, {n} runs "
        f"per set on seeds {seed}..{seed + n - 1}, sets alternating.  `spread` is the "
        "inter-quartile distance over the median; `shift` is how much worse set B's "
        "median is than set A's (negative: better).  A row is `ok` when both spreads "
        "and the shift stay within the bound (`setup_s`: shift only).",
        "",
    ]
    all_ok = True
    for name in names:
        lines += [f"## {name}", "",
                  "| metric | unit | median A | spread A | median B | spread B | shift | bound | |",
                  "|---|---|---|---|---|---|---|---|---|"]
        failed = sum(r["failed"] for s in sets for r in s[name])
        all_ok = all_ok and not failed
        for m in spec["end_to_end"] if not failed else []:
            va, vb = ([r["metrics"][m["name"]] for r in s[name]] for s in sets)
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
            if m["name"] not in HOST_METRICS:
                ok = ok and va == vb       # simulated: bit-exact per seed
            all_ok = all_ok and ok
            lines.append(
                f"| `{m['name']}` | {m['unit']} | {ma:.6g} | {sa:.4f} | {mb:.6g} | "
                f"{sb:.4f} | {worse:+.4f} | {m['bound']} | {'ok' if ok else 'FAILED'} |")
        lines += ["", f"failed operations: {failed}", ""]
    text = "\n".join(lines)
    print(text)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "aa.md").write_text(text)
    return all_ok


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    ap.add_argument("--seed", type=int, default=1, help="the only source of input variation")
    ap.add_argument("--seconds", type=float, help="runner wall time to measure per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: per-layer metrics from a plain and a profiled round")
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--aa", type=int, nargs="?", const=5, metavar="N")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--requests", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--profile", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    try:
        if args.check_determinism:
            return 0 if check_determinism(names, args.seed) else 1
        if args.aa is not None:
            return 0 if aa(names, args.seed, seconds, args.aa, spec) else 1
        ok = True
        iops = {}
        for name in names:
            if args.trace:
                ok = report(trace(name, args.seed), spec["per_layer"]) and ok
            else:
                result = bench(name, args.seed, seconds)
                iops[name] = result["metrics"].get("sim_iops")
                ok = report(result, spec["end_to_end"]) and ok
        if iops.get("ali_closed_tsue") and iops.get("ali_closed_plr"):
            # A trend, not a validated figure: the repo holds no reference data.
            print("trend: sim_iops ali_closed_tsue / ali_closed_plr = "
                  f"{iops['ali_closed_tsue'] / iops['ali_closed_plr']:.3f}x "
                  "(model unvalidated, no error figure)")
        return 0 if ok else 1
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
