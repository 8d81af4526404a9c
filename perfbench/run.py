"""The jumpmdp benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload slope --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it needs `src/jumpmdp` there.  A run
is a closed loop: invocations of the workload run one at a time, each in a
fresh interpreter (`invoke.py`) with its own seed derived from --seed, until
the next one would end after --seconds.  Time outside that window: the
set-up measurements before it and the correctness checks after it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median wall time of one invocation, interpreter start to exit
  setup_s      median over 5 fresh interpreters of importing jumpmdp and
               building the workload's config and model
  peak_rss_mb  median over invocations of the CLI process's peak RSS plus
               workers x the largest pool worker's peak RSS (an upper bound:
               the workers run at the same time and are counted alike)
It also prints, without gating them: checks_failed_frac (failed / attempted
checks, also the `failed` and `attempted` fields; a metric that is 0 on every
correct run cannot carry a relative bound) and, for the slope workloads,
is_rel_err_max and s_to_10pct.  galerkin has no IS rows to give them, and
over ten seeds s_to_10pct spread by 0.34-0.41 of its median, more than any
bound the benchmark may set.  The traced run reports both as layer metrics.

--trace 1 runs pairs of one untraced and one traced invocation on the same
seed and reports the per-layer metrics of BENCHMARK.json, medians over the
traced invocations; `trace.overhead_s` is traced minus untraced wall time.
`layers.json` says which end-to-end metric each layer metric should move and
on which workload.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Outputs, spans and a run record (machine, seeds, config
hashes, every sample) go under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 5
SUMMARY_HEADER = "epsilon,a_eps,b_eps,p_hat,se,neg_b_log_p,predicted_rate,estimator,flag"
PREDICTED_RATE = 1.0 / (1.0 - math.exp(-2.0))  # scalar_benchmark's quadratic rate at c = 1
RATE_MATCH_RTOL = 1e-8
RECONSTRUCTION_TOL = 1e-8
TARGET_REL_ERR = 0.10


class Checks:
    """Correctness checks of a run; evaluated outside the timed window."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail="") -> None:
        self.items.append({"check": name, "ok": bool(ok), "detail": str(detail)})

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


def invoke(mode: str, name: str, seed: int, size: str, out_dir: str, trace: bool = False):
    """Run invoke.py once; return (wall seconds, parsed result or None, stderr)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "invoke.py"), mode, name, str(seed), size, out_dir]
    if trace:
        cmd.append("--trace")
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    path = os.path.join(out_dir, "setup.json" if mode == "setup" else "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return wall, None, proc.stderr[-2000:]
    with open(path) as fh:
        return wall, json.load(fh), proc.stderr[-2000:]


def summary_rows(out_dir: str) -> tuple[str, list[dict]]:
    with open(os.path.join(out_dir, "summary.csv")) as fh:
        text = fh.read()
    return text, list(csv.DictReader(text.splitlines()))


def is_stats(rows: list[dict], n: int) -> tuple[float, float]:
    """(largest se/p_hat, smallest p^2 / ((n-1) se^2 + p^2)) over the IS rows."""
    rel, ess = [], []
    for row in rows:
        if row["estimator"] != "is":
            continue
        p, se = float(row["p_hat"]), float(row["se"])
        rel.append(se / p if p > 0 else math.inf)
        ess.append(p * p / ((n - 1) * se * se + p * p) if p > 0 else 0.0)
    return max(rel), min(ess)


def check_invocation(checks: Checks, name: str, seed: int, size: str, out_dir: str, result) -> None:
    tag = f"seed {seed}"
    checks.add("exit status 0", result is not None and result["exit_status"] == 0, tag)
    if result is None:
        return
    if workloads.WORKLOADS[name]["command"] == "mdp-slope":
        text, rows = summary_rows(out_dir)
        checks.add("summary.csv header", text.splitlines()[0] == SUMMARY_HEADER, tag)
        worst = max(abs(float(r["predicted_rate"]) - PREDICTED_RATE) for r in rows)
        checks.add("predicted_rate = 1/(1-e^-2)", worst <= 1e-6, f"{tag}: off by {worst!r}")
    else:
        to_point, of_path = result["rate_to_point"], result["rate_of_path"]
        rel = abs(of_path - to_point) / abs(to_point)
        checks.add("rate_of_path matches rate_to_point", rel <= RATE_MATCH_RTOL, f"{tag}: rel {rel!r}")
        for r, gap in enumerate(result["replay_gaps"]):
            checks.add("replay reconstruction gap", gap <= RECONSTRUCTION_TOL, f"{tag} replay {r}: {gap!r}")


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def layer_metric(name: str, result: dict, stats: dict) -> float:
    """One per-layer metric from a traced invocation's spans and counters."""
    spans, counters = result["spans"], result["counters"]

    def span(target: str, stat: str) -> float:
        agg = spans.get(target, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        if stat == "us_per_call":
            return agg["busy_s"] * 1e6 / agg["calls"] if agg["calls"] else 0.0
        if stat == "us_per_cell":
            cells = counters.get("mdp_limit.linearized_cells", 0)
            return agg["busy_s"] * 1e6 / cells if cells else 0.0
        return float(agg[stat])

    special = {
        "prm.events_per_path": lambda: (
            counters.get("prm.events", 0) / counters["prm.realizations"]
            if counters.get("prm.realizations") else 0.0),
        "jump_sde.breakpoints": lambda: counters.get("jump_sde.breakpoints", 0),
        "jump_sde.ns_per_breakpoint": lambda: (
            span("jump_sde.simulate_jump_path", "busy_s") * 1e9 / counters["jump_sde.breakpoints"]
            if counters.get("jump_sde.breakpoints") else 0.0),
        "experiments.pools_created": lambda: counters.get("experiments.pools_created", 0),
        "cli.self_s": lambda: span("cli.main", "self_s"),
    }
    if name in special:
        return float(special[name]())
    if name in stats:
        return float(stats[name])
    target, stat = name.rsplit(".", 1)
    return span(target, stat)


def machine_info(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(workloads.SLOPE_SIZES),
                        help="smoke: the smallest size the gates allow, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "jumpmdp", "cli.py")):
        print(f"no jumpmdp sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    name, size, trace = args.workload, args.size, bool(args.trace)
    spec = workloads.WORKLOADS[name]
    is_slope = spec["command"] == "mdp-slope"
    run_dir = os.path.join(ROOT, ".perfbench", f"{name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checks = Checks()
    record = {"workload": name, "seed": args.seed, "size": size, "trace": args.trace,
              "seconds": args.seconds, "invocations": []}

    setups = []
    versions = {}
    if not trace:
        for k in range(SETUP_REPEATS):
            _, res, err = invoke("setup", name, args.seed, size, os.path.join(run_dir, f"setup{k}"))
            checks.add("set-up completes", res is not None, err)
            if res:
                setups.append(res["setup_s"])
                versions = res["versions"]

    samples: dict[str, list[float]] = {}
    rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        seed = workloads.invocation_seed(args.seed, k)
        untraced_dir = os.path.join(run_dir, f"inv{k}")
        wall, res, err = invoke("run", name, seed, size, untraced_dir)
        check_invocation(checks, name, seed, size, untraced_dir, res)
        inv = {"seed": seed, "wall_s": wall, "config_hash": res and res["config_hash"], "stderr": err}
        samples.setdefault("wall_s", []).append(wall)
        if res:
            versions = res["versions"]
            rss = res["maxrss_self_kb"] + spec["workers"] * res["maxrss_children_kb"]
            samples.setdefault("peak_rss_mb", []).append(rss / 1024.0)
        # IS efficiency of this invocation; zero where the workload has no IS rows.
        is_row = {"is_rel_err_max": 0.0, "s_to_10pct": 0.0, "is_ess_frac_min": 0.0}
        if res and is_slope:
            rel, ess = is_stats(summary_rows(untraced_dir)[1], workloads.config(name, seed, size)["is_replications"])
            is_row = {"is_rel_err_max": rel, "s_to_10pct": wall * (rel / TARGET_REL_ERR) ** 2, "is_ess_frac_min": ess}
            for key, value in is_row.items():
                samples.setdefault(key, []).append(value)
        if trace:
            traced_dir = os.path.join(run_dir, f"inv{k}-traced")
            traced_wall, traced, err = invoke("run", name, seed, size, traced_dir, trace=True)
            check_invocation(checks, name, seed, size, traced_dir, traced)
            inv.update(traced_wall_s=traced_wall, traced_stderr=err)
            if traced:
                stats = {f"experiments.{key}": value for key, value in is_row.items()}
                stats["trace.overhead_s"] = traced_wall - wall
                for metric in bench["per_layer"]:
                    value = layer_metric(metric["name"], traced, stats)
                    samples.setdefault(metric["name"], []).append(value)
            wall += traced_wall
        record["invocations"].append(inv)
        k += 1
        rounds.append(wall)
        if time.perf_counter() - start + statistics.median(rounds) > args.seconds:
            break

    if spec["workers"] > 1:
        # slope-w2's summary.csv must match slope's (workers = 1) byte for byte.
        seed = workloads.invocation_seed(args.seed, 0)
        ref_dir = os.path.join(run_dir, "reference-w1")
        _, ref, err = invoke("run", "slope", seed, size, ref_dir)
        check_invocation(checks, "slope", seed, size, ref_dir, ref)
        inv0 = os.path.join(run_dir, "inv0", "summary.csv")
        same = ref is not None and os.path.exists(inv0) and summary_rows(ref_dir)[0] == summary_rows(os.path.dirname(inv0))[0]
        checks.add("summary.csv identical to workers=1", same, f"seed {seed}")

    metrics = {}
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    if not trace:
        samples["setup_s"] = setups
    lines = []
    for metric in declared:
        values = samples.get(metric["name"])
        if values:
            metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
            lines.append((metric["name"], quartiles(values), metric["unit"]))
    if not trace:
        for extra, unit in (("is_rel_err_max", "ratio"), ("s_to_10pct", "s")):
            if extra in samples:
                lines.append((extra, quartiles(samples[extra]), unit))
    attempted, failed = len(checks.items), checks.failed
    record["machine"] = machine_info(versions)
    record.update(checks=checks.items, samples=samples, metrics=metrics)
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {name} seed {args.seed} trace {args.trace}: {len(record['invocations'])} invocations, "
          f"machine {json.dumps(record['machine'])}")
    for metric, q, unit in lines:
        print(f"{metric} {q['median']!r} {unit} (median of {q['n']}; q1 {q['q1']:.6g}, "
              f"q3 {q['q3']:.6g}, min {q['min']:.6g}, max {q['max']:.6g})")
    print(f"checks_failed_frac {failed / attempted!r} ratio ({failed} of {attempted} checks failed)")
    for c in checks.items:
        if not c["ok"]:
            print(f"FAILED CHECK {c['check']}: {c['detail']}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"no value for {missing}")
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
