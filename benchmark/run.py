#!/usr/bin/env python3
"""End-to-end benchmark of the Bellamy reproduction (stdlib only).

Builds benchmark/ (the library plus the bellamy_bench program) and runs its
workloads, each in a process of its own:

  python3 benchmark/run.py                      all workloads once, every metric
  python3 benchmark/run.py --trace              ... plus a traced run of each
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                one run; the last stdout line is
                                                {"correct", "attempted", "failed",
                                                 "metrics"}: end-to-end metrics with
                                                --trace 0, per-layer with --trace 1
  python3 benchmark/run.py --self-test          the correctness gates must fire
  python3 benchmark/run.py --calibrate          2 sets x 5 runs per workload ->
                                                benchmark/baseline.json
  python3 benchmark/run.py --repeat N --out F   N runs per workload -> result set F
  python3 benchmark/run.py --compare A.json B.json
                                                parent (A) vs change (B) result sets

Metrics, workloads and bounds live in BENCHMARK.json at the repository root.
The build goes to $CARGO_TARGET_DIR when set (relative to the repository
root), else build-bench/.  Exit status is non-zero when a correctness gate
fails, the build fails, or --compare finds a regression.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
RUN_BUDGET_S = 170  # one contract run, build excluded
BUILD_BUDGET_S = 850


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_config():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


CONFIG = load_config()
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
E2E = {m["name"]: m for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONFIG["per_layer"]}


# ---- build -----------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", "build-bench")


def build():
    """Configure once, build incrementally; returns the program path."""
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "--target", "bellamy_bench", "-j", jobs])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            sys.exit(1)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    return bdir / "bellamy_bench"


# ---- one workload process ---------------------------------------------------

def run_workload(binary, workload, seed, seconds, trace_path=None, perturb=False,
               timeout=RUN_BUDGET_S):
    """Runs one workload process; returns its report dict (None if it died)."""
    out_dir = build_dir() / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{workload}-{seed}-{'trace' if trace_path else 'plain'}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={out}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    if perturb:
        cmd.append("--perturb-expected")
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        log(f"{workload}: bellamy_bench timed out after {timeout:.0f} s")
        return None
    if not out.exists():
        log(f"{workload}: bellamy_bench wrote no report")
        return None
    with open(out) as f:
        return json.load(f)


# ---- printing ----------------------------------------------------------------

def print_metrics(title, metrics, names, stream):
    print(f"\n== {title}", file=stream)
    for name in names:
        if name in metrics:
            m = metrics[name]
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}", file=stream)


def print_report(report, stream):
    for g in report["gates"]:
        print(f"  gate {g['name']:34s} {'ok' if g['ok'] else 'FAILED'}  {g['detail']}",
              file=stream)
    for f in report["flags"]:
        print(f"  flag {f}", file=stream)


# ---- contract mode: one workload ---------------------------------------------

def traced_metrics(binary, workload, seed, seconds, deadline):
    """Per-layer metrics: a plain and a traced run of the workload; the
    traced run's layer metrics, trace self times and tracing overhead."""
    plain = run_workload(binary, workload, seed, seconds,
                       timeout=(deadline - time.monotonic()) / 2)
    # One trace file per workload (the latest run's): traces run to tens of MB.
    trace_path = build_dir() / "runs" / f"trace-{workload}.json"
    traced = run_workload(binary, workload, seed, seconds, trace_path=trace_path,
                        timeout=deadline - time.monotonic())
    if plain is None or traced is None:
        return None
    metrics = dict(traced["metrics"])
    base = plain["metrics"]["cpu_us_per_op"]["value"]
    metrics["trace_overhead_pct"] = {
        "value": 100.0 * (traced["metrics"]["cpu_us_per_op"]["value"] / base - 1.0),
        "unit": "%"}
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "gates": plain["gates"] + traced["gates"],
        "flags": plain["flags"] + traced["flags"],
        "metrics": metrics,
        "trace_path": str(trace_path),
    }


def contract_run(args):
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        report = traced_metrics(binary, args.workload, args.seed, args.seconds, deadline)
        wanted = PER_LAYER
    else:
        report = run_workload(binary, args.workload, args.seed, args.seconds)
        wanted = E2E
    if report is None:
        return 1
    metrics = {}
    for name, spec in wanted.items():
        m = report["metrics"].get(name)
        if m is None and not args.trace:
            log(f"bellamy_bench did not report end-to-end metric {name}")
            return 1
        # A per-layer path the workload does not exercise reads 0 (e.g. net on fit).
        metrics[name] = {"value": m["value"] if m else 0.0, "unit": spec["unit"]}
    print_metrics(args.workload, metrics, list(wanted), sys.stderr)
    print_report(report, sys.stderr)
    print(json.dumps({"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}), flush=True)
    return 0 if report["correct"] else 1


# ---- human mode: every workload ----------------------------------------------

def run_all(args):
    binary = build()
    ok = True
    for w in WORKLOADS:
        report = run_workload(binary, w, args.seed, args.seconds)
        if report is None:
            return 1
        ok = ok and report["correct"]
        print_metrics(f"{w}: end-to-end", report["metrics"], list(E2E), sys.stdout)
        print_metrics(f"{w}: per layer", report["metrics"], list(PER_LAYER), sys.stdout)
        print_report(report, sys.stdout)
        if args.trace:
            traced = traced_metrics(binary, w, args.seed, args.seconds,
                                    time.monotonic() + RUN_BUDGET_S)
            if traced is None:
                return 1
            ok = ok and traced["correct"]
            print_metrics(f"{w}: traced run, per layer", traced["metrics"], list(PER_LAYER),
                          sys.stdout)
            print(f"  trace written to {traced['trace_path']}")
            print("  self time by layer (span duration minus child coverage):")
            selfs = {n.split(".")[-1]: m["value"] for n, m in traced["metrics"].items()
                     if n.startswith("trace.self_ms.")}
            for layer, ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
                print(f"    {layer:8s} {ms:12.1f} ms")
            print(f"  trace_overhead_pct {traced['metrics']['trace_overhead_pct']['value']:.2f} %")
    print("\nall correctness gates passed" if ok else "\nA CORRECTNESS GATE FAILED")
    return 0 if ok else 1


# ---- self-test -----------------------------------------------------------------

def check_config():
    """The BENCHMARK.json limits this benchmark relies on."""
    problems = []
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]] + WORKLOADS
    if len(names) != len(set(names)):
        problems.append("duplicate names")
    for m in CONFIG["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound out of range")
    for w in CONFIG["workloads"]:
        if len(w["why"]) > 200:
            problems.append(f"{w['name']}: why longer than 200 characters")
    if "setup_s" not in E2E:
        problems.append("setup_s missing")
    return problems


def self_test():
    problems = check_config()
    binary = build()
    emitted = set()
    for w in WORKLOADS:
        perturbed = run_workload(binary, w, 1, 1.0, perturb=True)
        if perturbed is None or perturbed["correct"]:
            problems.append(f"{w}: a 1-ulp perturbed expected value did not fail the gate")
        trace_path = build_dir() / "runs" / f"selftest-{w}.json"
        traced = run_workload(binary, w, 1, 1.0, trace_path=trace_path)
        if traced is None or not traced["correct"]:
            problems.append(f"{w}: unperturbed traced run failed its gates")
            continue
        for name, m in traced["metrics"].items():
            spec = E2E.get(name) or PER_LAYER.get(name)
            if spec and spec["unit"] != m["unit"]:
                problems.append(f"{w}: {name} reported in {m['unit']}, declared {spec['unit']}")
        emitted.update(traced["metrics"])
    emitted.add("trace_overhead_pct")
    for name in list(E2E) + list(PER_LAYER):
        if name not in emitted:
            problems.append(f"no workload reports {name}")
    for p in problems:
        log(f"self-test: {p}")
    print("self-test passed" if not problems else f"self-test FAILED ({len(problems)} problems)")
    return 0 if not problems else 1


# ---- result sets: repeat, calibrate, compare -----------------------------------

def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "machine": platform.machine()}


def collect(binary, sets, runs, seconds, seed_base):
    """sets x runs runs of every workload, interleaved so slow host drift
    spreads over all workloads; seed = seed_base + run index."""
    result = {"host": host_info(), "seconds": seconds,
              "runs": {w: [] for w in WORKLOADS}, "sets": sets, "correct": True}
    for s in range(sets):
        for i in range(runs):
            seed = seed_base + s * runs + i
            for w in WORKLOADS:
                report = run_workload(binary, w, seed, seconds)
                if report is None or not report["correct"]:
                    result["correct"] = False
                    log(f"{w} seed {seed}: run failed")
                    continue
                values = {n: report["metrics"][n]["value"] for n in E2E}
                log(f"{w} seed {seed}: " + "  ".join(f"{n}={v:.5g}" for n, v in values.items()))
                result["runs"][w].append({"seed": seed, "set": s, "metrics": values})
    return result


def spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def worse_by(metric, parent, change):
    """Share by which `change` is worse than `parent` (negative = better)."""
    if parent == 0:
        return 0.0
    d = (change - parent) / parent
    return d if E2E[metric]["better"] == "lower" else -d


CALIBRATION_SETS = 2
CALIBRATION_RUNS = 5  # per set


def calibrate(args):
    binary = build()
    result = collect(binary, CALIBRATION_SETS, CALIBRATION_RUNS, args.seconds, args.seed)
    summary = {}
    print(f"\n{'workload':14s} {'metric':18s} {'median':>12s} {'spread':>8s} "
          f"{'set drift':>9s} {'bound':>6s} {'suggest':>7s}")
    for w, runs in result["runs"].items():
        summary[w] = {}
        for n in E2E:
            values = [r["metrics"][n] for r in runs]
            per_set = [statistics.median([r["metrics"][n] for r in runs if r["set"] == s])
                       for s in range(CALIBRATION_SETS) if any(r["set"] == s for r in runs)]
            q1, med, q3 = statistics.quantiles(values, n=4)
            drift = max(abs(worse_by(n, per_set[0], m)) for m in per_set)
            sp = spread(values)
            suggest = min(0.25, max(0.05, 3.0 * sp, 2.0 * drift))
            # setup_s must stay end-to-end; its spread is not held to a bound.
            demote = n != "setup_s" and sp > 0.10
            summary[w][n] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                             "set_medians": per_set, "set_drift": drift,
                             "suggested_bound": round(suggest, 3), "demote": demote}
            print(f"{w:14s} {n:18s} {med:12.5g} {sp:8.3f} {drift:9.3f} "
                  f"{E2E[n]['bound']:6.2f} {suggest:7.3f}{'  DEMOTE' if demote else ''}")
    baseline = {"host": result["host"], "seconds": args.seconds, "sets": CALIBRATION_SETS,
                "runs_per_set": CALIBRATION_RUNS, "summary": summary, "runs": result["runs"],
                "correct": result["correct"]}
    out = Path(args.out) if args.out else BENCH / "baseline.json"
    with open(out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"\nwrote {out}")
    return 0 if result["correct"] else 1


def repeat(args):
    binary = build()
    result = collect(binary, 1, args.repeat, args.seconds, args.seed)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if result["correct"] else 1


def compare(args):
    with open(args.compare[0]) as f:
        parent = json.load(f)
    with open(args.compare[1]) as f:
        change = json.load(f)
    regressions = 0
    print(f"{'workload':14s} {'metric':18s} {'parent':>12s} {'change':>12s} {'worse by':>9s} "
          f"{'bound':>6s} {'spread':>7s} {'wins':>5s}  verdict")
    for w in WORKLOADS:
        a_runs, b_runs = parent["runs"].get(w, []), change["runs"].get(w, [])
        if not a_runs or not b_runs:
            print(f"{w:14s} (missing runs)")
            continue
        for n, spec in E2E.items():
            a = [r["metrics"][n] for r in a_runs]
            b = [r["metrics"][n] for r in b_runs]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = worse_by(n, ma, mb)
            sp = spread(a)
            pairs = [(x, y) for x, y in zip(a, b) if x != y]
            wins = sum(1 for x, y in pairs if worse_by(n, x, y) < 0)
            win_rate = wins / len(pairs) if pairs else 0.0
            all_better = all(worse_by(n, x, y) < 0 for x in a for y in b)
            if sp > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif -worse > sp and win_rate >= 0.9:
                verdict = "improved"
            else:
                verdict = "no change"
            print(f"{w:14s} {n:18s} {ma:12.5g} {mb:12.5g} {worse:9.3f} {spec['bound']:6.2f} "
                  f"{sp:7.3f} {win_rate:5.2f}  {verdict}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(CONFIG["run_seconds"]))
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--repeat", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args()

    if args.compare:
        return compare(args)
    if args.self_test:
        return self_test()
    if args.calibrate:
        return calibrate(args)
    if args.repeat:
        if not args.out:
            p.error("--repeat needs --out")
        return repeat(args)
    if args.workload:
        return contract_run(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
