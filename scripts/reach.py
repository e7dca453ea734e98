#!/usr/bin/env python3
"""Production reach of src/: which library lines the shipped programs run.

Usage: reach.py [--workdir DIR]

Configures a `--coverage -O0` build of the repository (and of benchmark/,
with the same flags given on the cmake command line) in a temporary
directory, then runs the PRODUCTION REACH SET:

  * the ten bench/ paper programs with --no-cache, and fig6_interpolation_mae
    once more at --threads=2 (CI's threaded leg: split evaluation on a pool);
  * the four examples/ programs (CI's examples smoke run);
  * the serverd/loadgen legs of CI, run by the script CI runs
    (scripts/serve-legs.sh): the loopback leg, and the two-node exchange leg
    (crash, restart, pull-on-miss and drift);
  * the five benchmark/ workloads (bellamy_bench --workload=NAME), 2 s each.

It then prints, per src/ module, the executable lines those programs ran
out of the total, the same for ctest, and every src/ function that only
ctest reaches.  Plain gcov only (its JSON output); no gcovr or lcov.

bellamy_serverd leaves through std::_Exit, which skips the atexit hook that
writes the counts; the coverage build links every program with
-Wl,--wrap=_Exit and a two-line shim that calls __gcov_dump() first.

The report is informational: the exit status is non-zero only when a build
or a program of the reach set fails.
"""

import argparse
import gzip
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ["fit", "sweep", "serve-closed", "serve-open", "serve-mixed"]
WORKLOAD_SECONDS = 2.0
JOBS = min(4, os.cpu_count() or 1)  # build and ctest parallelism; 4 bounds the memory

EXIT_SHIM = """
extern "C" void __gcov_dump(void);
extern "C" [[noreturn]] void __real__Exit(int);
extern "C" [[noreturn]] void __wrap__Exit(int code) { __gcov_dump(); __real__Exit(code); }
"""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run(cmd, cwd=None, timeout=None, check=True, **kw):
    log("+ " + " ".join(str(c) for c in cmd))
    proc = subprocess.run([str(c) for c in cmd], cwd=cwd, timeout=timeout, **kw)
    if check and proc.returncode != 0:
        sys.exit(f"reach: command failed ({proc.returncode}): {' '.join(map(str, cmd))}")
    return proc


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# ---- build ------------------------------------------------------------------

def build(work):
    shim = work / "gcov_exit.cpp"
    shim.write_text(EXIT_SHIM)
    run(["g++", "-c", "-O0", shim, "-o", work / "gcov_exit.o"])
    flags = ["-DCMAKE_BUILD_TYPE=None", "-DCMAKE_CXX_FLAGS=--coverage -O0",
             f"-DCMAKE_EXE_LINKER_FLAGS=--coverage -Wl,--wrap=_Exit {work / 'gcov_exit.o'}"]
    run(["cmake", "-S", ROOT, "-B", work / "build", *flags], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", work / "build", "-j", JOBS], stdout=subprocess.DEVNULL)
    run(["cmake", "-S", ROOT / "benchmark", "-B", work / "bench", *flags],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", work / "bench", "--target", "bellamy_bench", "-j", JOBS],
        stdout=subprocess.DEVNULL)


def reset_counts(work):
    for gcda in work.rglob("*.gcda"):
        gcda.unlink()


# ---- the production reach set ----------------------------------------------

def serve_legs(build_dir):
    legs = ROOT / "scripts" / "serve-legs.sh"
    apps = build_dir / "apps"
    run([legs, apps, "loopback", free_port()], timeout=1800)
    run([legs, apps, "two-node", free_port(), free_port()], timeout=3600)


def production(work):
    build_dir = work / "build"
    cwd = work / "cwd"
    cwd.mkdir(exist_ok=True)
    for exe in sorted((build_dir / "bench").iterdir()):
        run([exe, "--no-cache"], cwd=cwd, timeout=3600, stdout=subprocess.DEVNULL)
    run([build_dir / "bench" / "fig6_interpolation_mae", "--no-cache", "--threads=2"], cwd=cwd,
        timeout=3600, stdout=subprocess.DEVNULL)
    for exe in sorted((build_dir / "examples").iterdir()):
        run([exe], cwd=cwd, timeout=3600, stdout=subprocess.DEVNULL)
    serve_legs(build_dir)
    for w in WORKLOADS:
        run([work / "bench" / "bellamy_bench", f"--workload={w}", "--seed=1",
             f"--seconds={WORKLOAD_SECONDS}", f"--json={work / (w + '.json')}"], cwd=ROOT,
            timeout=3600, stdout=subprocess.DEVNULL)


# ---- gcov -------------------------------------------------------------------

def collect(work):
    """(lines, functions) of src/: lines maps (file, line) -> ran; functions
    maps (file, start_line, name) -> ran.  Every .gcno counts, with or
    without a .gcda, so never-run objects still contribute their totals."""
    lines, functions = defaultdict(bool), defaultdict(bool)
    out = work / "gcov"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    for gcno in sorted(work.rglob("*.gcno")):
        subprocess.run(["gcov", "--json-format", "--object-directory", str(gcno.parent),
                        str(gcno)], cwd=out, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        for path in out.glob("*.gcov.json.gz"):
            with gzip.open(path, "rt") as f:
                doc = json.load(f)
            path.unlink()
            for entry in doc.get("files", []):
                src = Path(entry["file"])
                if not src.is_absolute():
                    src = (Path(doc.get("current_working_directory", "")) / src)
                src = src.resolve()
                if SRC not in src.parents:
                    continue
                rel = src.relative_to(ROOT).as_posix()
                for ln in entry["lines"]:
                    key = (rel, ln["line_number"])
                    lines[key] = lines[key] or ln["count"] > 0
                for fn in entry["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    functions[key] = functions[key] or fn["execution_count"] > 0
    return lines, functions


def module_of(rel):
    parts = rel.split("/")
    return parts[1] if len(parts) > 2 else "."


def report(prod, tests):
    prod_lines, prod_fns = prod
    table = defaultdict(lambda: [0, 0, 0])  # module -> total, prod, ctest
    for key in set(prod_lines) | set(tests[0]):
        row = table[module_of(key[0])]
        row[0] += 1
        row[1] += prod_lines.get(key, False)
        row[2] += tests[0].get(key, False)
    print("\n| module | lines | production | % | ctest | % |")
    print("|---|---:|---:|---:|---:|---:|")
    totals = [0, 0, 0]
    for module in sorted(table):
        t, p, c = table[module]
        totals = [totals[0] + t, totals[1] + p, totals[2] + c]
        print(f"| {module} | {t} | {p} | {100 * p / t:.0f} | {c} | {100 * c / t:.0f} |")
    t, p, c = totals
    print(f"| **src/** | {t} | {p} | {100 * p / t:.0f} | {c} | {100 * c / t:.0f} |")
    only = sorted(k for k, ran in tests[1].items() if ran and not prod_fns.get(k, False))
    print(f"\nFunctions only ctest reaches ({len(only)}):")
    for rel, line, name in only:
        print(f"  {rel}:{line}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workdir", help="build here and keep it (default: a temp dir)")
    args = ap.parse_args()
    for tool in ("cmake", "g++", "gcov"):
        if shutil.which(tool) is None:
            sys.exit(f"reach: {tool} not found")

    work = Path(args.workdir or tempfile.mkdtemp(prefix="bellamy-reach-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    try:
        build(work)
        reset_counts(work)
        production(work)
        prod = collect(work)
        reset_counts(work)
        run(["ctest", "--test-dir", work / "build", "-j", JOBS, "--timeout", 3600],
            check=False, stdout=subprocess.DEVNULL)
        report(prod, collect(work))
    finally:
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
