#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see bench/e2e/README.md).

One workload run (what BENCHMARK.json's command is called with):

    python3 bench/e2e/run.py --workload tree --seed 1 --seconds 10 --trace 0

prints the executable's progress lines and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics: every end-to-end metric
of BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.

A full pass (no --workload) runs every workload --reps times, interleaved
round-robin, prints each metric's median and min-max per workload, and
writes the runs (each with its progress lines) plus a machine fingerprint to
a result file for compare.py:

    python3 bench/e2e/run.py [--reps 3] [--seed 1] [--trace] [--smoke]

Exit status is non-zero when the build fails, a run fails, or any answer is
wrong.
"""

import argparse
import datetime
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-e2e"
OUT = BUILD / "out"
SOURCE = ROOT / "bench" / "e2e"

# A run must end well inside the 180 s a caller allows.
RUN_TIMEOUT_S = 170
# --smoke: 5k-object galleries and 2 s runs, every workload once.
SMOKE_GALLERY = 5000
SMOKE_SECONDS = 2


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the two executables into build-e2e/."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} does not hold the gauss sources to build against")
    BUILD.mkdir(exist_ok=True)
    # Concurrent invocations in one checkout build once, one at a time.
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(BUILD), "-j",
                      str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))


def run_executable(workload, seed, seconds, trace, gallery=None):
    """Runs one workload; returns the executable's result object, with the
    run's progress lines under "log"."""
    binary = BUILD / ("gauss_e2e_trace" if trace else "gauss_e2e")
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(OUT)]
    if gallery:
        cmd += ["--gallery", str(gallery)]
    # subprocess.run kills and reaps the executable on a timeout and on any
    # exception, which includes SIGTERM through main's handler.
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout + done.stderr)
        fail(f"{workload}: the executable exited {done.returncode} without a "
             "result")
    if done.returncode != 0 and result.get("failed", 0) == 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload}: the executable exited {done.returncode}")
    result["log"] = lines[:-1]
    return result


def contract_result(result, specs):
    """The caller-facing result line: only the metrics `specs` names."""
    metrics = {}
    for spec in specs:
        if spec["name"] not in result["metrics"]:
            fail(f"the executable did not report {spec['name']}")
        metrics[spec["name"]] = {"value": result["metrics"][spec["name"]],
                                 "unit": spec["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def git_identity():
    """HEAD and a dirty flag, or 'unknown' outside a git checkout."""
    # Git must not look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown", None
        sha = git("rev-parse", "HEAD").stdout.strip()
        dirty = git("status", "--porcelain").stdout.strip() != ""
        return sha, dirty
    except OSError:
        return "unknown", None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build_type():
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(info, seed):
    """What a timing comparison must hold equal (compare.py checks it)."""
    sha, dirty = git_identity()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel_backend": info.get("backend", "unknown"),
        "gauss_force_scalar": os.environ.get("GAUSS_FORCE_SCALAR", ""),
        "compiler": info.get("compiler", "unknown"),
        "build_type": build_type(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def summarize(runs, workloads, specs):
    for spec in specs:
        cells = []
        for w in workloads:
            values = [r["metrics"][spec["name"]] for r in runs
                      if r["workload"] == w and spec["name"] in r["metrics"]]
            if values:
                cells.append(f"{w}={statistics.median(values):.4g} "
                             f"[{min(values):.4g}-{max(values):.4g}]")
        print(f"{spec['name']} ({spec['unit']}): " + "  ".join(cells))


def full_pass(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds or
                                                bench["run_seconds"])
    gallery = SMOKE_GALLERY if args.smoke else None
    reps = 1 if args.smoke else args.reps
    runs, traces = [], []
    fp = None
    # Round-robin, so slow drift on the host spreads over every workload.
    for rep in range(reps):
        for w in workloads:
            seed = args.seed + rep
            result = run_executable(w, seed, seconds, False, gallery)
            result.update(rep=rep, seed=seed)
            fp = fp or fingerprint(result.get("info", {}), args.seed)
            runs.append(result)
            status = "ok" if result["correct"] else "WRONG ANSWERS"
            print(f"rep {rep} {w}: {status}", flush=True)
    if args.trace:
        for w in workloads:
            result = run_executable(w, args.seed, seconds, True, gallery)
            result.update(rep=0, seed=args.seed)
            traces.append(result)
            print(f"trace {w}: {'ok' if result['correct'] else 'WRONG'} "
                  f"-> {OUT / (w + '.trace.json')}", flush=True)

    print("\nend-to-end: median [min-max] over "
          f"{reps} run(s) per workload")
    summarize(runs, workloads, bench["end_to_end"])
    if traces:
        print("\nper-layer (traced run)")
        summarize(traces, workloads, bench["per_layer"])

    OUT.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = Path(args.out) if args.out else OUT / f"results-{stamp}.json"
    with open(path, "w") as f:
        json.dump({"fingerprint": fp, "seconds": seconds, "runs": runs,
                   "traces": traces}, f, indent=1)
    print(f"\nresults: {path}")
    print("fingerprint: " + json.dumps(fp))
    bad = [r for r in runs + traces if not r["correct"]]
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload and print the "
                        "result line (the benchmark contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed load per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="5k galleries, 2 s runs, one run each")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", help="full pass: result file path")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = load_benchmark()
    build()

    if args.workload is None:
        return full_pass(args, bench)

    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    seconds = args.seconds or bench["run_seconds"]
    gallery = SMOKE_GALLERY if args.smoke else None
    if args.smoke:
        seconds = SMOKE_SECONDS
    result = run_executable(args.workload, args.seed, seconds,
                            bool(args.trace), gallery)
    for line in result["log"]:
        print(f"[{args.workload}] {line}")
    print("info: " + json.dumps(result.get("info", {})))
    print("fingerprint: " + json.dumps(fingerprint(result.get("info", {}),
                                                   args.seed)))
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps(contract_result(result, specs)), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
