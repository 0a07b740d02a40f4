#!/usr/bin/env python3
"""CI bench-regression guard for the serving benches.

The serving benches (sweep_concurrency, sweep_shards) append one JSON line
per measurement cell to $GAUSS_BENCH_JSON — QPS, p99 latency and logical
pages/query (micro_kernels adds per-entry kernel cost); sweep_concurrency's
file-backed cell is named `file`. This script compares such a file against
the committed baseline (bench/BENCH_serving.baseline.json) and fails (exit 1)
when any cell regresses:

  * pages_per_query  — lower is better; deterministic (logical page accesses
                       of fixed traversals over a fixed seeded dataset), so
                       any growth is a real algorithmic regression.
  * p99_us           — lower is better; timing, so noise handling matters:
                       repeated runs append to the same file and the MINIMUM
                       p99 per cell is compared (the best observation is the
                       least scheduler-polluted one — run the smokes twice
                       in CI). Tune --tolerance-p99 for noisy shared runners
                       rather than deleting the gate.
  * ns_per_entry     — lower is better; per-entry cost of the batch scoring
                       kernels (micro_kernels smoke cells). A timing metric
                       like p99_us: min-collapsed across appended runs and
                       governed by the same --skip-p99 / --tolerance-p99
                       switches, so the kernel-level gate rides the existing
                       runner-local timing baseline in CI.

Cells are keyed by (bench, scale, cell); re-runs append — the last line per
key wins for deterministic metrics, the minimum for the timing metrics
(p99_us, ns_per_entry). A baseline cell missing from the current run fails
too — silently losing bench coverage is itself a regression. Current-run
cells absent from the baseline are reported as candidates for re-baselining
but do not fail.

Regenerate the baseline (from the repo root, after a ci-preset build):

  rm -f build/BENCH_serving.json
  ctest --test-dir build -R '_smoke$'
  cp build/BENCH_serving.json bench/BENCH_serving.baseline.json
"""

import argparse
import json
import sys


# Metrics that measure wall time: min-collapsed across appended runs (the
# best observation is the least scheduler-polluted one) and gated together
# under --skip-p99 / --tolerance-p99.
TIMING_METRICS = ("p99_us", "ns_per_entry")


def load_cells(path):
    """Parses a JSON-lines bench file into {(bench, scale, cell): record}.

    Duplicate keys (the file is append-mode across runs): deterministic
    metrics keep the last occurrence, timing metrics keep the minimum
    observed.
    """
    cells = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{lineno}: bad JSON line: {e}")
            key = (record["bench"], record["scale"], record["cell"])
            if key in cells:
                for metric in TIMING_METRICS:
                    observed = [v for v in (record.get(metric),
                                            cells[key].get(metric))
                                if v is not None]
                    if observed:
                        record[metric] = min(observed)
            cells[key] = record
    return cells


def main(argv=None):
    """Runs the guard; `argv` defaults to sys.argv[1:] (injectable for the
    unit tests in bench/test_check_regression.py). Returns the process exit
    code: 0 = no regression, 1 = at least one gate failed."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True,
                        help="BENCH_serving.json emitted by this run")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline (bench/BENCH_serving.baseline.json)")
    parser.add_argument("--tolerance-pages", type=float, default=0.15,
                        help="allowed relative pages_per_query growth (default 0.15)")
    parser.add_argument("--tolerance-p99", type=float, default=0.15,
                        help="allowed relative p99 growth (default 0.15)")
    parser.add_argument("--skip-p99", action="store_true",
                        help="gate only pages_per_query (machine-invariant); "
                             "skips every timing metric (p99_us, "
                             "ns_per_entry) — use when the baseline was "
                             "recorded on different hardware, where absolute "
                             "timings don't transfer")
    parser.add_argument("--skip-pages", action="store_true",
                        help="gate only the timing metrics (for a "
                             "runner-local timing baseline)")
    args = parser.parse_args(argv)

    current = load_cells(args.current)
    baseline = load_cells(args.baseline)
    if not baseline:
        raise SystemExit(f"{args.baseline}: no baseline cells")

    checks = []
    if not args.skip_pages:
        checks.append(("pages_per_query", args.tolerance_pages))
    if not args.skip_p99:
        for metric in TIMING_METRICS:
            checks.append((metric, args.tolerance_p99))
    if not checks:
        raise SystemExit("--skip-pages and --skip-p99 together gate nothing")
    failures = []
    rows = []
    for key in sorted(baseline):
        base = baseline[key]
        cur = current.get(key)
        name = f"{key[0]}[scale={key[1]}] {key[2]}"
        if cur is None:
            failures.append(f"{name}: cell missing from current run "
                            f"(bench coverage lost?)")
            continue
        for metric, tolerance in checks:
            b, c = base.get(metric, 0.0), cur.get(metric, 0.0)
            if b <= 0.0:
                continue  # nothing meaningful to compare against
            ratio = c / b
            verdict = "ok"
            if ratio > 1.0 + tolerance:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: {metric} {c:.4g} vs baseline {b:.4g} "
                    f"(+{(ratio - 1) * 100:.1f}% > {tolerance * 100:.0f}%)")
            rows.append(f"  {verdict:>10}  {name:<55} {metric:>15} "
                        f"{c:>10.4g} / {b:<10.4g} ({(ratio - 1) * 100:+.1f}%)")

    print(f"bench-regression guard: {len(baseline)} baseline cells, "
          f"{len(current)} current cells")
    for row in rows:
        print(row)
    for key in sorted(set(current) - set(baseline)):
        print(f"  note: new cell not in baseline (re-baseline to track): "
              f"{key[0]}[scale={key[1]}] {key[2]}")

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
