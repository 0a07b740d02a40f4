#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs: a parent and a change.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json

Both files are what `run.py` (a full pass, no --workload) writes. For every
end-to-end metric of BENCHMARK.json and every workload it reports both
sides' median and quartiles and one verdict:

  gain        the change won at least 9/10 of at least 10 pairs (run i of
              one side against run i of the other; ties count for neither)
              and the medians differ by more than the parent's own spread
              (the distance between its quartiles);
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's run-to-run spread exceeds the bound, so "within
              the bound" cannot be told apart from noise -- unless every
              change run reads better than every parent run;
  ok          none of the above: no worse than the bound allows;
  refused     a timing metric measured on different machines (fingerprints
              differ): such runs are never compared.

Exit status 1 when any metric regresses, any comparison is refused, or the
change failed more operations than the parent.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Units whose values depend on the machine's speed.
TIMING_UNITS = {"ns", "us", "ms", "s", "q/s"}
# Fingerprint fields that identify the code and inputs, not the machine.
NOT_MACHINE = {"git_sha", "git_dirty", "seed"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def same_machine(fp_a, fp_b):
    keys = (set(fp_a) | set(fp_b)) - NOT_MACHINE
    return all(fp_a.get(k) == fp_b.get(k) for k in keys)


def verdict(spec, parent, change, machines_match=True):
    """Verdict for one metric on one workload.

    `parent` and `change` are the per-run values in run order; run i of one
    side is paired with run i of the other.
    """
    direction, bound = spec["better"], spec["bound"]
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    out = {
        "parent_median": pmed, "parent_q1": p1, "parent_q3": p3,
        "change_median": cmed, "change_q1": c1, "change_q3": c3,
        "pairs": len(pairs), "wins": wins,
        "win_share": wins / len(pairs) if pairs else 0.0,
        "spread": (p3 - p1) / abs(pmed) if pmed else 0.0,
    }
    if not machines_match and spec["unit"] in TIMING_UNITS:
        out["verdict"] = "refused"
        return out
    # Relative worsening of the change's median (positive = worse).
    sign = -1.0 if direction == "higher" else 1.0
    out["worse_by"] = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (len(pairs) >= MIN_PAIRS and out["win_share"] >= WIN_SHARE
            and better(cmed, pmed, direction) and abs(cmed - pmed) > p3 - p1):
        out["verdict"] = "gain"
    elif out["spread"] > bound and not all_better:
        out["verdict"] = "unresolved"
    elif out["worse_by"] > bound:
        out["verdict"] = "regression"
    else:
        out["verdict"] = "ok"
    return out


def by_workload(result, metric):
    """{workload: [values in run order]} of one result file."""
    runs = sorted(result["runs"], key=lambda r: (r.get("rep", 0),
                                                  r["workload"]))
    values = {}
    for run in runs:
        if metric in run["metrics"]:
            values.setdefault(run["workload"], []).append(run["metrics"][metric])
    return values


def failures(result):
    return sum(run.get("failed", 0) for run in result["runs"])


def compare(parent, change, bench):
    """All verdicts: [(workload, metric, verdict dict)]."""
    machines_match = same_machine(parent.get("fingerprint") or {},
                                  change.get("fingerprint") or {})
    rows = []
    for spec in bench["end_to_end"]:
        p_values = by_workload(parent, spec["name"])
        c_values = by_workload(change, spec["name"])
        for workload in [w["name"] for w in bench["workloads"]]:
            if workload in p_values and workload in c_values:
                rows.append((workload, spec["name"],
                             verdict(spec, p_values[workload],
                                     c_values[workload], machines_match)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        bench = json.load(f)
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)

    if not same_machine(parent.get("fingerprint") or {},
                        change.get("fingerprint") or {}):
        print("fingerprints differ: timing metrics are not compared")
        print("  parent: " + json.dumps(parent.get("fingerprint")))
        print("  change: " + json.dumps(change.get("fingerprint")))

    status = 0
    print(f"{'workload':<10} {'metric':<17} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'wins':>6} {'spread':>7} verdict")
    for workload, metric, v in compare(parent, change, bench):
        p = f"{v['parent_median']:.4g} [{v['parent_q1']:.4g},{v['parent_q3']:.4g}]"
        c = f"{v['change_median']:.4g} [{v['change_q1']:.4g},{v['change_q3']:.4g}]"
        print(f"{workload:<10} {metric:<17} {p:>30} {c:>30} "
              f"{v['wins']:>3}/{v['pairs']:<2} {v['spread']:>7.3f} "
              f"{v['verdict']}")
        if v["verdict"] in ("regression", "refused"):
            status = 1
    if failures(change) > failures(parent):
        print(f"the change failed {failures(change)} operations, the parent "
              f"{failures(parent)}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
