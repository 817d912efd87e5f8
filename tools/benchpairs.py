#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/benchpairs.py PARENT CHANGE --seeds 201-210 \
        --workloads analyze_modes,open_pair --seconds 50 --out BENCH_x.json

For each workload and seed, `perfbench/run.py --trace 0` runs once in each
checkout, one run right after the other; the first pair starts with PARENT,
the next with CHANGE, and so on, so that a drift in the host's speed falls on
both sides alike. The metric list, each metric's better direction and its
bound come from PARENT's `BENCHMARK.json`.

The JSON written to --out holds, per workload and metric, each side's values,
median and quartiles (`statistics.quantiles(method="inclusive")`, the same as
numpy's linear percentile), the parent's IQR, the pairs each side won, the
median's change as a fraction of the parent's (worse positive) against the
bound, and the gain verdict: the change won at least 9 of every 10 pairs and
its median is better than the parent's by more than the parent's IQR.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(first quartile, median, third quartile) of `values`."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(parent, change, better, bound):
    """The paired comparison of one metric; `parent[i]` and `change[i]`
    ran as pair i. A pair whose values are equal is a win for neither."""
    sign = 1.0 if better == "lower" else -1.0  # a gain is positive
    gains = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gain = sign * (pm - cm)
    worse = -gain / abs(pm) if pm else (0.0 if gain >= 0 else float("inf"))
    wins = sum(g > 0 for g in gains)
    return {"better": better, "bound": bound,
            "parent": {"median": pm, "q1": p1, "q3": p3, "iqr": p3 - p1},
            "change": {"median": cm, "q1": c1, "q3": c3, "iqr": c3 - c1},
            "median_change_frac": (cm - pm) / abs(pm) if pm else None,
            "worse_frac": worse, "within_bound": worse <= bound,
            "change_wins": wins, "parent_wins": sum(g < 0 for g in gains),
            "gain_holds": 10 * wins >= 9 * len(gains) and gain > p3 - p1,
            "parent_values": list(parent), "change_values": list(change)}


def parse_seeds(text):
    """`201-210` or `201,205,209` as a list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout, workload, seed, seconds):
    """The last stdout line of one untraced benchmark run, and the run's
    machine record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if got.returncode != 0:
        sys.exit(f"{checkout}: {' '.join(cmd[1:])} exited "
                 f"{got.returncode}:\n{got.stderr}")
    line = json.loads(got.stdout.strip().splitlines()[-1])
    result = Path(checkout, "perfbench", "out", workload,
                  f"result-s{seed}-t0.json")
    return line, json.loads(result.read_text())["machine"]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv[1:])
    sides = {"parent": args.parent, "change": args.change}
    declared = json.loads(Path(args.parent, "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    report = {"harness": "python3 perfbench/run.py --workload W --seed N "
                         f"--seconds {args.seconds:g} --trace 0",
              "run_seconds": args.seconds,
              "quartiles": "statistics.quantiles(n=4, method='inclusive'), "
                           "equal to numpy.percentile 25/50/75 (linear)",
              "gain_rule": "the change wins >= 9 of every 10 pairs and its "
                           "median beats the parent's by more than the "
                           "parent's IQR",
              "order": "pair 1 runs the parent first, pair 2 the change "
                       "first, and so on",
              "workloads": {}}
    for workload in args.workloads.split(","):
        values = {side: {name: [] for name in metrics} for side in sides}
        runs = {side: {"correct": [], "attempted": 0, "failed": 0}
                for side in sides}
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                line, mach = run_once(sides[side], workload, seed,
                                      args.seconds)
                report.setdefault(side, {k: mach[k] for k in
                                         ("git_commit", "src_sha256")})
                report.setdefault("machine", {
                    k: mach[k] for k in ("nproc", "cpus_usable", "cpu_model",
                                         "python", "numpy")})
                runs[side]["correct"].append(line["correct"])
                runs[side]["attempted"] += line["attempted"]
                runs[side]["failed"] += line["failed"]
                for name in metrics:
                    values[side][name].append(line["metrics"][name]["value"])
                print(f"{workload} seed={seed} {side}: "
                      + ", ".join(f"{k}={line['metrics'][k]['value']:.4g}"
                                  for k in metrics), flush=True)
        report["workloads"][workload] = {
            "pairs": len(args.seeds), "seeds": args.seeds,
            "all_runs_correct": {s: all(r["correct"])
                                 for s, r in runs.items()},
            "failed_operations": {s: r["failed"] for s, r in runs.items()},
            "attempted_operations": {s: r["attempted"]
                                     for s, r in runs.items()},
            "metrics": {name: compare(values["parent"][name],
                                      values["change"][name],
                                      m["better"], m["bound"])
                        for name, m in metrics.items()}}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv)
