"""Compare two result sets of one workload: a parent and a change.

    python3 perfbench/compare.py parent.jsonl [change.jsonl]

A result file holds the last stdout line of each run.py run of one
workload and one --trace value, one line per seed; the README shows the
loop that makes one. Line i of the parent and line i of the change form a
pair, so both files must list the same seeds in the same order. A change
wins a pair when its value is better; ties count for neither.

Verdicts on end-to-end metrics: "better" when the change wins at least 9
in 10 pairs and the medians differ by more than the parent's quartile
spread; "worse" when the change's median is worse than the parent's by
more than the metric's bound in BENCHMARK.json; "unresolved" when the
parent's own spread exceeds the bound and not every change run beats
every parent run; otherwise "within bound". Counts and auc_mean are exact
for a seed, so any pair that differs in them is marked CHANGED.
"""

import argparse
import json
import os
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
EXACT_PER_SEED = ("auc_mean",)  # besides every metric whose unit is count


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3


def verdict(parent, change, better, bound):
    """Parent vs change values of one metric, paired by position."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, p_q1, p_q3 = summary(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1:
        return wins, "better"
    if worse_by > bound:
        return wins, "worse"
    every_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not every_better:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    parent = load(args.parent)
    change = load(args.change) if args.change else None
    if change is not None and len(change) != len(parent):
        raise SystemExit(f"{len(parent)} parent runs but {len(change)} change runs")
    for side, runs in (("parent", parent), ("change", change)):
        if runs is not None:
            print(f"{side}: {len(runs)} runs, {sum(r['failed'] for r in runs)} of "
                  f"{sum(r['attempted'] for r in runs)} experiments failed")
    for name, first in parent[0]["metrics"].items():
        unit = first["unit"]
        p_vals = [r["metrics"][name]["value"] for r in parent]
        med, q1, q3 = summary(p_vals)
        spread = (q3 - q1) / abs(med) if med else 0.0
        line = (f"{name:<34} median {med:.6g} {unit} q1 {q1:.6g} q3 {q3:.6g}"
                f" spread {spread:.2%}")
        if name in spec:
            line += f" bound {spec[name]['bound']:.0%}"
        if change is not None:
            c_vals = [r["metrics"][name]["value"] for r in change]
            c_med, c_q1, c_q3 = summary(c_vals)
            line += f" | change median {c_med:.6g} q1 {c_q1:.6g} q3 {c_q3:.6g}"
            if name in spec:
                wins, word = verdict(p_vals, c_vals, spec[name]["better"],
                                     spec[name]["bound"])
                line += f" | won {wins}/{len(p_vals)} {word}"
            if (unit == "count" or name in EXACT_PER_SEED) and p_vals != c_vals:
                line += " | CHANGED"
        print(line)


if __name__ == "__main__":
    main()
