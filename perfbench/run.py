"""Benchmark of fingan.run_experiment on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every set-up sample and every measurement
runs in its own fresh child process (perfbench/worker.py), one at a time.
The last line of standard output is one JSON object: with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

# BLAS threads, pinned in each child's environment before numpy loads
THREAD_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
SETUP_SAMPLES = 9  # fresh processes that each time imports + data + files
TIME_LIMIT_S = 170  # the whole run, child processes included


def run_child(args, deadline):
    """Run the worker in a fresh process; returns its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark time limit reached")
    proc = subprocess.run([sys.executable, WORKER, *args], stdout=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=ROOT,
                          env=dict(os.environ, **THREAD_PIN))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fingan", "__init__.py")):
        sys.exit(f"no fingan sources under {ROOT}/src; run from a repository checkout")

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        setups = [run_child(common, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        result = run_child(common + ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    times = result["times"]
    attempted, failed = result["attempted"], result["failed"]
    lo, hi = quartiles(times)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} runs, {failed} failed")
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"run_experiment times (s), n={len(times)}: median {statistics.median(times):.4f}"
          f" q1 {lo:.4f} q3 {hi:.4f}; in run order: "
          + " ".join(f"{t:.3f}" for t in times))
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "experiment_s": (statistics.median(times), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
            "auc_mean": (result["auc_mean"], "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
