"""One benchmark process: set up a workload, then time run_experiment.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        [--seconds S --trace 0|1]

Without --seconds the process only sets up (imports, data generation, CSV
and schema write) and reports how long that took. With --seconds it then
runs experiments one at a time until the time is used, checks every
output, and prints one JSON line. run.py starts this file in a fresh child
process for every set-up sample and every measurement.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path[:0] = [SRC_DIR, BENCH_DIR]

import numpy as np  # noqa: E402

import fingan  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_UNTRACED = 3  # repeats needed for a median and the determinism check
MIN_TRACED = 2  # traced repeats needed to check that counts repeat


def auc_mean(report):
    """Mean over classifiers of the reported auc (fold mean in k-fold mode)."""
    aucs = [r["mean"]["auc"] if "mean" in r else r["metrics"]["auc"]
            for r in report["results"].values()]
    return float(np.mean(aucs))


def check_outputs(workload, config, out_dir, reference):
    """Problems found in one run's output files; reference holds the
    canonical report of the first run of this seed, set on first call."""
    problems = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    with open(os.path.join(out_dir, "audit.json"), encoding="utf-8") as f:
        audit = json.load(f)
    if audit != report["audit"]:
        problems.append("audit.json differs from the report's audit")
    audits = audit if isinstance(audit, list) else [audit]
    for a in audits:
        if a["majority_kept"] + a["minority_before"] + a["synthetic"] != a["balanced_size"]:
            problems.append(f"audit does not reconcile: {a}")
        if config.balancer.ocsvm.enabled and "ocsvm" not in a:
            problems.append("ocsvm enabled but the audit has no ocsvm entry")
        if a.get("ocsvm", {}).get("stalled"):
            problems.append("an OCSVM fit stalled")
    if not os.path.isfile(os.path.join(out_dir, "report.txt")):
        problems.append("report.txt missing")
    if any(spec["kind"] == "tree" for spec in config.classifiers):
        rules = os.path.join(out_dir, "rules.txt")
        if not (os.path.isfile(rules) and os.path.getsize(rules) > 0):
            problems.append("a tree ran but rules.txt is missing or empty")
    canonical = json.dumps({k: v for k, v in report.items() if k != "timings"},
                           sort_keys=True)
    reference.setdefault("report", canonical)
    if canonical != reference["report"]:
        problems.append("report.json (timings aside) differs between repeats")
    auc = auc_mean(report)
    if abs(auc - workload.auc_reference) > workload.auc_tolerance:
        problems.append(f"auc_mean {auc:.4f} outside {workload.auc_reference}"
                        f" +/- {workload.auc_tolerance}")
    return problems, auc


class Runner:
    """Runs and checks experiments of one workload and seed."""

    def __init__(self, workload, config_path):
        self.workload = workload
        self.config_path = config_path
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.auc = 0.0  # until a run completes

    def run(self, traced_by=None):
        """One run_experiment; returns its wall time in seconds."""
        config = fingan.ExperimentConfig.from_json(self.config_path)
        shutil.rmtree(config.output_dir, ignore_errors=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced_by is None:
                fingan.run_experiment(config)
            else:
                with traced_by:
                    fingan.run_experiment(config)
            elapsed = time.perf_counter() - start
            problems, self.auc = check_outputs(self.workload, config,
                                               config.output_dir, self.reference)
        except Exception:  # a failed run is counted, and the benchmark goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - start
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        self.failed += bool(problems)
        return elapsed


def measure(runner, seconds):
    times = []
    start = time.perf_counter()
    while len(times) < MIN_UNTRACED or (
            time.perf_counter() - start + statistics.median(times) <= seconds):
        times.append(runner.run())
    return times


def measure_traced(runner, seconds, spans_path):
    """Alternate traced and untraced runs, traced first; per-layer metrics
    are medians over the traced runs, and their counts must repeat exactly."""
    plain, traced, layers = [], [], []
    tr = tracer.Tracer()
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or not plain or (
            time.perf_counter() - start
            + statistics.median(plain + traced) <= seconds):
        if len(traced) <= len(plain):
            tr.reset()
            traced.append(runner.run(traced_by=tr))
            layers.append(tracer.layer_metrics(tr.spans(), tr.counters))
        else:
            plain.append(runner.run())
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(tr.spans(), f)
    differing = [name for name in tracer.EXACT_COUNTERS
                 if len({m[name][0] for m in layers}) > 1]
    if differing:
        print(f"check failed: counts differ between repeats: {differing}",
              file=sys.stderr)
        runner.failed = min(runner.attempted, runner.failed + 1)
    metrics = {name: (value if name in tracer.EXACT_COUNTERS
                      else statistics.median(m[name][0] for m in layers), unit)
               for name, (value, unit) in layers[0].items()}
    metrics["trace.experiment_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain), "s")
    return metrics, plain + traced


def machine_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.abspath(fingan.__file__).startswith(SRC_DIR + os.sep):
        sys.exit(f"fingan was imported from {fingan.__file__}, not {SRC_DIR}")
    workload = workloads.WORKLOADS[args.workload]
    config_path = workloads.write_inputs(workload, args.seed, args.workdir)
    result = {"setup_s": time.perf_counter() - _T0}

    if args.seconds is not None:
        runner = Runner(workload, config_path)
        if args.trace:
            spans_path = os.path.join(os.path.dirname(args.workdir),
                                      f"spans-{args.workload}-seed{args.seed}.json")
            metrics, times = measure_traced(runner, args.seconds, spans_path)
            result["layers"] = metrics
        else:
            times = measure(runner, args.seconds)
        result.update(
            times=times, auc_mean=runner.auc,
            attempted=runner.attempted, failed=runner.failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            machine=machine_info())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
