"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import compare  # noqa: E402
import fingan  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Small enough to run in seconds; each still has both classes in every fold.
TINY_ROWS = {"hybrid_ctgan_kfold": 500, "forest_kfold": 400, "ocsvm_wgan_holdout": 600}


def _csv_bytes(workload, seed, directory):
    workloads.write_inputs(workload, seed, directory)
    with open(os.path.join(directory, f"{workload.name}.csv"), "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    w = workloads.WORKLOADS[name]
    first = _csv_bytes(w, 7, tmp_path / "a")
    assert first == _csv_bytes(w, 7, tmp_path / "b")
    assert first != _csv_bytes(w, 8, tmp_path / "c")


def test_tracer_restores_every_rebound_name(tmp_path):
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in tracer.REBINDS]
    w = workloads.WORKLOADS["forest_kfold"]
    config_path = workloads.write_inputs(w, 1, str(tmp_path),
                                         table=workloads.churn_table(1, n_rows=200))
    tr = tracer.Tracer()
    with tr:
        assert all(getattr(m, a) is not o for m, a, o in originals)
        fingan.run_experiment(fingan.ExperimentConfig.from_json(config_path))
    assert all(getattr(m, a) is o for m, a, o in originals)
    recorded = len(tr.names)
    assert recorded > 0
    fingan.run_experiment(fingan.ExperimentConfig.from_json(config_path))
    assert len(tr.names) == recorded


def test_self_time_adds_up_on_a_span_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    #      b1 [5, 6]  b2 [7, 9]
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0]
    parents = [-1, 0, 1, 0, 3, 3]
    own = tracer.self_times(starts, ends, parents)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    assert sum(own) == pytest.approx(ends[0] - starts[0])


def test_layer_shares_cover_the_whole_run():
    spans = {"name": ["pipeline.run_experiment", "data_model.load_csv",
                      "classifiers.fit.tree", "classifiers.best_split"],
             "start": [0.0, 0.0, 2.0, 3.0], "end": [10.0, 1.0, 9.0, 8.0],
             "parent": [-1, 0, 0, 2]}
    counters = tracer.Tracer().counters
    m = tracer.layer_metrics(spans, counters)
    assert sum(m[f"share.{layer}"][0] for layer in tracer.LAYERS) == pytest.approx(100.0)
    assert m["share.classifiers"][0] == pytest.approx(70.0)
    assert m["classifiers.best_split.calls"][0] == 1
    assert m["pipeline.self_s"][0] == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_output_check(name, tmp_path):
    # auc_reference holds for the full-size table only, so the tiny run
    # checks auc_mean for nothing but being a share
    w = dataclasses.replace(workloads.WORKLOADS[name], auc_reference=0.5,
                            auc_tolerance=0.5)
    table = w.make_table(3, n_rows=TINY_ROWS[name])
    runner = worker.Runner(w, workloads.write_inputs(w, 3, str(tmp_path), table=table))
    metrics, times = worker.measure_traced(runner, 0, str(tmp_path / "spans.json"))
    assert runner.failed == 0
    assert runner.attempted == len(times) == 3
    assert json.load(open(tmp_path / "spans.json"))["name"][0] == "pipeline.run_experiment"
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        per_layer = [m["name"] for m in json.load(f)["per_layer"]]
    assert sorted(metrics) == sorted(per_layer)
    if name == "forest_kfold":
        for layer in ("nn_core", "gan", "ctgan", "ocsvm"):
            assert metrics[f"share.{layer}"][0] == 0.0
        assert metrics["nn_core.forward.calls"][0] == 0
        assert metrics["classifiers.tree_nodes"][0] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "forest_kfold", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_comparator_marks_changed_exact_metrics(tmp_path, capsys):
    def run(auc, nodes, seconds):
        return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
            "experiment_s": {"value": seconds, "unit": "s"},
            "auc_mean": {"value": auc, "unit": "ratio"},
            "classifiers.tree_nodes": {"value": nodes, "unit": "count"}}})
    (tmp_path / "p.jsonl").write_text(run(0.7, 10, 5.0) + "\n" + run(0.8, 12, 5.1) + "\n")
    (tmp_path / "c.jsonl").write_text(run(0.7, 10, 5.3) + "\n" + run(0.79, 12, 4.9) + "\n")
    compare.main([str(tmp_path / "p.jsonl"), str(tmp_path / "c.jsonl")])
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "CHANGED" in lines["auc_mean"]
    assert "CHANGED" not in lines["classifiers.tree_nodes"]
    assert "CHANGED" not in lines["experiment_s"]


def test_comparator_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == (10, "better")
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[1] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == (0, "within bound")
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1)[1] == "unresolved"
