"""Properties over the config space the parser accepts.

Every accepted config either runs, with audits that reconcile per class and
a report.json (timings aside) that repeats under the same seed, given again
by FINGAN_SEED, or fails with a typed error. Any one setting given a value of another JSON type is
rejected when the config is parsed.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fingan.errors import FinganError
from fingan.fixtures import mixed_imbalanced, table_to_csv
from fingan.pipeline import ExperimentConfig, run_experiment

NUMBER = (int, float)
# the JSON types each setting takes, as the README lists them
SETTING_TYPES = {
    ("split", "mode"): (str,), ("split", "train_fraction"): NUMBER, ("split", "k"): (int,),
    ("balancer", "oversampler"): (str,), ("balancer", "target"): (int, str),
    ("balancer", "epochs"): (int,), ("balancer", "batch_size"): (int,),
    ("balancer", "latent_dim"): (int,), ("balancer", "learning_rate"): NUMBER,
    ("balancer", "max_modes"): (int,),
    ("balancer", "ocsvm", "enabled"): (bool,), ("balancer", "ocsvm", "nu"): NUMBER,
    ("balancer", "ocsvm", "kernel"): (str,), ("balancer", "ocsvm", "gamma"): (*NUMBER, str),
    ("balancer", "ocsvm", "coef0"): NUMBER,
    ("dataset", "csv"): (str,), ("dataset", "schema"): (str,),
    ("seed",): (int,), ("output_dir",): (str,),
}
TREE_TYPES = {"max_depth": (int,), "min_samples_leaf": (int,),
              "min_samples_split": (int,), "max_features": (str,)}
CLASSIFIER_TYPES = {
    "logistic": {"l2": NUMBER},
    "tree": TREE_TYPES,
    "forest": {**TREE_TYPES, "n_estimators": (int,), "bootstrap": (bool,)},
    "mlp": {"epochs": (int,), "batch_size": (int,)},
    "svm": {"C": NUMBER, "epochs": (int,)},
}
# a strategy for each JSON type
JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.floats(-3, 3, allow_nan=False),
    str: st.text("ab0.", max_size=3),
    list: st.lists(st.integers(0, 2), max_size=2),
    dict: st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=2),
}

numbers = st.floats(1e-3, 10.0)
tree_options = {"max_depth": st.integers(1, 5), "min_samples_leaf": st.integers(1, 8),
                "min_samples_split": st.integers(1, 8),
                "max_features": st.sampled_from(["log2", "all"])}
classifier_options = {
    "logistic": {"l2": st.floats(0.0, 1.0)},
    "tree": tree_options,
    "forest": {**tree_options, "n_estimators": st.integers(1, 3),
               "bootstrap": st.booleans()},
    "mlp": {"epochs": st.integers(1, 3), "batch_size": st.integers(1, 16)},
    "svm": {"C": numbers, "epochs": st.integers(1, 30)},
}
classifier = st.sampled_from(sorted(classifier_options)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)},
        optional={"name": st.text("xyz", min_size=1, max_size=2),
                  **classifier_options[kind]}))
configs = st.fixed_dictionaries({
    "split": st.one_of(
        st.fixed_dictionaries({"mode": st.just("holdout"),
                               "train_fraction": st.floats(0.0, 1.0, exclude_min=True,
                                                           exclude_max=True)}),
        st.fixed_dictionaries({"mode": st.just("kfold"), "k": st.integers(2, 6)})),
    "balancer": st.fixed_dictionaries({
        "oversampler": st.sampled_from(["none", "gan", "wgan", "ctgan"]),
        "target": st.one_of(st.just("parity"), st.integers(0, 30)),
        "epochs": st.just(1),
        "batch_size": st.integers(1, 16),
        "latent_dim": st.integers(1, 6),
        "learning_rate": st.floats(1e-5, 0.1),
        "max_modes": st.integers(1, 4),
        "ocsvm": st.fixed_dictionaries({
            "enabled": st.booleans(),
            "nu": st.floats(0.0, 1.0, exclude_min=True),
            "kernel": st.sampled_from(["rbf", "sigmoid", "linear"]),
            "gamma": st.one_of(st.just("auto"), numbers, numbers.map(str)),
            "coef0": st.floats(-1.0, 1.0),
        }),
    }),
    "classifiers": st.lists(classifier, min_size=1, max_size=3,
                            unique_by=lambda spec: spec.get("name", spec["kind"])),
    "seed": st.integers(0, 2**16),
})
tables = st.tuples(st.integers(8, 30), st.integers(2, 10), st.integers(0, 99))


def report_without_timings(output_dir):
    with open(os.path.join(output_dir, "report.json"), encoding="utf-8") as f:
        report = json.load(f)
    del report["timings"]
    return report


def check_audits(report, d, n_negative, n_positive):
    """Each fold's audit adds up, and the folds' training rows add up to the
    table's rows of each class."""
    balancer = d["balancer"]
    audits = [report["audit"]] if report["mode"] == "holdout" else report["audit"]
    for a in audits:
        assert a["balanced_size"] == a["majority_kept"] + a["minority_before"] + a["synthetic"]
        if balancer["ocsvm"]["enabled"]:
            assert 0 < a["majority_kept"] <= a["majority_before"]
        else:
            assert a["majority_kept"] == a["majority_before"]
        if balancer["oversampler"] == "none":
            assert a["synthetic"] == 0
        elif balancer["target"] == "parity":
            assert a["synthetic"] == max(0, a["majority_kept"] - a["minority_before"])
        else:
            assert a["synthetic"] == balancer["target"]
    if report["mode"] == "kfold":
        k = d["split"]["k"]
        assert sum(a["majority_before"] for a in audits) == (k - 1) * n_negative
        assert sum(a["minority_before"] for a in audits) == (k - 1) * n_positive
    else:  # the validation split holds the rest of each class
        for result in report["results"].values():
            c = result["confusion"]
            assert audits[0]["majority_before"] + c["tn"] + c["fp"] == n_negative
            assert audits[0]["minority_before"] + c["tp"] + c["fn"] == n_positive


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    monkeypatch.delenv("FINGAN_SEED", raising=False)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=configs, shape=tables)
def test_accepted_config_runs_or_fails_typed(d, shape):
    table = mixed_imbalanced(*shape)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, schema_path = os.path.join(tmp, "t.csv"), os.path.join(tmp, "t.schema.json")
        table_to_csv(table, csv_path)
        with open(schema_path, "w", encoding="utf-8") as f:
            json.dump(table.schema.to_dict(), f)
        d = {**d, "dataset": {"csv": csv_path, "schema": schema_path},
             "output_dir": os.path.join(tmp, "out")}
        config = ExperimentConfig.from_dict(d)
        try:
            report = run_experiment(config)
        except (FinganError, ValueError):
            return
        check_audits(report, d, table.n_negative, table.n_positive)
        first = report_without_timings(config.output_dir)
        os.environ["FINGAN_SEED"] = str(d["seed"])  # the same root seed, set the other way
        try:
            run_experiment(ExperimentConfig.from_dict({**d, "seed": d["seed"] + 1}))
        finally:
            del os.environ["FINGAN_SEED"]
        assert report_without_timings(config.output_dir) == first


def setting_paths(d):
    """Every setting of d's sections, and every option of its classifiers'
    kinds, as (path, accepted JSON types)."""
    paths = list(SETTING_TYPES.items())
    for i, spec in enumerate(d["classifiers"]):
        options = {"name": (str,), **CLASSIFIER_TYPES[spec["kind"]]}
        paths += [(("classifiers", i, key), types) for key, types in options.items()]
    return paths


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(d=configs, data=st.data())
def test_setting_of_another_type_rejected(d, data):
    d = {**json.loads(json.dumps(d)),
         "dataset": {"csv": "absent.csv", "schema": "absent.schema.json"}}
    ExperimentConfig.from_dict(d)
    path, accepted = data.draw(st.sampled_from(setting_paths(d)), label="setting")
    other = data.draw(st.sampled_from([t for t in JSON_VALUES if t not in accepted]),
                      label="type")
    value = data.draw(JSON_VALUES[other], label="value")
    section = d
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(d)
