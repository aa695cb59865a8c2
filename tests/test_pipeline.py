import json
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

import fingan.ocsvm as ocsvm
import fingan.pipeline as pipeline
from fingan.classifiers import ForestParams, LogisticParams, MlpClfParams, SvmParams, TreeParams
from fingan.data_model import Schema, fit_preprocess, stratified_kfold
from fingan.errors import AuditMismatch, NonFiniteSample, SolverStallWarning
from fingan.fixtures import mixed_imbalanced, table_to_csv
from fingan.ocsvm import encode_for_kernel
from fingan.pipeline import (
    BalancerSettings,
    DatasetSettings,
    ExperimentConfig,
    OcsvmSettings,
    SplitSettings,
    balance,
    run_experiment,
)


def row_multiset(table):
    return sorted(map(tuple, np.column_stack([table.X, table.y])))


def write_dataset(tmp_path, table, stem="data"):
    csv_path = tmp_path / f"{stem}.csv"
    schema_path = tmp_path / f"{stem}.schema.json"
    table_to_csv(table, csv_path)
    schema_path.write_text(json.dumps(table.schema.to_dict()))
    return str(csv_path), str(schema_path)


def make_config(tmp_path, table, **overrides):
    csv_path, schema_path = write_dataset(tmp_path, table)
    d = {
        "dataset": {"csv": csv_path, "schema": schema_path},
        "split": {"mode": "holdout", "train_fraction": 0.8},
        "balancer": {"oversampler": "none", "epochs": 3},
        "classifiers": [{"kind": "tree"}],
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    d.update(overrides)
    return ExperimentConfig.from_dict(d)


class TestConfig:
    def test_defaults_materialized(self, tmp_path):
        config = make_config(tmp_path, mixed_imbalanced(40, 10))
        d = config.to_dict()
        assert d["balancer"]["ocsvm"]["nu"] == 0.5
        assert d["split"]["k"] == 10

    def test_to_dict_round_trips(self, tmp_path):
        config = make_config(
            tmp_path, mixed_imbalanced(40, 10), split={"mode": "kfold", "k": 3},
            balancer={"oversampler": "ctgan", "target": 25, "max_modes": 4,
                      "ocsvm": {"enabled": True, "kernel": "rbf", "gamma": 0.2}})
        d = config.to_dict()
        assert ExperimentConfig.from_dict(d).to_dict() == d

    def test_unknown_classifier_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_config(tmp_path, mixed_imbalanced(40, 10),
                        classifiers=[{"kind": "nope"}])

    def test_empty_classifiers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_config(tmp_path, mixed_imbalanced(40, 10), classifiers=[])

    def test_unknown_oversampler_rejected(self):
        with pytest.raises(ValueError):
            BalancerSettings(oversampler="smote")

    @pytest.mark.parametrize("mode", ["Holdout", "cv", ""])
    def test_unknown_split_mode_rejected(self, tmp_path, mode):
        with pytest.raises(ValueError, match="split mode"):
            SplitSettings(mode=mode)
        with pytest.raises(ValueError, match="split mode"):
            make_config(tmp_path, mixed_imbalanced(40, 10), split={"mode": mode})

    @pytest.mark.parametrize("balancer", [
        {"epochs": 0}, {"batch_size": 0}, {"latent_dim": -1},
        {"ocsvm": {"nu": 0}}, {"ocsvm": {"nu": 1.5}}, {"ocsvm": {"nu": -0.1}},
        {"ocsvm": {"kernel": "poly"}},
        {"ocsvm": {"gamma": 0}}, {"ocsvm": {"gamma": -1.0}},
        {"ocsvm": {"gamma": "fast"}}, {"ocsvm": {"gamma": None}},
        {"learning_rate": -1.0}, {"learning_rate": 0.0}, {"max_modes": 0},
        {"target": "Parity"}, {"target": -1}, {"target": 2.5}, {"target": "10"},
    ], ids=str)
    def test_bad_balancer_rejected_before_reading(self, tmp_path, balancer):
        d = {"dataset": {"csv": str(tmp_path / "absent.csv"),
                         "schema": str(tmp_path / "absent.schema.json")},
             "balancer": balancer}
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("split", [
        {"mode": "kfold", "k": 1}, {"mode": "kfold", "k": 0},
        {"mode": "holdout", "train_fraction": 0.0},
        {"mode": "holdout", "train_fraction": 1.0},
    ], ids=str)
    def test_bad_split_rejected_before_reading(self, tmp_path, split):
        d = {"dataset": {"csv": str(tmp_path / "absent.csv"),
                         "schema": str(tmp_path / "absent.schema.json")},
             "split": split}
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("classifier", [
        {"kind": "tree", "max_features": "sqrt"},
        {"kind": "forest", "max_features": "sqrt"},
        {"kind": "mlp", "batch_size": 0}, {"kind": "mlp", "epochs": 0},
        "tree", {"kind": "tree", "max_depth": "3"}, {"kind": "mlp", "epochs": 2.0},
        {"kind": "forest", "bootstrap": 1}, {"kind": ["tree"]},
        {"kind": "logistic", "l2": -1.0}, {"kind": "logistic", "l2": float("nan")},
        {"kind": "svm", "C": 0.0}, {"kind": "svm", "epochs": 0},
    ], ids=str)
    def test_bad_classifier_rejected_before_reading(self, tmp_path, classifier):
        d = {"dataset": {"csv": str(tmp_path / "absent.csv"),
                         "schema": str(tmp_path / "absent.schema.json")},
             "classifiers": [{"kind": "logistic"}, classifier]}
        with pytest.raises(ValueError, match="max_features|"
                           "classifier 'tree' must be an object|unknown classifier kind|"
                           "classifier '(tree|mlp|forest|logistic|svm)': "
                           "(max_depth|epochs|batch_size|bootstrap|l2|C) must be"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("section, key, d", [
        ("split", "epoch", {"split": {"mode": "kfold", "epoch": 3}}),
        ("balancer", "epoch", {"balancer": {"epoch": 3}}),
        ("balancer.ocsvm", "epoch",
         {"balancer": {"ocsvm": {"enabled": True, "epoch": 3}}}),
        ("top-level", "balancr", {"balancr": {"oversampler": "ctgan"}}),
        ("dataset", "sheet", {"dataset": {"sheet": 2}}),
        ("classifier 'tree'", "max_dept",
         {"classifiers": [{"kind": "tree", "max_dept": 3}]}),
        ("classifier 'logistic'", "epochs",
         {"classifiers": [{"kind": "logistic", "epochs": 2000, "lr": 0.5}]}),
        ("classifier 'logistic'", "lr", {"classifiers": [{"kind": "logistic", "lr": 0.5}]}),
        ("classifier 'forest'", "seed", {"classifiers": [{"kind": "forest", "seed": 1}]}),
        ("classifier 'mlp'", "l2", {"classifiers": [{"kind": "mlp", "l2": 0.1}]}),
        ("classifier 's'", "seed",
         {"classifiers": [{"kind": "svm", "name": "s", "seed": 1}]}),
    ], ids=["split", "balancer", "balancer.ocsvm", "top-level", "dataset", "tree",
            "logistic-epochs", "logistic-lr", "forest", "mlp", "svm"])
    def test_unknown_key_named(self, section, key, d):
        d["dataset"] = {"csv": "absent.csv", "schema": "absent.schema.json",
                        **d.get("dataset", {})}
        with pytest.raises(ValueError, match=f"unknown {section} setting.*'{key}'"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest", "mlp", "svm"])
    def test_every_classifier_option_accepted(self, kind):
        spec = {"kind": kind, "name": kind, **asdict(pipeline.CLASSIFIER_PARAMS[kind]())}
        config = ExperimentConfig.from_dict(
            {"dataset": {"csv": "absent.csv", "schema": "absent.schema.json"},
             "classifiers": [spec]})
        assert config.classifiers == [spec]

    def test_learning_rate_reaches_the_oversampler(self, monkeypatch):
        seen = []
        monkeypatch.setattr(pipeline, "train_ctgan", lambda m, c: seen.append(c))
        monkeypatch.setattr(pipeline, "train_gan", lambda m, c: seen.append(c))
        for oversampler in ("gan", "wgan", "ctgan"):
            pipeline.train_oversampler(
                None, BalancerSettings(oversampler=oversampler, learning_rate=0.003), 0)
        assert [c.learning_rate for c in seen] == [0.003] * 3

    @pytest.mark.parametrize("ocsvm", [
        {"nu": 1.0}, {"nu": 0.01, "kernel": "rbf", "gamma": 0.1},
        {"kernel": "linear", "gamma": "auto"}, {"gamma": "0.5"},
    ], ids=str)
    def test_valid_ocsvm_settings_accepted(self, ocsvm):
        assert OcsvmSettings(**ocsvm).nu == ocsvm.get("nu", 0.5)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FINGAN_SEED", "99")
        config = make_config(tmp_path, mixed_imbalanced(40, 10), seed=3)
        assert config.seed == 99

    @pytest.mark.parametrize("named, d", [
        ("split: k must be", {"split": {"mode": "kfold", "k": 3.0}}),
        ("split: train_fraction must be", {"split": {"train_fraction": "0.8"}}),
        ("split: mode must be", {"split": {"mode": 3}}),
        ("balancer: epochs must be", {"balancer": {"epochs": 1.5}}),
        ("balancer: max_modes must be", {"balancer": {"max_modes": 2.0}}),
        ("balancer: learning_rate must be", {"balancer": {"learning_rate": "0.1"}}),
        ("balancer: batch_size must be", {"balancer": {"batch_size": True}}),
        ("balancer: target must be", {"balancer": {"target": True}}),
        ("balancer.ocsvm: nu must be", {"balancer": {"ocsvm": {"nu": "0.5"}}}),
        ("balancer.ocsvm: coef0 must be", {"balancer": {"ocsvm": {"coef0": "x"}}}),
        ("balancer.ocsvm: enabled must be", {"balancer": {"ocsvm": {"enabled": "no"}}}),
        ("balancer.ocsvm: gamma must be", {"balancer": {"ocsvm": {"gamma": True}}}),
        ("balancer: ocsvm must be an object", {"balancer": {"ocsvm": [True]}}),
        ("top-level: seed must be", {"seed": 1.7}),
        ("top-level: seed must be", {"seed": True}),
        ("top-level: seed must be", {"seed": -1}),
        ("top-level: output_dir must be", {"output_dir": 5}),
        ("top-level: split must be", {"split": [1]}),
        ("top-level: balancer must be", {"balancer": None}),
        ("top-level: classifiers must be", {"classifiers": {"kind": "tree"}}),
        ("dataset: csv must be", {"dataset": {"csv": 5, "schema": "absent.schema.json"}}),
        ("dataset: schema must be", {"dataset": {"csv": "absent.csv", "schema": None}}),
        ("top-level: dataset must be", {"dataset": None}),
    ], ids=str)
    def test_bad_type_rejected_before_reading(self, named, d):
        d = {"dataset": {"csv": "absent.csv", "schema": "absent.schema.json"}, **d}
        with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
            ExperimentConfig.from_dict(d)

    def test_missing_dataset_rejected(self):
        with pytest.raises(ValueError, match="^dataset: csv must be a string, got None"):
            ExperimentConfig.from_dict({"classifiers": [{"kind": "tree"}]})

    def test_direct_construction_typed(self):
        for cls, key, value in ((SplitSettings, "k", 3.0),
                                (BalancerSettings, "epochs", "3"),
                                (OcsvmSettings, "enabled", 1),
                                (DatasetSettings, "csv", None),
                                (TreeParams, "max_depth", "3"),
                                (ForestParams, "bootstrap", 1),
                                (MlpClfParams, "epochs", 2.0),
                                (LogisticParams, "l2", "0.1"),
                                (SvmParams, "C", True)):
            with pytest.raises(ValueError, match=f"{key} must be"):
                cls(**{key: value})

    @pytest.mark.parametrize("value", ["1.5", "-3", "abc", ""])
    def test_bad_env_seed_named(self, monkeypatch, value):
        monkeypatch.setenv("FINGAN_SEED", value)
        d = {"dataset": {"csv": "absent.csv", "schema": "absent.schema.json"}, "seed": 3}
        with pytest.raises(ValueError, match="FINGAN_SEED must be an integer >= 0"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("classifiers", [
        [{"kind": "tree", "max_depth": 1}, {"kind": "tree"}],
        [{"kind": "tree"}, {"kind": "logistic", "name": "tree"}],
        [{"kind": "forest", "name": "a"}, {"kind": "mlp"}, {"kind": "svm", "name": "a"}],
    ], ids=str)
    def test_duplicate_classifier_names_rejected(self, classifiers):
        name = classifiers[-1].get("name", classifiers[-1]["kind"])
        d = {"dataset": {"csv": "absent.csv", "schema": "absent.schema.json"},
             "classifiers": classifiers}
        with pytest.raises(ValueError, match=f"two classifiers are named '{name}'"):
            ExperimentConfig.from_dict(d)


class TestBalance:
    def test_audit_reconciles_gan(self):
        table = mixed_imbalanced(90, 10, seed=0)
        settings = BalancerSettings(oversampler="gan", epochs=3, batch_size=8)
        balanced, audit, _ = balance(table, settings, seed=0)
        assert audit["majority_before"] == 90
        assert audit["minority_before"] == 10
        assert audit["majority_kept"] == 90
        assert audit["synthetic"] == 80
        assert audit["balanced_size"] == balanced.n_rows == 180

    def test_audit_reconciles_hybrid(self):
        table = mixed_imbalanced(90, 10, seed=1)
        settings = BalancerSettings(
            oversampler="gan", epochs=3, batch_size=8,
            ocsvm=OcsvmSettings(enabled=True, nu=0.5, kernel="rbf", gamma=0.3))
        balanced, audit, _ = balance(table, settings, seed=0)
        kept = audit["majority_kept"]
        assert kept == audit["ocsvm"]["support_vectors"] <= 90
        assert audit["synthetic"] == kept - 10
        assert balanced.n_positive == balanced.n_negative == kept

    def test_ocsvm_kernel_settings_used_with_auto_gamma(self):
        table = mixed_imbalanced(80, 20, seed=1)
        settings = BalancerSettings(
            ocsvm=OcsvmSettings(enabled=True, kernel="rbf", coef0=0.7))
        _, audit, _ = balance(table, settings, seed=0)
        width = encode_for_kernel(table, fit_preprocess(table)).shape[1]
        assert audit["ocsvm"]["kernel"] == "rbf"
        assert audit["ocsvm"]["coef0"] == 0.7
        assert audit["ocsvm"]["gamma"] == 1.0 / width

    def test_nu_one_hybrid_equals_oversample_only(self):
        # a full-support undersample must leave the hybrid pipeline
        # indistinguishable from plain oversampling
        table = mixed_imbalanced(60, 12, seed=2)
        plain = BalancerSettings(oversampler="gan", epochs=3, batch_size=8)
        hybrid = BalancerSettings(
            oversampler="gan", epochs=3, batch_size=8,
            ocsvm=OcsvmSettings(enabled=True, nu=1.0, kernel="rbf", gamma=0.3))
        a, _, _ = balance(table, plain, seed=4)
        b, _, _ = balance(table, hybrid, seed=4)
        assert row_multiset(a) == row_multiset(b)

    def test_dropped_row_raises_audit_mismatch(self, monkeypatch):
        table = mixed_imbalanced(90, 10, seed=0)
        original = pipeline.balance_by_oversampling

        def drop_one_majority_row(train, model, target, seed):
            balanced = original(train, model, target, seed=seed)
            first_majority = np.flatnonzero(balanced.y == 0)[0]
            return balanced.subset(np.delete(np.arange(balanced.n_rows), first_majority))

        monkeypatch.setattr(pipeline, "balance_by_oversampling", drop_one_majority_row)
        settings = BalancerSettings(oversampler="gan", epochs=3, batch_size=8)
        with pytest.raises(AuditMismatch):
            balance(table, settings, seed=0)

    def test_lost_synthetic_row_raises_audit_mismatch(self, monkeypatch):
        table = mixed_imbalanced(90, 10, seed=0)
        original = pipeline.balance_by_oversampling

        def drop_one_synthetic_row(train, model, target, seed):
            balanced = original(train, model, target, seed=seed)
            last_positive = np.flatnonzero(balanced.y == 1)[-1]
            return balanced.subset(np.delete(np.arange(balanced.n_rows), last_positive))

        monkeypatch.setattr(pipeline, "balance_by_oversampling", drop_one_synthetic_row)
        settings = BalancerSettings(oversampler="gan", epochs=3, batch_size=8)
        with pytest.raises(AuditMismatch):
            balance(table, settings, seed=0)

    def test_ocsvm_stall_warned_and_audited(self, monkeypatch):
        monkeypatch.setattr(ocsvm, "MAX_SWEEPS", 1)
        table = mixed_imbalanced(60, 12, seed=2)
        settings = BalancerSettings(ocsvm=OcsvmSettings(enabled=True, kernel="sigmoid"))
        with pytest.warns(SolverStallWarning, match="hit 1 sweeps"):
            _, audit, _ = balance(table, settings, seed=0)
        assert audit["ocsvm"]["stalled"] is True

    def test_none_balancer_identity(self):
        table = mixed_imbalanced(30, 10, seed=3)
        balanced, audit, model = balance(table, BalancerSettings(), seed=0)
        assert row_multiset(balanced) == row_multiset(table)
        assert audit["synthetic"] == 0
        assert model is None


class TestRunHoldout:
    def test_non_finite_synthetic_rows_fail_typed(self, tmp_path):
        # at this learning rate CTGAN's generator puts NaN in 2 of the 3
        # synthetic rows at seed 23, and a report used to be written with them
        config = make_config(
            tmp_path, mixed_imbalanced(8, 4, 0),
            split={"mode": "holdout", "train_fraction": 0.75},
            balancer={"oversampler": "ctgan", "epochs": 1, "learning_rate": 4.77e153,
                      "batch_size": 2, "latent_dim": 2, "max_modes": 1},
            seed=23)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteSample):
            run_experiment(config)
        assert not (tmp_path / "out" / "report.json").exists()

    def test_report_files_written(self, tmp_path):
        config = make_config(tmp_path, mixed_imbalanced(120, 30, seed=0),
                             classifiers=[{"kind": "tree"}, {"kind": "logistic"}])
        report = run_experiment(config)
        out = tmp_path / "out"
        for name in ("report.json", "report.txt", "audit.json", "rules.txt"):
            assert (out / name).exists()
        assert report["t_tests"] is None and "balance_s" in report["timings"]
        assert set(report["results"]) == {"tree", "logistic"}
        for res in report["results"].values():
            m = res["metrics"]
            assert m["auc"] == pytest.approx(
                (m["sensitivity"] + m["specificity"]) / 2)

    def test_report_json_deterministic(self, tmp_path):
        table = mixed_imbalanced(100, 25, seed=1)
        reports = []
        for run in range(2):
            config = make_config(
                tmp_path, table,
                balancer={"oversampler": "gan", "epochs": 3, "batch_size": 8},
                output_dir=str(tmp_path / f"out{run}"))
            run_experiment(config)
            with open(tmp_path / f"out{run}" / "report.json") as f:
                d = json.load(f)
            d.pop("timings")
            d["config"].pop("output_dir")  # necessarily differs per run
            reports.append(json.dumps(d, sort_keys=True))
        assert reports[0] == reports[1]

    def test_rules_have_full_fidelity_metadata(self, tmp_path):
        config = make_config(tmp_path, mixed_imbalanced(120, 30, seed=2))
        report = run_experiment(config)
        assert report["rules"]
        for rule in report["rules"]:
            assert rule["label"] in (0, 1)
            assert 0.5 <= rule["confidence"] <= 1.0


class TestRunKfold:
    def test_fold_count_and_mean_identity(self, tmp_path):
        config = make_config(tmp_path, mixed_imbalanced(180, 40, seed=0),
                             split={"mode": "kfold", "k": 5})
        report = run_experiment(config)
        res = report["results"]["tree"]
        assert len(res["folds"]) == len(report["audit"]) == 5
        for key in ("sensitivity", "specificity", "accuracy", "auc"):
            scores = [fold[key] for fold in res["folds"]]
            assert res["mean"][key] == pytest.approx(np.mean(scores))
            assert res["std"][key] == pytest.approx(np.std(scores, ddof=1))
        assert report["timings"]["balance_s"] >= 0.0

    def test_report_text_names_its_df(self, tmp_path):
        config = make_config(tmp_path, mixed_imbalanced(90, 30, seed=5),
                             split={"mode": "kfold", "k": 3})
        run_experiment(config)
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "'tree' (4 df); * marks |t| > 2.83." in text
        assert "2.83 is the paper's two-tailed 1% critical value for k = 10" in text

    def test_t_test_matrix(self, tmp_path):
        config = make_config(
            tmp_path, mixed_imbalanced(150, 40, seed=3),
            split={"mode": "kfold", "k": 3},
            classifiers=[{"kind": "tree"}, {"kind": "logistic"}])
        report = run_experiment(config)
        best = next(iter(report["t_tests"].values()))["vs"]
        assert report["t_tests"][best]["t"] == 0.0
        assert not report["t_tests"][best]["significant"]
        for res in report["results"].values():
            assert len(res["folds"]) == 3

    def test_no_validation_leakage(self, tmp_path, monkeypatch):
        # sentinel: every table handed to a classifier fit must be disjoint
        # from the fold it is evaluated on
        table = mixed_imbalanced(90, 30, seed=4)
        config = make_config(tmp_path, table,
                             split={"mode": "kfold", "k": 3})
        seen = []
        original = pipeline.fit_classifier

        def spy(spec, balanced, params, seed):
            seen.append(row_multiset(balanced))
            return original(spec, balanced, params, seed)

        monkeypatch.setattr(pipeline, "fit_classifier", spy)
        run_experiment(config)

        schema = Schema.from_json(config.dataset.schema)
        from fingan.data_model import load_csv

        loaded = load_csv(config.dataset.csv, schema)
        folds = stratified_kfold(loaded, 3, config.seed)
        assert len(seen) == 3
        for trained_rows, (_, valid) in zip(seen, folds):
            assert not set(trained_rows) & set(row_multiset(valid))


@pytest.mark.parametrize("oversampler", ["gan", "ctgan"])
@pytest.mark.parametrize("split", [{"mode": "holdout", "train_fraction": 0.75},
                                   {"mode": "kfold", "k": 3}], ids=["holdout", "kfold3"])
def test_balancing_sees_training_rows_only(tmp_path, monkeypatch, split, oversampler):
    # preprocessing, OCSVM undersampling and oversampler training must each
    # receive rows of their own split's training side and no validation row
    table = mixed_imbalanced(60, 24, seed=6)
    assert len(set(row_multiset(table))) == table.n_rows  # rows are identifiable
    config = make_config(tmp_path, table, split=split,
                         balancer={"oversampler": oversampler, "epochs": 1,
                                   "batch_size": 8, "max_modes": 2,
                                   "ocsvm": {"enabled": True}})
    splits, seen = [], {}

    def record_splits(name):
        original = getattr(pipeline, name)

        def spy(*args):
            out = original(*args)
            splits.extend([out] if name == "stratified_holdout" else out)
            return out
        monkeypatch.setattr(pipeline, name, spy)

    def record_rows(name):
        original = getattr(pipeline, name)

        def spy(table, *args):
            seen.setdefault(name, []).append(set(row_multiset(table)))
            return original(table, *args)
        monkeypatch.setattr(pipeline, name, spy)

    record_splits("stratified_holdout")
    record_splits("stratified_kfold")
    trainer = "train_ctgan" if oversampler == "ctgan" else "train_gan"
    for name in ("fit_preprocess", "undersample_majority", trainer):
        record_rows(name)
    run_experiment(config)

    assert len(splits) == (1 if split["mode"] == "holdout" else 3)
    assert sorted(seen) == sorted(["fit_preprocess", "undersample_majority", trainer])
    for name, per_split in seen.items():
        assert len(per_split) == len(splits), name
        for rows, (train, valid) in zip(per_split, splits):
            assert rows, name
            assert rows <= set(row_multiset(train)), name
            assert not rows & set(row_multiset(valid)), name
