"""The benchmark's tracer rebinds fingan names by module and attribute; every
name it lists must exist, or entering the tracer fails, and the wrapped
functions must train exactly as the unwrapped ones do."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import fingan
from fingan.fixtures import mixed_imbalanced, table_to_csv
from fingan.gan import GanConfig, train_gan

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_rebound_name_resolves():
    tracer = load_tracer()
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.REBINDS
               if not hasattr(module, attr)]
    assert missing == []
    with tracer.Tracer():
        pass


def test_traced_training_matches_untraced():
    minority = mixed_imbalanced(5, 20, seed=0).positives()
    config = GanConfig(mode="wgan", epochs=1, batch_size=8, seed=2)
    with load_tracer().Tracer() as traced:
        model = train_gan(minority, config)
    for name in ("nn_core.backward.gan", "nn_core.adam_step.gan", "gan.generator_step"):
        assert traced.names.count(name) > 0, name
    np.testing.assert_array_equal(model.generator.params,
                                  train_gan(minority, config).generator.params)


CLASSIFIERS = [{"kind": "tree"}, {"kind": "forest", "n_estimators": 2},
               {"kind": "logistic"}, {"kind": "mlp", "epochs": 1}, {"kind": "svm", "epochs": 5}]
# the spans every run reaches, and those of each run's own split and balancer;
# CTGAN's steps run in gan's adversarial loop, so they are gan.* spans
EVERY_RUN = {"pipeline.run_experiment", "pipeline.balance", "pipeline.fit_classifier",
             "pipeline.predict_labels", "data_model.load_csv", "data_model.fit_preprocess",
             "classifiers.fit.tree", "classifiers.fit.forest", "classifiers.fit.logistic",
             "classifiers.fit.mlp", "classifiers.best_split", "classifiers.predict.tree",
             "classifiers.predict.forest", "classifiers.predict.logistic",
             "classifiers.predict.mlp", "classifiers.predict.svm",
             "nn_core.forward.classifiers", "nn_core.backward.classifiers",
             "nn_core.adam_step.classifiers", "gan.balance_by_oversampling",
             "gan.generator_step", "nn_core.forward.gan", "nn_core.backward.gan",
             "nn_core.adam_step.gan",
             "evaluation.confusion", "evaluation.metrics", "evaluation.extract_rules"}


@pytest.mark.parametrize("settings, reached", [
    ({"split": {"mode": "kfold", "k": 2},
      "balancer": {"oversampler": "ctgan", "epochs": 1, "batch_size": 16, "max_modes": 2,
                   "ocsvm": {"enabled": True, "kernel": "rbf", "gamma": 0.5}}},
     {"data_model.stratified_kfold", "ocsvm.undersample_majority", "ocsvm.fit_ocsvm",
      "ocsvm.kernel_matrix", "ctgan.train_ctgan", "ctgan.fit_mode_normalizer",
      "evaluation.t_test_auc"}),
    ({"split": {"mode": "holdout"},
      "balancer": {"oversampler": "gan", "epochs": 1, "batch_size": 16}},
     {"data_model.stratified_holdout", "gan.train_gan"}),
], ids=["kfold-ocsvm-ctgan", "holdout-gan"])
def test_traced_run_records_every_layer(tmp_path, settings, reached):
    """A dispatch that bypasses a rebound name would silently zero its
    layer's metrics; every span a run reaches must be recorded."""
    table = mixed_imbalanced(60, 24, seed=3)
    table_to_csv(table, tmp_path / "t.csv")
    (tmp_path / "t.schema.json").write_text(json.dumps(table.schema.to_dict()))
    config = fingan.ExperimentConfig.from_dict(
        {"dataset": {"csv": str(tmp_path / "t.csv"), "schema": str(tmp_path / "t.schema.json")},
         "classifiers": CLASSIFIERS, "output_dir": str(tmp_path / "out"), **settings})
    with load_tracer().Tracer() as traced:
        fingan.run_experiment(config)
    assert sorted((EVERY_RUN | reached) - set(traced.names)) == []
