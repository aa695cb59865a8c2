"""The benchmark's tracer rebinds fingan names by module and attribute; every
name it lists must exist, or entering the tracer fails, and the wrapped
functions must train exactly as the unwrapped ones do."""

import importlib.util
from pathlib import Path

import numpy as np

from fingan.fixtures import mixed_imbalanced
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
