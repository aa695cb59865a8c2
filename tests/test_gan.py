import json

import numpy as np
import pytest

from conftest import GAN_SEEDS
from fingan.data_model import CATEGORICAL, NUMERIC, ColumnSpec, Schema, Table
from fingan.errors import EmptyMinority, SchemaMismatch
from fingan.fixtures import bimodal_minority, mixed_imbalanced
from fingan.gan import (
    GanConfig,
    GeneratorModel,
    balance_by_oversampling,
    decode_from_gan,
    encode_for_gan,
    sample_synthetic,
    train_gan,
)


def minority_mixed(n=40, seed=0):
    table = mixed_imbalanced(5, n, seed=seed)
    return table.positives()


class TestEncoding:
    def test_one_hot_block(self):
        schema = Schema((ColumnSpec("c", CATEGORICAL, ("a", "b", "c")),),
                        "t", "p", ("n", "p"))
        table = Table(schema, np.array([[1.0]]), np.array([1]))
        enc, layout = encode_for_gan(table)
        np.testing.assert_array_equal(enc, [[0.0, 1.0, 0.0]])

    def test_numeric_midpoint(self):
        schema = Schema((ColumnSpec("x", NUMERIC),), "t", "p", ("n", "p"))
        table = Table(schema, np.array([[-2.0], [0.0], [2.0]]), np.array([1, 1, 1]))
        enc, _ = encode_for_gan(table)
        assert enc[1, 0] == 0.5

    def test_round_trip(self):
        table = minority_mixed(25, seed=3)
        enc, layout = encode_for_gan(table)
        back = decode_from_gan(enc, layout, table.schema)
        np.testing.assert_array_equal(back.X[:, 2], table.X[:, 2])  # categorical exact
        np.testing.assert_allclose(back.X[:, :2], table.X[:, :2], rtol=1e-9, atol=1e-12)


class TestTrainGan:
    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError):
            GanConfig(epochs=0)

    def test_critic_steps_zero_rejected(self):
        for mode in ("vanilla", "wgan", "ctgan"):
            with pytest.raises(ValueError, match="critic_steps"):
                GanConfig(mode=mode, critic_steps=0)

    @pytest.mark.parametrize("mode", ["vanilla", "wgan", "ctgan"])
    def test_clip_not_positive_rejected(self, mode):
        for clip in (0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="wgan_clip"):
                GanConfig(mode=mode, wgan_clip=clip)

    @pytest.mark.parametrize("name", ["batch_size", "latent_dim"])
    def test_size_below_one_rejected(self, name):
        for value in (0, -1):
            with pytest.raises(ValueError, match=name):
                GanConfig(**{name: value})

    def test_one_epoch_finite(self):
        table = minority_mixed(30)
        model = train_gan(table, GanConfig(epochs=1, batch_size=16, seed=0))
        for w in model.generator.weights:
            assert np.all(np.isfinite(w))
        assert len(model.history["d_loss"]) == 1

    def test_empty_minority(self):
        table = mixed_imbalanced(10, 5).negatives()
        with pytest.raises((EmptyMinority, ValueError)):
            train_gan(table.positives(), GanConfig(epochs=1))

    def test_mixed_label_input_rejected(self):
        table = mixed_imbalanced(10, 5)
        with pytest.raises(ValueError):
            train_gan(table, GanConfig(epochs=1))

    def test_wgan_weight_clipping(self):
        table = minority_mixed(30)
        config = GanConfig(mode="wgan", epochs=2, batch_size=16, seed=1)
        model = train_gan(table, config)
        for w in model.discriminator.weights + model.discriminator.biases:
            assert np.max(np.abs(w)) <= config.wgan_clip


class TestLossHistory:
    def test_vanilla_bce_no_divergence(self, vanilla_models):
        # discriminator BCE stays in (0, 5) after the first 10% of epochs
        for seed in GAN_SEEDS:
            hist = vanilla_models[seed].history["d_loss"]
            tail = hist[len(hist) // 10:]
            assert all(0.0 < v < 5.0 for v in tail)

    def test_generator_objective_improves(self, vanilla_models, bimodal_table):
        # judge the epoch-1 and final generators against the same (final)
        # discriminator: the final one must fool it better. A one-epoch run
        # of the same seed is the final model after its first epoch, as no
        # draw or update depends on the epoch count.
        from fingan.nn_core import bce_loss, forward

        deltas = []
        for seed in GAN_SEEDS:
            model = vanilla_models[seed]
            early = train_gan(bimodal_table, GanConfig(mode="vanilla", epochs=1, seed=seed))
            z = np.random.default_rng(100 + seed).standard_normal((512, model.latent_dim))

            def gen_loss(generator):
                fake = forward(generator, z)[-1]
                p = forward(model.discriminator, fake)[-1][:, 0]
                return bce_loss(p, np.ones(len(p)))[0]

            deltas.append(gen_loss(early.generator) - gen_loss(model.generator))
        assert np.median(deltas) > 0

    def test_wgan_critic_clipped_throughout(self, wgan_models):
        for seed in GAN_SEEDS:
            critic = wgan_models[seed].discriminator
            for w in critic.weights + critic.biases:
                assert np.max(np.abs(w)) <= 0.01 + 1e-15


class TestSampling:
    def test_sample_count_and_labels(self, vanilla_models):
        table = sample_synthetic(vanilla_models[0], 1500, seed=4)
        assert table.n_rows == 1500
        assert np.all(table.y == 1)

    def test_schema_validity(self, vanilla_models, bimodal_table):
        model = vanilla_models[1]
        for seed in (3, 17):
            out = sample_synthetic(model, 200, seed=seed)
            lo, hi = bimodal_table.X[:, 0].min(), bimodal_table.X[:, 0].max()
            assert np.all(out.X[:, 0] >= lo - 1e-12)
            assert np.all(out.X[:, 0] <= hi + 1e-12)
            assert np.all(np.isfinite(out.X))

    def test_categorical_validity(self):
        table = minority_mixed(40, seed=1)
        model = train_gan(table, GanConfig(epochs=5, batch_size=16, seed=2))
        out = sample_synthetic(model, 100, seed=0)
        levels = len(table.schema.columns[2].categories)
        assert set(np.unique(out.X[:, 2])) <= set(range(levels))

    def test_deterministic(self, vanilla_models):
        a = sample_synthetic(vanilla_models[2], 50, seed=11)
        b = sample_synthetic(vanilla_models[2], 50, seed=11)
        np.testing.assert_array_equal(a.X, b.X)

    def test_serialization_round_trip(self, vanilla_models):
        d = vanilla_models[0].to_dict()
        restored = GeneratorModel.from_dict(d)
        a = sample_synthetic(vanilla_models[0], 20, seed=5)
        b = sample_synthetic(restored, 20, seed=5)
        np.testing.assert_array_equal(a.X, b.X)

    def test_swapped_heads_rejected_on_load(self):
        model = train_gan(minority_mixed(30), GanConfig(epochs=1, batch_size=16))
        saved = json.dumps(model.to_dict())
        GeneratorModel.from_dict(json.loads(saved))
        # the output layer's segments are the per-block heads
        for tamper in (lambda d: d["generator"]["layers"][-1]["activation"].reverse(),
                       lambda d: d["layout"]["blocks"].reverse(),
                       lambda d: d["layout"]["numeric_min"].pop()):
            d = json.loads(saved)
            tamper(d)
            with pytest.raises(SchemaMismatch):
                GeneratorModel.from_dict(d)

    def test_v1_format_rejected(self):
        # v1 stored one network per output block; it is not read any more
        model = train_gan(minority_mixed(30), GanConfig(epochs=1, batch_size=16))
        d = dict(model.to_dict(), format="fingan-generator-v1")
        with pytest.raises(ValueError, match="unknown model format"):
            GeneratorModel.from_dict(d)


class TestBalance:
    def test_parity(self):
        table = mixed_imbalanced(90, 10, seed=0)
        model = train_gan(table.positives(), GanConfig(epochs=3, batch_size=8, seed=0))
        out = balance_by_oversampling(table, model, "parity", seed=1)
        assert out.n_rows == 180
        assert out.n_positive == out.n_negative == 90

    def test_explicit_count(self):
        table = mixed_imbalanced(50, 10, seed=2)
        model = train_gan(table.positives(), GanConfig(epochs=3, batch_size=8, seed=0))
        out = balance_by_oversampling(table, model, 25, seed=1)
        assert out.n_rows == 85
        assert out.n_positive == 35

    def test_zero_target_identity(self):
        table = mixed_imbalanced(20, 10, seed=3)
        out = balance_by_oversampling(table, model=None, target=0)
        assert sorted(map(tuple, out.X)) == sorted(map(tuple, table.X))
