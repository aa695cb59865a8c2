import numpy as np
import pytest

from fingan.ctgan import train_ctgan
from fingan.fixtures import bimodal_minority, rare_category_minority
from fingan.gan import GanConfig, train_gan

GAN_SEEDS = (0, 1, 2)


def gini(y):
    """Gini impurity 2p(1 - p) of 0/1 labels, 0 for none: the oracle for
    the trees' split scores."""
    if len(y) == 0:
        return 0.0
    p = y.mean()
    return float(2.0 * p * (1.0 - p))


@pytest.fixture(scope="session")
def bimodal_table():
    return bimodal_minority(256, seed=1)


@pytest.fixture(scope="session")
def vanilla_models(bimodal_table):
    """Vanilla GAN trained on the bimodal fixture, one model per seed."""
    return {
        seed: train_gan(bimodal_table, GanConfig(mode="vanilla", epochs=600, seed=seed))
        for seed in GAN_SEEDS
    }


@pytest.fixture(scope="session")
def wgan_models(bimodal_table):
    return {
        seed: train_gan(bimodal_table, GanConfig(mode="wgan", epochs=600, seed=seed))
        for seed in GAN_SEEDS
    }


@pytest.fixture(scope="session")
def ctgan_models(bimodal_table):
    return {
        seed: train_ctgan(bimodal_table, GanConfig(mode="ctgan", epochs=1200, seed=seed))
        for seed in GAN_SEEDS
    }


@pytest.fixture(scope="session")
def rare_category_table():
    return rare_category_minority(400, rare_fraction=0.05, seed=2)


@pytest.fixture(scope="session")
def conditioned_ctgan(rare_category_table):
    return train_ctgan(rare_category_table, GanConfig(mode="ctgan", epochs=300, seed=0))


def encoded_moments(table, encoded_samples):
    """(|mean gap|, |std gap|, smaller-mode share) in encoded [0,1] space."""
    from fingan.gan import encode_for_gan

    real, _ = encode_for_gan(table)
    gap_mean = abs(encoded_samples.mean() - real.mean())
    gap_std = abs(encoded_samples.std() - real.std())
    low = (np.abs(encoded_samples - 0.25) < np.abs(encoded_samples - 0.75)).mean()
    return gap_mean, gap_std, min(low, 1.0 - low)


def encode_samples(table, sampled):
    """Min-max encode sampled numeric values with the fixture's own range."""
    lo, hi = table.X[:, 0].min(), table.X[:, 0].max()
    return (sampled.X[:, 0] - lo) / (hi - lo)
