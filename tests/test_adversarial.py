"""train_adversarial against the three training loops it replaced.

The step functions and the CTGAN loop below are the separate vanilla GAN,
WGAN and CTGAN training code that ``gan.train_adversarial`` replaced, kept
as references. They also keep the generator the library had before its
output layer was fused: a hidden stack plus one single-layer network per
output block. Short trainings must leave every network state, the loss
history and a seeded sample equal to theirs within ``ATOL``. The fused
output layer computes every block's columns in one matrix product, which
rounds differently from the per-block products, so equality is not bitwise.
"""

import numpy as np
import pytest

from fingan import nn_core
from fingan.ctgan import (
    _condition_buckets,
    _condition_loss,
    _sample_bucket_rows,
    build_discrete_stats,
    fit_mode_normalizer,
    train_ctgan,
)
from fingan.fixtures import bimodal_minority, mixed_imbalanced, rare_category_minority
from fingan.gan import (
    CRITIC_STEPS,
    CTGAN,
    GENERATOR_HIDDEN_WIDTHS,
    WGAN_CLIP,
    DiscreteStats,
    GanConfig,
    GeneratorModel,
    build_discriminator,
    draw_conditions,
    encode_for_gan,
    encode_rows,
    output_blocks,
    train_gan,
)
from fingan.nn_core import (
    Layer,
    NetworkSpec,
    NetworkState,
    adam_step,
    backward,
    bce_loss,
    clip_weights,
    forward,
    init_network,
    unflatten,
)

# fused against separate output heads: one matrix product per layer rounds
# differently from one per block
ATOL = 1e-12


# --- Reference training loops ---------------------------------------------

def oracle_generator(input_dim, blocks, seed, head_activation):
    trunk = init_network(NetworkSpec(
        input_dim, tuple(Layer(w, nn_core.RELU) for w in GENERATOR_HIDDEN_WIDTHS)), seed)
    hidden = GENERATOR_HIDDEN_WIDTHS[-1]
    heads = [init_network(NetworkSpec(hidden, (Layer(b.width, head_activation(b)),)),
                          seed + 1000 + i)
             for i, b in enumerate(blocks)]
    return trunk, heads


def generator_forward(trunk, heads, z):
    """Returns (trunk activations, head activations, concatenated output)."""
    trunk_acts = forward(trunk, z)
    h = trunk_acts[-1]
    head_acts = [forward(head, h) for head in heads]
    out = np.concatenate([acts[-1] for acts in head_acts], axis=1)
    return trunk_acts, head_acts, out


def generator_backward_step(trunk, heads, blocks, trunk_acts, head_acts, grad_out, adam):
    """Backprop grad_out through heads and trunk, then Adam-update all parts."""
    grad_h = np.zeros_like(trunk_acts[-1])
    for head, acts, block in zip(heads, head_acts, blocks):
        sl = slice(block.offset, block.offset + block.width)
        grad, gin = backward(head, acts, grad_out[:, sl])
        adam_step(head, grad, adam)
        grad_h += gin
    grad, _ = backward(trunk, trunk_acts, grad_h)
    adam_step(trunk, grad, adam)


def fuse(trunk, heads):
    """One network equal to the trunk followed by the heads side by side,
    each head's rows stacked in block order into one output layer."""
    assert {h.step for h in heads} == {trunk.step}
    layers = [h.spec.layers[0] for h in heads]
    output = Layer(sum(l.width for l in layers),
                   tuple((l.activation, l.width) for l in layers))
    spec = NetworkSpec(trunk.spec.input_dim, trunk.spec.layers + (output,))

    def stacked(name):  # the trunk's buffer, then the heads' weights, then their biases
        parts = [unflatten(h.spec, getattr(h, name)) for h in heads]
        return np.concatenate([getattr(trunk, name)] + [w[0].ravel() for w, _ in parts]
                              + [b[0] for _, b in parts])

    return NetworkState(spec, stacked("params"), stacked("m"), stacked("v"), trunk.step)


def oracle_batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def oracle_sample_fake(trunk, heads, b, latent_dim, rng):
    z = rng.standard_normal((b, latent_dim))
    return generator_forward(trunk, heads, z)


def oracle_vanilla_disc_step(disc, trunk, heads, real_batch, b, config, rng):
    _, _, fake = oracle_sample_fake(trunk, heads, b, config.latent_dim, rng)
    acts_r = forward(disc, real_batch)
    loss_r, grad_r = bce_loss(acts_r[-1][:, 0], np.ones(real_batch.shape[0]))
    g_r, _ = backward(disc, acts_r, grad_r[:, None])
    acts_f = forward(disc, fake)
    loss_f, grad_f = bce_loss(acts_f[-1][:, 0], np.zeros(b))
    g_f, _ = backward(disc, acts_f, grad_f[:, None])
    adam_step(disc, g_r + g_f, config.adam)
    return loss_r + loss_f


def oracle_vanilla_gen_step(disc, trunk, heads, blocks, b, config, rng):
    trunk_acts, head_acts, fake = oracle_sample_fake(trunk, heads, b,
                                                     config.latent_dim, rng)
    acts_d = forward(disc, fake)
    loss, grad = bce_loss(acts_d[-1][:, 0], np.ones(b))
    _, grad_fake = backward(disc, acts_d, grad[:, None])
    generator_backward_step(trunk, heads, blocks, trunk_acts, head_acts,
                            grad_fake, config.adam)
    return loss


def oracle_wgan_critic_steps(disc, trunk, heads, real, b, config, rng):
    loss = 0.0
    for _ in range(CRITIC_STEPS):
        idx = rng.integers(0, real.shape[0], size=b)
        real_batch = real[idx]
        _, _, fake = oracle_sample_fake(trunk, heads, b, config.latent_dim, rng)
        acts_r = forward(disc, real_batch)
        acts_f = forward(disc, fake)
        loss = float(acts_f[-1].mean() - acts_r[-1].mean())
        g_r, _ = backward(disc, acts_r, np.full((b, 1), -1.0 / b))
        g_f, _ = backward(disc, acts_f, np.full((b, 1), 1.0 / b))
        adam_step(disc, g_r + g_f, config.adam)
        clip_weights(disc, WGAN_CLIP)
    return loss


def oracle_wgan_gen_step(disc, trunk, heads, blocks, b, config, rng):
    trunk_acts, head_acts, fake = oracle_sample_fake(trunk, heads, b,
                                                     config.latent_dim, rng)
    acts_d = forward(disc, fake)
    loss = float(-acts_d[-1].mean())
    _, grad_fake = backward(disc, acts_d, np.full((b, 1), -1.0 / b))
    generator_backward_step(trunk, heads, blocks, trunk_acts, head_acts,
                            grad_fake, config.adam)
    return loss


def oracle_train_gan(minority, config):
    real, numeric = encode_for_gan(minority)
    blocks = output_blocks(minority.schema, config.mode)
    rng = np.random.default_rng(config.seed)
    trunk, heads = oracle_generator(
        config.latent_dim, blocks, config.seed,
        lambda b: nn_core.SOFTMAX if b.kind == "categorical" else nn_core.SIGMOID)
    disc = build_discriminator(real.shape[1], config.mode, config.seed + 1)
    d_hist, g_hist = [], []
    for _ in range(config.epochs):
        d_losses, g_losses = [], []
        for batch_idx in oracle_batches(minority.n_rows, config.batch_size, rng):
            real_batch = real[batch_idx]
            b = len(batch_idx)
            if config.mode == "vanilla":
                d_loss = oracle_vanilla_disc_step(disc, trunk, heads, real_batch,
                                                  b, config, rng)
                g_loss = oracle_vanilla_gen_step(disc, trunk, heads, blocks, b,
                                                 config, rng)
            else:
                d_loss = oracle_wgan_critic_steps(disc, trunk, heads, real, b,
                                                  config, rng)
                g_loss = oracle_wgan_gen_step(disc, trunk, heads, blocks, b,
                                              config, rng)
            d_losses.append(d_loss)
            g_losses.append(g_loss)
        d_hist.append(float(np.mean(d_losses)))
        g_hist.append(float(np.mean(g_losses)))
    return GeneratorModel(config.mode, minority.schema, numeric, fuse(trunk, heads),
                          config.latent_dim, DiscreteStats([], []),
                          history={"d_loss": d_hist, "g_loss": g_hist}, discriminator=disc)


def oracle_train_ctgan(minority, config):
    rng = np.random.default_rng(config.seed)
    schema = minority.schema
    numeric = schema.numeric_indices
    normalizers = dict(zip(numeric, fit_mode_normalizer(
        minority.X[:, numeric], config.max_modes,
        [config.seed + j for j in numeric])))
    blocks = output_blocks(schema, CTGAN, normalizers)
    enc_width = sum(b.width for b in blocks)
    real = encode_rows(minority, CTGAN, normalizers, rng)

    stats = build_discrete_stats(minority)
    cond_dim = stats.total_width if stats.columns else 0
    conditioned = cond_dim > 0
    if conditioned:
        buckets = _condition_buckets(minority.X, stats)
        offsets = np.asarray(stats.offsets)

    trunk, heads = oracle_generator(
        config.latent_dim + cond_dim, blocks, config.seed,
        lambda b: nn_core.TANH if b.kind == "alpha" else nn_core.SOFTMAX)
    critic = build_discriminator(enc_width + cond_dim, "wgan", config.seed + 1)
    block_offset = np.array([
        next(b.offset for b in blocks if b.kind == "categorical" and b.column == j)
        for j in stats.columns], dtype=int)

    steps_per_epoch = max(1, minority.n_rows // config.batch_size)
    c_hist, g_hist = [], []
    for _ in range(config.epochs):
        c_losses, g_losses = [], []
        for _ in range(steps_per_epoch):
            b = config.batch_size
            c_loss = 0.0
            for _ in range(CRITIC_STEPS):
                if conditioned:
                    cols, cats, cond = draw_conditions(stats, b, rng)
                    ridx = _sample_bucket_rows(buckets, offsets[cols] + cats,
                                               len(real), rng)
                else:
                    cond = np.zeros((b, 0))
                    ridx = rng.integers(0, len(real), size=b)
                real_batch = real[ridx]
                z = rng.standard_normal((b, config.latent_dim))
                gen_in = np.concatenate([z, cond], axis=1)
                _, _, fake = generator_forward(trunk, heads, gen_in)
                acts_r = forward(critic, np.concatenate([real_batch, cond], axis=1))
                acts_f = forward(critic, np.concatenate([fake, cond], axis=1))
                c_loss = float(acts_f[-1].mean() - acts_r[-1].mean())
                g_r, _ = backward(critic, acts_r, np.full((b, 1), -1.0 / b))
                g_f, _ = backward(critic, acts_f, np.full((b, 1), 1.0 / b))
                adam_step(critic, g_r + g_f, config.adam)
                clip_weights(critic, WGAN_CLIP)

            if conditioned:
                cols, cats, cond = draw_conditions(stats, b, rng)
            else:
                cond = np.zeros((b, 0))
            z = rng.standard_normal((b, config.latent_dim))
            gen_in = np.concatenate([z, cond], axis=1)
            trunk_acts, head_acts, fake = generator_forward(trunk, heads, gen_in)
            acts_d = forward(critic, np.concatenate([fake, cond], axis=1))
            g_loss = float(-acts_d[-1].mean())
            _, grad_in = backward(critic, acts_d, np.full((b, 1), -1.0 / b))
            grad_fake = grad_in[:, :enc_width]
            if conditioned:
                g_loss += _condition_loss(fake, block_offset[cols] + cats, grad_fake)
            generator_backward_step(trunk, heads, blocks, trunk_acts,
                                    head_acts, grad_fake, config.adam)
            c_losses.append(c_loss)
            g_losses.append(g_loss)
        c_hist.append(float(np.mean(c_losses)))
        g_hist.append(float(np.mean(g_losses)))
    return GeneratorModel(CTGAN, schema, normalizers, fuse(trunk, heads),
                          config.latent_dim, stats,
                          history={"d_loss": c_hist, "g_loss": g_hist}, discriminator=critic)


# --- Comparisons -------------------------------------------------------------

def assert_close(a, b, err_msg=""):
    np.testing.assert_allclose(a, b, rtol=0, atol=ATOL, err_msg=err_msg)


def assert_same_network(a, b):
    assert a.spec == b.spec
    assert a.step == b.step
    for name in ("params", "m", "v"):
        assert_close(getattr(a, name), getattr(b, name), err_msg=name)


def assert_same_generator(model, oracle):
    assert_same_network(model.generator, oracle.generator)
    assert model.history.keys() == oracle.history.keys()
    for key in model.history:
        assert_close(model.history[key], oracle.history[key], err_msg=key)


def gan_minority():
    return mixed_imbalanced(5, 37, seed=0).positives()


@pytest.mark.parametrize("mode", ["vanilla", "wgan"])
def test_gan_matches_separate_steps(mode):
    # 37 rows at batch 16: every epoch ends on a partial batch of 5
    table = gan_minority()
    config = GanConfig(mode=mode, epochs=3, batch_size=16, seed=3)
    model = train_gan(table, config)
    oracle = oracle_train_gan(table, config)
    assert_same_generator(model, oracle)
    assert_same_network(model.discriminator, oracle.discriminator)
    assert_close(model.sample(40, seed=9).X, oracle.sample(40, seed=9).X)


@pytest.mark.parametrize("table", [
    rare_category_minority(60, seed=2),  # one numeric and one discrete column
    mixed_imbalanced(5, 50, seed=1).positives(),  # two numerics, one discrete
    bimodal_minority(50, seed=1),  # continuous only: no conditions
], ids=["conditioned", "conditioned_mixed", "continuous_only"])
def test_ctgan_matches_inline_loop(table):
    config = GanConfig(mode="ctgan", epochs=2, batch_size=16, max_modes=3, seed=5)
    model = train_ctgan(table, config)
    oracle = oracle_train_ctgan(table, config)
    assert_same_generator(model, oracle)
    assert_same_network(model.discriminator, oracle.discriminator)
    assert_close(model.sample(40, seed=9).X, oracle.sample(40, seed=9).X)
