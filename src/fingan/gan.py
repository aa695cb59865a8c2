"""Vanilla GAN / WGAN oversampling of the minority class.

The generator is a shared trunk feeding two branches: one softmax head per
categorical column and a single sigmoid head covering all numeric columns.
Numerics are min-max scaled into [0, 1] (separately from the z-score
standardization used for classifiers) so the sigmoid head can represent them.
The discriminator is a fixed stack of leaky-ReLU layers ending in a sigmoid
(vanilla) or an unbounded score (WGAN critic).
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .data_model import NUMERIC, Table
from .errors import EmptyMinority, NonFiniteLoss
from .nn_core import (
    AdamConfig,
    Layer,
    NetworkSpec,
    adam_step,
    backward,
    bce_loss,
    clip_weights,
    forward,
    init_network,
)

VANILLA = "vanilla"
WGAN = "wgan"

DISCRIMINATOR_WIDTHS = (128, 64, 32, 16, 8)
GENERATOR_TRUNK_WIDTHS = (64, 128)


@dataclass(frozen=True)
class Block:
    """One contiguous slice of the encoded row."""

    kind: str  # "categorical" or "numeric"
    column: int  # schema column index; -1 for the combined numeric block
    offset: int
    width: int


@dataclass(frozen=True)
class GanLayout:
    blocks: tuple  # of Block, categorical blocks first, numeric block last
    numeric_columns: tuple  # schema column indices in block order
    numeric_min: tuple
    numeric_max: tuple

    @property
    def width(self):
        return sum(b.width for b in self.blocks)

    def to_dict(self):
        return {
            "blocks": [
                {"kind": b.kind, "column": b.column, "offset": b.offset, "width": b.width}
                for b in self.blocks
            ],
            "numeric_columns": list(self.numeric_columns),
            "numeric_min": list(self.numeric_min),
            "numeric_max": list(self.numeric_max),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            tuple(Block(b["kind"], b["column"], b["offset"], b["width"]) for b in d["blocks"]),
            tuple(d["numeric_columns"]),
            tuple(d["numeric_min"]),
            tuple(d["numeric_max"]),
        )


@dataclass
class GanConfig:
    mode: str = VANILLA
    epochs: int = 3000
    batch_size: int = 64
    latent_dim: int = 64
    adam: AdamConfig = field(default_factory=lambda: AdamConfig(learning_rate=2e-4))
    wgan_clip: float = 0.01
    critic_steps: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.mode not in (VANILLA, WGAN):
            raise ValueError(f"unknown GAN mode {self.mode!r}")
        if self.wgan_clip <= 0:
            raise ValueError("wgan_clip must be positive")


def make_layout(table):
    """Block layout plus numeric min/max observed on this table."""
    schema = table.schema
    blocks = []
    offset = 0
    for j in schema.categorical_indices:
        width = len(schema.columns[j].categories)
        blocks.append(Block("categorical", j, offset, width))
        offset += width
    num_cols = tuple(schema.numeric_indices)
    if num_cols:
        blocks.append(Block("numeric", -1, offset, len(num_cols)))
    mins = tuple(float(table.X[:, j].min()) for j in num_cols)
    maxs = tuple(float(table.X[:, j].max()) for j in num_cols)
    return GanLayout(tuple(blocks), num_cols, mins, maxs)


def encode_for_gan(table, layout=None):
    """One-hot categoricals plus [0,1] min-max scaled numerics."""
    if layout is None:
        layout = make_layout(table)
    n = table.n_rows
    out = np.zeros((n, layout.width))
    for block in layout.blocks:
        if block.kind == "categorical":
            idx = table.X[:, block.column].astype(int)
            out[np.arange(n), block.offset + idx] = 1.0
        else:
            for k, j in enumerate(layout.numeric_columns):
                lo, hi = layout.numeric_min[k], layout.numeric_max[k]
                if hi > lo:
                    out[:, block.offset + k] = (table.X[:, j] - lo) / (hi - lo)
                else:
                    out[:, block.offset + k] = 0.5
    return out, layout


def decode_from_gan(encoded, layout, schema, label=1):
    """Argmax categorical blocks, inverse min-max numerics; labels fixed."""
    n = encoded.shape[0]
    X = np.zeros((n, len(schema.columns)))
    for block in layout.blocks:
        sl = slice(block.offset, block.offset + block.width)
        if block.kind == "categorical":
            X[:, block.column] = np.argmax(encoded[:, sl], axis=1)
        else:
            vals = np.clip(encoded[:, sl], 0.0, 1.0)
            for k, j in enumerate(layout.numeric_columns):
                lo, hi = layout.numeric_min[k], layout.numeric_max[k]
                X[:, j] = vals[:, k] * (hi - lo) + lo
    return Table(schema, X, np.full(n, label, dtype=int))


def _build_generator(latent_dim, layout, seed):
    trunk_spec = NetworkSpec(
        latent_dim, tuple(Layer(w, nn_core.RELU) for w in GENERATOR_TRUNK_WIDTHS)
    )
    trunk = init_network(trunk_spec, seed)
    hidden = GENERATOR_TRUNK_WIDTHS[-1]
    heads = []
    for i, block in enumerate(layout.blocks):
        act = nn_core.SOFTMAX if block.kind == "categorical" else nn_core.SIGMOID
        spec = NetworkSpec(hidden, (Layer(block.width, act),))
        heads.append(init_network(spec, seed + 1000 + i))
    return trunk, heads


def build_discriminator(input_dim, mode, seed):
    final = nn_core.SIGMOID if mode == VANILLA else nn_core.IDENTITY
    layers = tuple(Layer(w, nn_core.LEAKY_RELU, 0.2) for w in DISCRIMINATOR_WIDTHS)
    layers += (Layer(1, final),)
    return init_network(NetworkSpec(input_dim, layers), seed)


def generator_forward(trunk, heads, layout, z):
    """Returns (trunk activations, head activations, concatenated output)."""
    trunk_acts = forward(trunk, z)
    h = trunk_acts[-1]
    head_acts = [forward(head, h) for head in heads]
    out = np.concatenate([acts[-1] for acts in head_acts], axis=1)
    return trunk_acts, head_acts, out


def generator_backward_step(trunk, heads, layout, trunk_acts, head_acts, grad_out, adam):
    """Backprop grad_out through heads and trunk, then Adam-update all parts."""
    grad_h = np.zeros_like(trunk_acts[-1])
    for head, acts, block in zip(heads, head_acts, layout.blocks):
        sl = slice(block.offset, block.offset + block.width)
        gw, gb, gin = backward(head, acts, grad_out[:, sl])
        adam_step(head, gw, gb, adam)
        grad_h += gin
    gw, gb, _ = backward(trunk, trunk_acts, grad_h)
    adam_step(trunk, gw, gb, adam)


@dataclass
class GeneratorModel:
    mode: str
    schema: object
    layout: GanLayout
    trunk: object
    heads: list
    latent_dim: int
    history: dict = field(default_factory=dict)
    discriminator: object = None
    early_generator: object = None  # (trunk, heads) after the first epoch

    def sample(self, n, seed):
        return sample_synthetic(self, n, seed)

    def sample_encoded(self, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, self.latent_dim))
        _, _, out = generator_forward(self.trunk, self.heads, self.layout, z)
        return out

    def to_dict(self):
        return {
            "format": "fingan-generator-v1",
            "mode": self.mode,
            "schema": self.schema.to_dict(),
            "layout": self.layout.to_dict(),
            "latent_dim": self.latent_dim,
            "trunk": nn_core.state_to_dict(self.trunk),
            "heads": [nn_core.state_to_dict(h) for h in self.heads],
        }

    @classmethod
    def from_dict(cls, d):
        from .data_model import Schema

        if d.get("format") != "fingan-generator-v1":
            raise ValueError(f"unknown model format {d.get('format')!r}")
        return cls(
            d["mode"],
            Schema.from_dict(d["schema"]),
            GanLayout.from_dict(d["layout"]),
            nn_core.state_from_dict(d["trunk"]),
            [nn_core.state_from_dict(h) for h in d["heads"]],
            d["latent_dim"],
        )


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_gan(minority, config):
    """Adversarial training on minority rows only; returns a sampler model."""
    if minority.n_rows == 0:
        raise EmptyMinority("no minority rows to train on")
    if not np.all(minority.y == 1):
        raise ValueError("train_gan expects minority (positive) rows only")

    real, layout = encode_for_gan(minority)
    rng = np.random.default_rng(config.seed)
    trunk, heads = _build_generator(config.latent_dim, layout, config.seed)
    disc = build_discriminator(layout.width, config.mode, config.seed + 1)

    d_hist, g_hist = [], []
    early_snapshot = None
    for epoch in range(config.epochs):
        d_losses, g_losses = [], []
        for batch_idx in _batches(minority.n_rows, config.batch_size, rng):
            real_batch = real[batch_idx]
            b = len(batch_idx)
            if config.mode == VANILLA:
                d_loss = _vanilla_disc_step(disc, trunk, heads, layout,
                                            real_batch, b, config, rng)
                g_loss = _vanilla_gen_step(disc, trunk, heads, layout, b, config, rng)
            else:
                d_loss = _wgan_critic_steps(disc, trunk, heads, layout,
                                            real, b, config, rng)
                g_loss = _wgan_gen_step(disc, trunk, heads, layout, b, config, rng)
            if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
                raise NonFiniteLoss(epoch, f"d={d_loss} g={g_loss}")
            d_losses.append(d_loss)
            g_losses.append(g_loss)
        d_hist.append(float(np.mean(d_losses)))
        g_hist.append(float(np.mean(g_losses)))
        nn_core.assert_finite(disc)
        nn_core.assert_finite(trunk)
        if epoch == 0:
            early_snapshot = (trunk.copy(), [h.copy() for h in heads])

    model = GeneratorModel(config.mode, minority.schema, layout, trunk, heads,
                           config.latent_dim,
                           history={"d_loss": d_hist, "g_loss": g_hist})
    model.discriminator = disc  # kept for inspection; not serialized
    model.early_generator = early_snapshot
    return model


def _sample_fake(trunk, heads, layout, b, latent_dim, rng):
    z = rng.standard_normal((b, latent_dim))
    return generator_forward(trunk, heads, layout, z)


def _vanilla_disc_step(disc, trunk, heads, layout, real_batch, b, config, rng):
    _, _, fake = _sample_fake(trunk, heads, layout, b, config.latent_dim, rng)
    acts_r = forward(disc, real_batch)
    loss_r, grad_r = bce_loss(acts_r[-1][:, 0], np.ones(real_batch.shape[0]))
    gw_r, gb_r, _ = backward(disc, acts_r, grad_r[:, None])
    acts_f = forward(disc, fake)
    loss_f, grad_f = bce_loss(acts_f[-1][:, 0], np.zeros(b))
    gw_f, gb_f, _ = backward(disc, acts_f, grad_f[:, None])
    gw = [a + c for a, c in zip(gw_r, gw_f)]
    gb = [a + c for a, c in zip(gb_r, gb_f)]
    adam_step(disc, gw, gb, config.adam)
    return loss_r + loss_f


def _vanilla_gen_step(disc, trunk, heads, layout, b, config, rng):
    trunk_acts, head_acts, fake = _sample_fake(trunk, heads, layout, b,
                                               config.latent_dim, rng)
    acts_d = forward(disc, fake)
    # non-saturating objective: push D(fake) toward 1
    loss, grad = bce_loss(acts_d[-1][:, 0], np.ones(b))
    _, _, grad_fake = backward(disc, acts_d, grad[:, None])
    generator_backward_step(trunk, heads, layout, trunk_acts, head_acts,
                            grad_fake, config.adam)
    return loss


def _wgan_critic_steps(disc, trunk, heads, layout, real, b, config, rng):
    loss = 0.0
    for _ in range(config.critic_steps):
        idx = rng.integers(0, real.shape[0], size=b)
        real_batch = real[idx]
        _, _, fake = _sample_fake(trunk, heads, layout, b, config.latent_dim, rng)
        acts_r = forward(disc, real_batch)
        acts_f = forward(disc, fake)
        # critic maximizes mean(real) - mean(fake); minimize the negation
        loss = float(acts_f[-1].mean() - acts_r[-1].mean())
        gw_r, gb_r, _ = backward(disc, acts_r, np.full((b, 1), -1.0 / b))
        gw_f, gb_f, _ = backward(disc, acts_f, np.full((b, 1), 1.0 / b))
        gw = [a + c for a, c in zip(gw_r, gw_f)]
        gb = [a + c for a, c in zip(gb_r, gb_f)]
        adam_step(disc, gw, gb, config.adam)
        clip_weights(disc, config.wgan_clip)
    return loss


def _wgan_gen_step(disc, trunk, heads, layout, b, config, rng):
    trunk_acts, head_acts, fake = _sample_fake(trunk, heads, layout, b,
                                               config.latent_dim, rng)
    acts_d = forward(disc, fake)
    loss = float(-acts_d[-1].mean())
    _, _, grad_fake = backward(disc, acts_d, np.full((b, 1), -1.0 / b))
    generator_backward_step(trunk, heads, layout, trunk_acts, head_acts,
                            grad_fake, config.adam)
    return loss


def sample_synthetic(model, n, seed):
    """Draw n schema-valid positive rows from a trained generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    encoded = model.sample_encoded(n, seed)
    return decode_from_gan(encoded, model.layout, model.schema, label=1)


def synthetic_count(train, target="parity"):
    """Synthetic rows a balancing target asks for on a training split."""
    if target == "parity":
        return max(0, train.n_negative - train.n_positive)
    n_synth = int(target)
    if n_synth < 0:
        raise ValueError("target count must be >= 0")
    return n_synth


def balance_by_oversampling(train, model, target="parity", seed=0):
    """Append synthetic minority rows to the training split.

    target: "parity" synthesizes (majority - minority) rows; an integer
    synthesizes exactly that many. Output row order is shuffled
    deterministically from the seed.
    """
    from .data_model import concat_tables

    n_synth = synthetic_count(train, target)
    if n_synth == 0:
        return train.subset(np.arange(train.n_rows))
    synth = model.sample(n_synth, seed)
    merged = concat_tables([train, synth])
    order = np.random.default_rng(seed).permutation(merged.n_rows)
    return merged.subset(order)
