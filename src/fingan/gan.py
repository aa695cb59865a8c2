"""Vanilla GAN / WGAN oversampling of the minority class.

The generator is one network: hidden ReLU layers, then one output layer
with an activation segment per output block, a softmax per categorical
column and one sigmoid covering all numeric columns. Numerics are min-max
scaled into [0, 1] (separately from the z-score standardization used for
classifiers) so the sigmoid segment can represent them.
The discriminator is a fixed stack of leaky-ReLU layers ending in a sigmoid
(vanilla) or an unbounded score (WGAN critic).
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn_core
from .data_model import NUMERIC, Table
from .errors import EmptyMinority, NonFiniteLoss, SchemaMismatch
from .nn_core import (
    AdamConfig,
    Layer,
    NetworkSpec,
    adam_step,
    backward,
    bce_loss,
    clip_weights,
    forward,
    glorot_uniform,
    init_network,
)

VANILLA = "vanilla"
WGAN = "wgan"
CTGAN = "ctgan"
MAX_MODES = 10

DISCRIMINATOR_WIDTHS = (128, 64, 32, 16, 8)
GENERATOR_HIDDEN_WIDTHS = (64, 128)
# generator output activation per block kind, for GAN and CTGAN blocks
BLOCK_ACTIVATIONS = {"categorical": nn_core.SOFTMAX, "numeric": nn_core.SIGMOID,
                    "alpha": nn_core.TANH, "mode": nn_core.SOFTMAX}


@dataclass(frozen=True)
class Block:
    """One contiguous slice of the encoded row."""

    kind: str  # GAN: "categorical" or "numeric"; CTGAN: "alpha", "mode" or "categorical"
    column: int  # schema column index; -1 for GAN's combined numeric block
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
            "blocks": [asdict(b) for b in self.blocks],
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
    """Training settings for all three oversamplers; max_modes is read by
    CTGAN only."""

    mode: str = VANILLA  # VANILLA, WGAN or CTGAN
    epochs: int = 3000
    batch_size: int = 64
    latent_dim: int = 64
    max_modes: int = MAX_MODES  # Gaussian-mixture modes per CTGAN numeric column
    adam: AdamConfig = field(default_factory=lambda: AdamConfig(learning_rate=2e-4))
    wgan_clip: float = 0.01
    critic_steps: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (VANILLA, WGAN, CTGAN):
            raise ValueError(f"unknown GAN mode {self.mode!r}")
        for name in ("epochs", "batch_size", "latent_dim", "max_modes", "critic_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not self.wgan_clip > 0:
            raise ValueError(f"wgan_clip must be positive, got {self.wgan_clip!r}")


def _layout_blocks(schema):
    blocks = []
    offset = 0
    for j in schema.categorical_indices:
        width = len(schema.columns[j].categories)
        blocks.append(Block("categorical", j, offset, width))
        offset += width
    if schema.numeric_indices:
        blocks.append(Block("numeric", -1, offset, len(schema.numeric_indices)))
    return tuple(blocks)


def make_layout(table):
    """Block layout plus numeric min/max observed on this table."""
    num_cols = tuple(table.schema.numeric_indices)
    mins = tuple(float(table.X[:, j].min()) for j in num_cols)
    maxs = tuple(float(table.X[:, j].max()) for j in num_cols)
    return GanLayout(_layout_blocks(table.schema), num_cols, mins, maxs)


def encode_categoricals(table, blocks, width):
    """An (n, width) zero array with each categorical block's one-hot bit set.

    The one writer of categorical one-hots for the GAN, kernel and CTGAN
    encodings; the caller fills its other blocks.
    """
    n = table.n_rows
    out = np.zeros((n, width))
    for block in blocks:
        if block.kind == "categorical":
            out[np.arange(n), block.offset + table.X[:, block.column].astype(int)] = 1.0
    return out


def encode_for_gan(table, layout=None):
    """One-hot categoricals plus [0,1] min-max scaled numerics."""
    if layout is None:
        layout = make_layout(table)
    out = encode_categoricals(table, layout.blocks, layout.width)
    start = layout.width - len(layout.numeric_columns)  # the numeric block is last
    for k, j in enumerate(layout.numeric_columns):
        lo, hi = layout.numeric_min[k], layout.numeric_max[k]
        if hi > lo:
            out[:, start + k] = (table.X[:, j] - lo) / (hi - lo)
        else:
            out[:, start + k] = 0.5
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


def _generator_spec(input_dim, blocks):
    hidden = tuple(Layer(w, nn_core.RELU) for w in GENERATOR_HIDDEN_WIDTHS)
    segments = tuple((BLOCK_ACTIVATIONS[b.kind], b.width) for b in blocks)
    output = Layer(sum(b.width for b in blocks), segments)
    return NetworkSpec(input_dim, hidden + (output,))


def build_generator(input_dim, blocks, seed):
    """The generator on input_dim inputs (latent plus condition width) with
    one output segment per block. Each block's output rows are drawn with
    their own seed, seed + 1000 + block index, and Glorot bound."""
    gen = init_network(_generator_spec(input_dim, blocks), seed)
    fan_in = GENERATOR_HIDDEN_WIDTHS[-1]
    gen.weights[-1][...] = np.concatenate([
        glorot_uniform(np.random.default_rng(seed + 1000 + i), fan_in, b.width)
        for i, b in enumerate(blocks)])
    return gen


def check_generator(gen, input_dim, blocks):
    """Raise SchemaMismatch unless a loaded generator has the layers, widths
    and activations that build_generator gives input_dim and blocks."""
    if gen.spec != _generator_spec(input_dim, blocks):
        raise SchemaMismatch(
            f"saved generator (on {gen.spec.input_dim} inputs, output "
            f"{gen.spec.layers[-1].activation}) does not fit {input_dim} inputs "
            f"and output blocks {blocks}")


def build_discriminator(input_dim, mode, seed):
    final = nn_core.SIGMOID if mode == VANILLA else nn_core.IDENTITY
    layers = tuple(Layer(w, nn_core.LEAKY_RELU, 0.2) for w in DISCRIMINATOR_WIDTHS)
    layers += (Layer(1, final),)
    return init_network(NetworkSpec(input_dim, layers), seed)


def generator_backward_step(gen, acts, grad_out, adam):
    """Backprop grad_out through the generator, then Adam-update it."""
    grad, _ = backward(gen, acts, grad_out)
    adam_step(gen, grad, adam)


@dataclass
class GeneratorModel:
    FORMAT = "fingan-generator-v2"

    mode: str
    schema: object
    layout: GanLayout
    generator: object
    latent_dim: int
    history: dict = field(default_factory=dict)
    discriminator: object = None

    def sample(self, n, seed):
        return sample_synthetic(self, n, seed)

    def sample_encoded(self, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, self.latent_dim))
        return forward(self.generator, z)[-1]

    def to_dict(self):
        return {
            "format": self.FORMAT,
            "mode": self.mode,
            "schema": self.schema.to_dict(),
            "layout": self.layout.to_dict(),
            "latent_dim": self.latent_dim,
            "generator": nn_core.state_to_dict(self.generator),
        }

    @classmethod
    def from_dict(cls, d):
        from .data_model import Schema

        if d.get("format") != cls.FORMAT:
            raise ValueError(f"unknown model format {d.get('format')!r}")
        schema = Schema.from_dict(d["schema"])
        layout = GanLayout.from_dict(d["layout"])
        num_cols = tuple(schema.numeric_indices)
        if (layout.blocks != _layout_blocks(schema) or layout.numeric_columns != num_cols
                or not len(layout.numeric_min) == len(layout.numeric_max) == len(num_cols)):
            raise SchemaMismatch("saved layout does not match the saved schema")
        gen = nn_core.state_from_dict(d["generator"])
        check_generator(gen, d["latent_dim"], layout.blocks)
        return cls(d["mode"], schema, layout, gen, d["latent_dim"])


def train_gan(minority, config):
    """Adversarial training on minority rows only; returns a sampler model."""
    if minority.n_rows == 0:
        raise EmptyMinority("no minority rows to train on")
    if not np.all(minority.y == 1):
        raise ValueError("train_gan expects minority (positive) rows only")
    if config.mode == CTGAN:
        raise ValueError("train_gan trains vanilla and wgan; ctgan needs train_ctgan")

    real, layout = encode_for_gan(minority)
    rng = np.random.default_rng(config.seed)
    gen = build_generator(config.latent_dim, layout.blocks, config.seed)
    disc = build_discriminator(layout.width, config.mode, config.seed + 1)
    n, size = minority.n_rows, config.batch_size

    def batches(rng):
        order = rng.permutation(n)
        return [order[start:start + size] for start in range(0, n, size)]

    def draw_real(rows, rng):
        if config.mode == WGAN:  # rows drawn with replacement; the batch gives the count
            rows = rng.integers(0, n, size=len(rows))
        return real[rows], np.zeros((len(rows), 0))

    history = train_adversarial(gen, disc, rng, config, config.mode == WGAN,
                                batches, draw_real)
    model = GeneratorModel(config.mode, minority.schema, layout, gen,
                           config.latent_dim, history=history)
    model.discriminator = disc  # kept for inspection; not serialized
    return model


def train_adversarial(gen, critic, rng, config, wasserstein, batches, draw_real,
                      draw_condition=None, condition_loss=None):
    """The adversarial loop shared by vanilla GAN, WGAN and CTGAN.

    Each of config.epochs epochs runs one step per entry of ``batches(rng)``.
    A step updates the critic once on binary cross-entropy, or, when
    ``wasserstein``, config.critic_steps times on the Wasserstein loss with
    weight clipping; each update scores ``draw_real(batch, rng)``, which
    returns (real rows, their conditions), against as many fresh fakes. Then
    the generator takes one update. ``draw_condition(b, rng)`` returns its
    conditions and the category positions that ``condition_loss(fake, hot,
    grad_fake)`` scores; without it the generator's conditions are empty.
    Conditions are appended to the generator's noise and to both critic
    inputs. Returns the per-epoch mean losses {"d_loss": [...], "g_loss": [...]}.
    """
    n_critic = config.critic_steps if wasserstein else 1
    d_hist, g_hist = [], []
    for epoch in range(config.epochs):
        d_losses, g_losses = [], []
        for batch in batches(rng):
            for _ in range(n_critic):
                real_batch, cond = draw_real(batch, rng)
                b = len(real_batch)
                z = rng.standard_normal((b, config.latent_dim))
                fake = forward(gen, np.concatenate([z, cond], axis=1))[-1]
                acts_r = forward(critic, np.concatenate([real_batch, cond], axis=1))
                acts_f = forward(critic, np.concatenate([fake, cond], axis=1))
                if wasserstein:
                    # critic maximizes mean(real) - mean(fake); minimize the negation
                    d_loss = float(acts_f[-1].mean() - acts_r[-1].mean())
                    grad_r, grad_f = np.full((b, 1), -1.0 / b), np.full((b, 1), 1.0 / b)
                else:
                    loss_r, grad_r = bce_loss(acts_r[-1][:, 0], np.ones(b))
                    loss_f, grad_f = bce_loss(acts_f[-1][:, 0], np.zeros(b))
                    d_loss, grad_r, grad_f = loss_r + loss_f, grad_r[:, None], grad_f[:, None]
                g_r, _ = backward(critic, acts_r, grad_r)
                g_f, _ = backward(critic, acts_f, grad_f)
                adam_step(critic, g_r + g_f, config.adam)
                if wasserstein:
                    clip_weights(critic, config.wgan_clip)

            if draw_condition is None:
                cond, hot = np.zeros((b, 0)), None
            else:
                cond, hot = draw_condition(b, rng)
            z = rng.standard_normal((b, config.latent_dim))
            gen_acts = forward(gen, np.concatenate([z, cond], axis=1))
            fake = gen_acts[-1]
            acts_d = forward(critic, np.concatenate([fake, cond], axis=1))
            if wasserstein:
                g_loss, grad = float(-acts_d[-1].mean()), np.full((b, 1), -1.0 / b)
            else:
                # non-saturating objective: push D(fake) toward 1
                g_loss, grad = bce_loss(acts_d[-1][:, 0], np.ones(b))
                grad = grad[:, None]
            _, grad_in = backward(critic, acts_d, grad)
            grad_fake = grad_in[:, :fake.shape[1]]
            if hot is not None:
                g_loss += condition_loss(fake, hot, grad_fake)
            generator_backward_step(gen, gen_acts, grad_fake, config.adam)
            if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
                raise NonFiniteLoss(epoch, f"d={d_loss} g={g_loss}")
            d_losses.append(d_loss)
            g_losses.append(g_loss)
        d_hist.append(float(np.mean(d_losses)))
        g_hist.append(float(np.mean(g_losses)))
        nn_core.assert_finite(critic)
        nn_core.assert_finite(gen)
    return {"d_loss": d_hist, "g_loss": g_hist}


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
