"""The generator model of all three oversamplers; vanilla GAN / WGAN training.

Vanilla GAN, WGAN and CTGAN each train one generator network: hidden ReLU
layers, then one output layer with an activation segment per output block
(``output_blocks``). GAN and WGAN encode a row as a softmax block per
categorical column and one sigmoid block over all numeric columns, min-max
scaled into [0, 1] (apart from the z-score standardization of classifier
inputs); CTGAN's encoding is described in ``fingan.ctgan``. ``encode_rows``
writes every block of these encodings and ``decode_rows`` inverts it. A
trained model of any mode is one ``GeneratorModel``, whose file derives the
output layout from the schema and the numeric transforms on load. All three
train with ``train_adversarial``; the discriminator is a fixed stack of
leaky-ReLU layers ending in a sigmoid (vanilla) or an unbounded score (WGAN,
CTGAN).
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .data_model import Table
from .errors import (
    EmptyConditionBucketWarning,
    EmptyMinority,
    NoDiscreteColumns,
    NonFiniteLoss,
    NonFiniteSample,
    SchemaMismatch,
    UnknownCondition,
)
from .nn_core import (
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
from .settings import check_at_least_1

VANILLA = "vanilla"
WGAN = "wgan"
CTGAN = "ctgan"
MAX_MODES = 10
ALPHA_SCALE = 4.0  # a CTGAN alpha is the offset from its mode's mean in 4-sigma units
# Generator.choice's tolerance on the sum of p for float64 probabilities
CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)
WEIGHT_SUM_TOL = 1e-9  # a loaded mode normalizer's weights sum to 1 within this
WGAN_CLIP = 0.01  # the WGAN paper's weight clip c (Arjovsky et al., 2017)
CRITIC_STEPS = 5  # and its critic updates per generator update, n_critic

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


@dataclass
class ModeNormalizer:
    """CTGAN's Gaussian mixture over one numeric column, modes by mean."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    loglik_history: list = field(default_factory=list)

    @property
    def n_modes(self):
        return len(self.weights)

    def to_dict(self):
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "stds": self.stds.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        """Raise SchemaMismatch unless d is a mixture: as many weights as
        means and stds, finite means, finite positive stds, and finite
        non-negative weights that sum to 1."""
        if not isinstance(d, dict):
            raise SchemaMismatch(f"expected a mode normalizer, got {d!r}")
        weights, means, stds = (np.array(d[key], dtype=float)
                                for key in ("weights", "means", "stds"))
        if not (weights.ndim == means.ndim == stds.ndim == 1
                and 0 < len(weights) == len(means) == len(stds)
                and np.all(np.isfinite(means)) and np.all(np.isfinite(stds) & (stds > 0))
                and np.all(np.isfinite(weights) & (weights >= 0))
                and abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise SchemaMismatch(f"normalizer with weights {weights}, means {means} "
                                 f"and stds {stds} is not a mixture")
        return cls(weights, means, stds)


def _mode_posteriors(values, norm):
    values = np.atleast_1d(np.asarray(values, dtype=float))
    pdf = np.exp(-0.5 * ((values[:, None] - norm.means[None, :]) / norm.stds[None, :]) ** 2)
    pdf /= norm.stds[None, :]
    post = norm.weights[None, :] * pdf
    total = post.sum(axis=1, keepdims=True)
    uniform = np.full_like(post, 1.0 / norm.n_modes)
    return np.where(total > 0, post / np.maximum(total, 1e-300), uniform)


def encode_continuous_batch(values, norm, rng):
    """Sample a mode per value; return (alphas, one-hots over modes)."""
    post = _mode_posteriors(values, norm)
    cum = np.cumsum(post, axis=1)
    draws = rng.random((len(values), 1))
    modes = (draws > cum).sum(axis=1)
    modes = np.minimum(modes, norm.n_modes - 1)
    alphas = (values - norm.means[modes]) / (ALPHA_SCALE * norm.stds[modes])
    alphas = np.clip(alphas, -1.0, 1.0)
    onehots = np.zeros((len(values), norm.n_modes))
    onehots[np.arange(len(values)), modes] = 1.0
    return alphas, onehots


def _range_from_dict(r):
    """A saved [min, max] range; SchemaMismatch unless finite with min <= max."""
    if not (isinstance(r, list) and len(r) == 2):
        raise SchemaMismatch(f"expected a [min, max] range, got {r!r}")
    lo, hi = float(r[0]), float(r[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise SchemaMismatch(f"range [{lo}, {hi}] is not finite with min <= max")
    return lo, hi


@dataclass
class DiscreteStats:
    """Per discrete column: schema index and observed category frequencies.

    ``offsets`` holds the start of each column's block in the flattened
    condition vector. ``cdfs`` holds, per column, the cdf that
    ``Generator.choice`` builds from the column's log(1 + frequency)
    category probabilities. The probabilities are validated once here the
    way ``choice`` validates them on every call: finite, non-negative and
    summing to 1 within its tolerance; a failure raises ValueError.
    """

    columns: list  # schema column indices
    frequencies: list  # one count array per column
    offsets: list = field(init=False)
    cdfs: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = [len(f) for f in self.frequencies]
        self.offsets = [sum(widths[:i]) for i in range(len(widths))]
        self.cdfs = []
        for freq in self.frequencies:
            logf = np.log1p(freq)
            total = logf.sum()
            probs = logf / total if total > 0 else np.full(len(logf), 1.0 / len(logf))
            if not (np.all(np.isfinite(probs) & (probs >= 0))
                    and abs(math.fsum(probs) - 1.0) <= CHOICE_ATOL):
                raise ValueError(f"category probabilities {probs} are not a distribution")
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            self.cdfs.append(cdf)

    @property
    def total_width(self):
        return sum(len(f) for f in self.frequencies)


@dataclass
class GanConfig:
    """Training settings for all three oversamplers; max_modes is read by
    CTGAN only."""

    mode: str = VANILLA  # VANILLA, WGAN or CTGAN
    epochs: int = 3000
    batch_size: int = 64
    latent_dim: int = 64
    max_modes: int = MAX_MODES  # Gaussian-mixture modes per CTGAN numeric column
    learning_rate: float = 2e-4  # Adam's, for both networks
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (VANILLA, WGAN, CTGAN):
            raise ValueError(f"unknown GAN mode {self.mode!r}")
        check_at_least_1(self, "epochs", "batch_size", "latent_dim", "max_modes")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")


def output_blocks(schema, mode, numeric=None):
    """The generator's output blocks in encoding order.

    VANILLA and WGAN: one categorical block per discrete column, then one
    numeric block over all numeric columns. CTGAN: per numeric column an
    alpha block and a mode block as wide as its normalizer in ``numeric``,
    then the categorical blocks.
    """
    blocks, offset = [], 0

    def add(kind, column, width):
        nonlocal offset
        blocks.append(Block(kind, column, offset, width))
        offset += width

    if mode == CTGAN:
        for j in schema.numeric_indices:
            add("alpha", j, 1)
            add("mode", j, numeric[j].n_modes)
    for j in schema.categorical_indices:
        add("categorical", j, len(schema.columns[j].categories))
    if mode != CTGAN and schema.numeric_indices:
        add("numeric", -1, len(schema.numeric_indices))
    return tuple(blocks)


def encode_rows(table, mode, numeric, rng=None):
    """Generator-space rows from table rows, the inverse of ``decode_rows``.

    Fills the blocks of ``output_blocks(schema, mode, numeric)`` in order: a
    categorical block's one-hot bit; the GAN numeric block's (x - min) /
    (max - min) per column, 0.5 where min == max; and a CTGAN column's alpha
    and mode one-hot from ``encode_continuous_batch``, which draws the mode
    from ``rng``.
    """
    n = table.n_rows
    blocks = output_blocks(table.schema, mode, numeric)
    out = np.zeros((n, sum(b.width for b in blocks)))
    for block in blocks:
        cols = out[:, block.offset:block.offset + block.width]
        if block.kind == "categorical":
            cols[np.arange(n), table.X[:, block.column].astype(int)] = 1.0
        elif block.kind == "numeric":
            for k, (j, (lo, hi)) in enumerate(numeric.items()):
                cols[:, k] = (table.X[:, j] - lo) / (hi - lo) if hi > lo else 0.5
        elif block.kind == "alpha":  # its mode block comes next, from the same draw
            cols[:, 0], onehots = encode_continuous_batch(
                table.X[:, block.column], numeric[block.column], rng)
        else:
            cols[...] = onehots
    return out


def encode_for_gan(table):
    """One-hot categoricals plus numerics min-max scaled into [0, 1] by the
    range each takes on this table; returns (encoded rows, {numeric column:
    (min, max)})."""
    numeric = {j: (float(table.X[:, j].min()), float(table.X[:, j].max()))
               for j in table.schema.numeric_indices}
    return encode_rows(table, VANILLA, numeric), numeric


def decode_rows(encoded, schema, mode, numeric):
    """Positive rows from generator output: argmax categorical blocks; GAN
    numerics inverse min-max scaled from [0, 1], CTGAN numerics rebuilt from
    the alpha (clipped to [-1, 1]) and the argmax mode of their normalizer."""
    n = encoded.shape[0]
    X = np.zeros((n, len(schema.columns)))
    for block in output_blocks(schema, mode, numeric):
        cols = encoded[:, block.offset:block.offset + block.width]
        if block.kind == "categorical":
            X[:, block.column] = np.argmax(cols, axis=1)
        elif block.kind == "numeric":
            vals = np.clip(cols, 0.0, 1.0)
            for k, (j, (lo, hi)) in enumerate(numeric.items()):
                X[:, j] = vals[:, k] * (hi - lo) + lo
        elif block.kind == "alpha":  # its mode block comes next
            alphas = np.clip(cols[:, 0], -1.0, 1.0)
        else:
            norm = numeric[block.column]
            modes = np.argmax(cols, axis=1)
            X[:, block.column] = alphas * ALPHA_SCALE * norm.stds[modes] + norm.means[modes]
    return Table(schema, X, np.ones(n, dtype=int))


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


def generator_backward_step(gen, acts, grad_out, learning_rate):
    """Backprop grad_out through the generator, then Adam-update it."""
    grad, _ = backward(gen, acts, grad_out)
    adam_step(gen, grad, learning_rate)


@dataclass
class GeneratorModel:
    """A trained oversampler of mode VANILLA, WGAN or CTGAN.

    ``numeric`` maps each numeric schema column, in schema order, to its
    (min, max) range for VANILLA and WGAN or to its ModeNormalizer for
    CTGAN. ``stats`` holds the condition frequencies; it has no columns
    unless the mode is CTGAN and the schema has discrete columns.
    """

    FORMAT = "fingan-generator-v3"

    mode: str
    schema: object
    numeric: dict
    generator: object
    latent_dim: int
    stats: DiscreteStats
    history: dict = field(default_factory=dict)
    discriminator: object = None  # the trained critic, for inspection; not saved

    def sample(self, n, seed, condition=None):
        return sample_synthetic(self, n, seed, condition)

    def to_dict(self):
        return {
            "format": self.FORMAT,
            "mode": self.mode,
            "schema": self.schema.to_dict(),
            "numeric": {str(j): t.to_dict() if self.mode == CTGAN else list(t)
                        for j, t in self.numeric.items()},
            "frequencies": [f.tolist() for f in self.stats.frequencies],
            "latent_dim": self.latent_dim,
            "generator": nn_core.state_to_dict(self.generator),
        }

    @classmethod
    def from_dict(cls, d):
        """Rebuild a saved model. Raises ValueError for another format and
        SchemaMismatch when the mode, the numeric transforms, the condition
        frequencies, the latent width or the network do not fit the saved
        schema."""
        from .data_model import Schema

        if d.get("format") != cls.FORMAT:
            raise ValueError(f"unknown model format {d.get('format')!r}")
        mode = d["mode"]
        if mode not in (VANILLA, WGAN, CTGAN):
            raise SchemaMismatch(f"unknown generator mode {mode!r}")
        schema = Schema.from_dict(d["schema"])
        saved = d["numeric"]
        if sorted(saved) != sorted(map(str, schema.numeric_indices)):
            raise SchemaMismatch(f"transforms for columns {sorted(saved)}, numeric "
                                 f"columns are {schema.numeric_indices}")
        read = ModeNormalizer.from_dict if mode == CTGAN else _range_from_dict
        numeric = {j: read(saved[str(j)]) for j in schema.numeric_indices}
        conditioned = schema.categorical_indices if mode == CTGAN else []
        frequencies = [np.array(f, dtype=float) for f in d["frequencies"]]
        if ([len(f) for f in frequencies]
                != [len(schema.columns[j].categories) for j in conditioned]):
            raise SchemaMismatch("saved condition frequencies do not match the schema")
        stats = DiscreteStats(conditioned, frequencies)
        latent_dim = d["latent_dim"]
        if not (type(latent_dim) is int and latent_dim >= 1):
            raise SchemaMismatch(f"latent_dim {latent_dim!r} is not a positive integer")
        gen = nn_core.state_from_dict(d["generator"])
        check_generator(gen, latent_dim + stats.total_width,
                        output_blocks(schema, mode, numeric))
        return cls(mode, schema, numeric, gen, latent_dim, stats)


def train_gan(minority, config):
    """Adversarial training on minority rows only; returns a sampler model."""
    if minority.n_rows == 0:
        raise EmptyMinority("no minority rows to train on")
    if not np.all(minority.y == 1):
        raise ValueError("train_gan expects minority (positive) rows only")
    if config.mode == CTGAN:
        raise ValueError("train_gan trains vanilla and wgan; ctgan needs train_ctgan")

    real, numeric = encode_for_gan(minority)
    rng = np.random.default_rng(config.seed)
    gen = build_generator(config.latent_dim, output_blocks(minority.schema, config.mode),
                          config.seed)
    disc = build_discriminator(real.shape[1], config.mode, config.seed + 1)
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
    return GeneratorModel(config.mode, minority.schema, numeric, gen, config.latent_dim,
                          DiscreteStats([], []), history, disc)


def train_adversarial(gen, critic, rng, config, wasserstein, batches, draw_real,
                      draw_condition=None, condition_loss=None):
    """The adversarial loop shared by vanilla GAN, WGAN and CTGAN.

    Each of config.epochs epochs runs one step per entry of ``batches(rng)``.
    A step updates the critic once on binary cross-entropy, or, when
    ``wasserstein``, CRITIC_STEPS times on the Wasserstein loss with
    weight clipping; each update scores ``draw_real(batch, rng)``, which
    returns (real rows, their conditions), against as many fresh fakes. Then
    the generator takes one update. ``draw_condition(b, rng)`` returns its
    conditions and the category positions that ``condition_loss(fake, hot,
    grad_fake)`` scores; without it the generator's conditions are empty.
    Conditions are appended to the generator's noise and to both critic
    inputs. Returns the per-epoch mean losses {"d_loss": [...], "g_loss": [...]}.

    The generator does not change during a step's critic updates, so their
    real rows and noise are drawn first, in update order, and one forward
    pass over the stack of their inputs makes every update's fakes. Each
    update then runs the critic once forward and once backward over the
    stack (real, fake); see ``nn_core.backward`` for how its gradient sums.
    """
    n_critic = CRITIC_STEPS if wasserstein else 1
    d_hist, g_hist = [], []
    for epoch in range(config.epochs):
        d_losses, g_losses = [], []
        for batch in batches(rng):
            draws = []
            for _ in range(n_critic):
                real_batch, cond = draw_real(batch, rng)
                z = rng.standard_normal((len(real_batch), config.latent_dim))
                draws.append((real_batch, cond, np.concatenate([z, cond], axis=1)))
            fakes = forward(gen, np.stack([gen_in for _, _, gen_in in draws]))[-1]
            for (real_batch, cond, _), fake in zip(draws, fakes):
                b = len(real_batch)
                acts = forward(critic, np.stack([np.concatenate([real_batch, cond], axis=1),
                                                 np.concatenate([fake, cond], axis=1)]))
                score_r, score_f = acts[-1]
                if wasserstein:
                    # critic maximizes mean(real) - mean(fake); minimize the negation
                    d_loss = float(score_f.mean() - score_r.mean())
                    grad = np.stack([np.full((b, 1), -1.0 / b), np.full((b, 1), 1.0 / b)])
                else:
                    loss_r, grad_r = bce_loss(score_r[:, 0], np.ones(b))
                    loss_f, grad_f = bce_loss(score_f[:, 0], np.zeros(b))
                    d_loss, grad = loss_r + loss_f, np.stack([grad_r, grad_f])[:, :, None]
                g, _ = backward(critic, acts, grad)
                adam_step(critic, g, config.learning_rate)
                if wasserstein:
                    clip_weights(critic, WGAN_CLIP)

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
            generator_backward_step(gen, gen_acts, grad_fake, config.learning_rate)
            if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
                raise NonFiniteLoss(epoch, f"d={d_loss} g={g_loss}")
            d_losses.append(d_loss)
            g_losses.append(g_loss)
        d_hist.append(float(np.mean(d_losses)))
        g_hist.append(float(np.mean(g_losses)))
        nn_core.assert_finite(critic)
        nn_core.assert_finite(gen)
    return {"d_loss": d_hist, "g_loss": g_hist}


def draw_conditions(stats, b, rng):
    """Batched condition draw: uniform column choice, log(1 + frequency)
    category choice; returns (column positions in stats.columns,
    categories, onehot matrix).

    Takes the values a per-row ``rng.choice(p=...)`` loop would take from
    the stream, in the same order: b column indices, then b uniforms, each
    looked up in its column's cdf as ``choice`` looks it up.
    """
    if not stats.columns:
        raise NoDiscreteColumns("dataset has no discrete columns to condition on")
    cols = rng.integers(len(stats.columns), size=b)
    uniforms = rng.random(b)
    cats = np.empty(b, dtype=int)
    for ci, cdf in enumerate(stats.cdfs):
        rows = cols == ci
        cats[rows] = cdf.searchsorted(uniforms[rows], side="right")
    onehot = np.zeros((b, stats.total_width))
    onehot[np.arange(b), np.asarray(stats.offsets)[cols] + cats] = 1.0
    return cols, cats, onehot


def _resolve_condition(model, condition):
    """(column name or index, category level or index) -> (col idx, cat idx,
    stats idx). NoDiscreteColumns when the model takes no condition;
    UnknownCondition lists the discrete columns, or the column's categories,
    when either does not resolve."""
    if not model.stats.columns:
        raise NoDiscreteColumns(
            f"cannot condition a {model.mode} model: only a conditional (CTGAN) "
            "model of a table with discrete columns takes a condition")
    col, cat = condition
    names = model.schema.names
    if isinstance(col, str):
        col = names.index(col) if col in names else None
    if col not in model.stats.columns:
        discrete = ", ".join(names[c] for c in model.stats.columns)
        raise UnknownCondition(f"cannot condition on column {condition[0]!r}; "
                               f"the discrete columns are {discrete}")
    spec = model.schema.columns[col]
    if isinstance(cat, str):
        cat = spec.categories.index(cat) if cat in spec.categories else None
    if cat is None or not 0 <= cat < len(spec.categories):
        raise UnknownCondition(f"column {spec.name!r} has no category {condition[1]!r}; "
                               f"its categories are {', '.join(spec.categories)}")
    ci = model.stats.columns.index(col)
    if model.stats.frequencies[ci][cat] == 0:
        warnings.warn(
            f"condition ({spec.name!r}, category {cat}) matches no training rows; "
            "sampling without real-bucket support",
            EmptyConditionBucketWarning,
        )
    return col, cat, ci


def sample_synthetic(model, n, seed, condition=None):
    """Draw n schema-valid positive rows from a trained generator.

    A model with condition columns draws each row's condition by log
    frequency, then the noise; ``condition`` = (column, category), by name
    or index, instead fixes one discrete column's category in every row.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    stats = model.stats
    if condition is not None:
        col, cat, ci = _resolve_condition(model, condition)
        cond = np.zeros((n, stats.total_width))
        cond[:, stats.offsets[ci] + cat] = 1.0
    elif stats.columns:
        _, _, cond = draw_conditions(stats, n, rng)
    else:
        cond = np.zeros((n, 0))
    z = rng.standard_normal((n, model.latent_dim))
    encoded = forward(model.generator, np.concatenate([z, cond], axis=1))[-1]
    table = decode_rows(encoded, model.schema, model.mode, model.numeric)
    if condition is not None:
        table.X[:, col] = cat
    return table


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
    deterministically from the seed. Raises NonFiniteSample if any
    synthetic row holds NaN or Inf.
    """
    from .data_model import concat_tables

    n_synth = synthetic_count(train, target)
    if n_synth == 0:
        return train.subset(np.arange(train.n_rows))
    synth = model.sample(n_synth, seed)
    bad = int((~np.isfinite(synth.X)).any(axis=1).sum())
    if bad:
        raise NonFiniteSample(f"{bad} of {n_synth} synthetic rows are not finite")
    merged = concat_tables([train, synth])
    order = np.random.default_rng(seed).permutation(merged.n_rows)
    return merged.subset(order)
