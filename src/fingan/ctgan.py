"""Conditional tabular GAN with per-column Gaussian-mixture normalization.

Continuous columns are represented as (alpha, mode one-hot) pairs where alpha
is the offset from the sampled mixture component's mean in units of 4 sigma.
Discrete columns are one-hot. Training conditions the generator on a
(column, category) one-hot drawn by log-frequency sampling, and real batches
are drawn from rows matching the sampled condition so rare categories stay
represented. Training runs the adversarial loop that vanilla GAN and WGAN
also use (``gan.train_adversarial``) with a Wasserstein critic: conditions
are appended to the generator's noise and to both critic inputs, the real
rows come from the sampled condition's bucket, and a cross-entropy term
pushes each fake row toward its condition's category.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn_core
from .data_model import Table
from .errors import (
    EmptyConditionBucketWarning,
    EmptyMinority,
    InvalidOneHot,
    NoDiscreteColumns,
    SchemaMismatch,
)
from .gan import (
    WGAN,
    Block,
    build_discriminator,
    build_generator,
    check_generator,
    encode_categoricals,
    train_adversarial,
)
from .nn_core import AdamConfig

# perfbench/tracer.py rebinds these names here to label calls made from this module
from .gan import generator_backward_step  # noqa: F401
from .nn_core import adam_step, backward, forward  # noqa: F401

MAX_MODES = 10
WEIGHT_PRUNE = 0.005
ALPHA_SCALE = 4.0
EM_MAX_ITERS = 200
EM_TOL = 1e-8
# Generator.choice's tolerance on the sum of p for float64 probabilities
CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass
class ModeNormalizer:
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
        weights, means, stds = (np.array(d[key]) for key in ("weights", "means", "stds"))
        if not (weights.ndim == 1 and 0 < len(weights) == len(means) == len(stds)):
            raise SchemaMismatch(
                f"normalizer with {len(weights)} weights, {len(means)} means "
                f"and {len(stds)} stds")
        return cls(weights, means, stds)


def _sigma_floor(values):
    rng_width = float(np.max(values) - np.min(values))
    return 1e-6 * rng_width if rng_width > 0 else 1e-6


def _kmeanspp_centers(values, k, rng):
    centers = [values[rng.integers(len(values))]]
    for _ in range(1, k):
        d2 = np.min((values[:, None] - np.array(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total == 0:
            centers.append(values[rng.integers(len(values))])
            continue
        centers.append(values[rng.choice(len(values), p=d2 / total)])
    return np.array(centers)


def fit_mode_normalizer(values, max_modes=MAX_MODES, seed=0):
    """Gaussian mixture per continuous column.

    ``values`` is one column, which returns one ModeNormalizer, or an (n, c)
    matrix with one seed per column in ``seed``, which returns a list of c.
    Per column, EM is run from a k-means++ initialization for every
    component count up to max_modes; the count is selected by BIC, then
    components below the weight-prune threshold are dropped and the weights
    renormalized. This keeps redundant components from surviving on
    well-separated clusters. All columns are fitted together, and each
    column's result is the one a fit of that column alone gives.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        return fit_mode_normalizer(values[:, None], max_modes, [seed])[0]
    columns = np.ascontiguousarray(values.T)
    n = columns.shape[1]
    floors = np.array([_sigma_floor(v) for v in columns])
    distinct = [len(np.unique(v)) for v in columns]
    counts = [min(max_modes, d) for d in distinct]
    # a column with one distinct value gets one mode and no fit; for the
    # others the k-means++ centers for count k are the first k of the
    # centers drawn for the largest count, as each fit seeds a fresh stream
    fitted = [i for i, d in enumerate(distinct) if d >= 2]
    centers = {i: _kmeanspp_centers(columns[i], counts[i],
                                    np.random.default_rng(seed[i]))
               for i in fitted}
    std0 = {i: max(columns[i].std(), floors[i]) for i in fitted}
    best = {}
    for k in range(1, max((counts[i] for i in fitted), default=0) + 1):
        idx = np.array([i for i in fitted if counts[i] >= k])
        fit = _fit_em(columns[idx], np.array([centers[i][:k] for i in idx]),
                      np.array([np.full(k, std0[i]) for i in idx]), floors[idx])
        for r, i in enumerate(idx):
            bic = -2.0 * fit[3][r][-1] + (3 * k - 1) * np.log(n)
            if i not in best or bic < best[i][0] - 1e-9:
                best[i] = (bic, fit[0][r], fit[1][r], fit[2][r], fit[3][r])

    out = []
    for i, col in enumerate(columns):
        if i not in best:
            out.append(ModeNormalizer(np.array([1.0]), np.array([float(col[0])]),
                                      np.array([floors[i]])))
            continue
        _, weights, means, stds, loglik_history = best[i]
        keep = weights >= WEIGHT_PRUNE
        if not keep.any():
            keep = weights == weights.max()
        weights, means, stds = weights[keep], means[keep], stds[keep]
        weights = weights / weights.sum()
        order = np.argsort(means)
        out.append(ModeNormalizer(weights[order], means[order], stds[order],
                                  loglik_history))
    return out


def _fit_em(values, means, stds, floors):
    """EM on c columns at once: values (c, n), initial means and stds (c, k).

    Each column runs the arithmetic of a one-column fit, elementwise and
    with every reduction over the same contiguous run in the same order,
    and stops updating at the iteration where a fit of it alone would stop.
    Returns weights, means and stds (c, k) and c loglik histories.
    """
    c, n = values.shape
    k = means.shape[1]
    weights = np.full((c, k), 1.0 / k)
    histories = [[] for _ in range(c)]
    prev = np.full(c, -np.inf)
    live = np.arange(c)
    for _ in range(EM_MAX_ITERS):
        x = values[live][:, :, None]
        # E step
        log_pdf = (
            -0.5 * ((x - means[live][:, None, :]) / stds[live][:, None, :]) ** 2
            - np.log(stds[live][:, None, :])
            - 0.5 * np.log(2 * np.pi)
        )
        log_w = np.log(np.maximum(weights[live], 1e-300))
        joint = log_pdf + log_w[:, None, :]
        row_max = joint.max(axis=2, keepdims=True)
        lse = row_max[:, :, 0] + np.log(np.exp(joint - row_max).sum(axis=2))
        loglik = lse.sum(axis=1)
        for i, ll in zip(live, loglik):
            histories[i].append(float(ll))
        resp = np.exp(joint - lse[:, :, None])
        # M step
        nk = resp.sum(axis=1)
        safe = np.maximum(nk, 1e-12)
        weights[live] = nk / n
        means[live] = (resp * x).sum(axis=1) / safe
        var = (resp * (x - means[live][:, None, :]) ** 2).sum(axis=1) / safe
        stds[live] = np.maximum(np.sqrt(var), floors[live][:, None])
        done = (loglik - prev[live] < EM_TOL) & np.isfinite(prev[live])
        prev[live] = loglik
        live = live[~done]
        if len(live) == 0:
            break
    return weights, means, stds, histories


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


def decode_continuous(alpha, mode_onehot, norm):
    onehot = np.asarray(mode_onehot, dtype=float)
    hot = np.flatnonzero(onehot == 1.0)
    if len(hot) != 1 or not np.all((onehot == 0.0) | (onehot == 1.0)):
        raise InvalidOneHot(f"expected exactly one hot bit, got {onehot}")
    k = hot[0]
    return float(alpha * ALPHA_SCALE * norm.stds[k] + norm.means[k])


@dataclass
class DiscreteStats:
    """Per discrete column: schema index, level count, observed frequencies.

    ``cdfs`` holds, per column, the cdf that ``Generator.choice`` builds from
    the column's log(1 + frequency) category probabilities. The probabilities
    are validated once here the way ``choice`` validates them on every call:
    finite, non-negative and summing to 1 within its tolerance; a failure
    raises ValueError.
    """

    columns: list  # schema column indices
    frequencies: list  # one count array per column
    offsets: list  # start of each column's block in the flattened cond vector
    cdfs: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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


def build_discrete_stats(table):
    cols = table.schema.categorical_indices
    freqs, offsets = [], []
    offset = 0
    for j in cols:
        levels = len(table.schema.columns[j].categories)
        counts = np.bincount(table.X[:, j].astype(int), minlength=levels)
        freqs.append(counts.astype(float))
        offsets.append(offset)
        offset += levels
    return DiscreteStats(list(cols), freqs, offsets)


def _sample_cond_batch(stats, b, rng):
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


@dataclass
class CtganConfig:
    epochs: int = 300
    batch_size: int = 64
    latent_dim: int = 64
    max_modes: int = MAX_MODES
    adam: AdamConfig = field(default_factory=lambda: AdamConfig(learning_rate=2e-4))
    wgan_clip: float = 0.01
    critic_steps: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.max_modes < 1:
            raise ValueError("max_modes must be >= 1")
        if self.critic_steps < 1:
            raise ValueError("critic_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")


def _build_ctgan_layout(schema, normalizers):
    blocks = []
    offset = 0
    for j in schema.numeric_indices:
        blocks.append(Block("alpha", j, offset, 1))
        offset += 1
        m = normalizers[j].n_modes
        blocks.append(Block("mode", j, offset, m))
        offset += m
    for j in schema.categorical_indices:
        width = len(schema.columns[j].categories)
        blocks.append(Block("categorical", j, offset, width))
        offset += width
    return tuple(blocks), offset


def _encode_table(table, normalizers, blocks, width, rng):
    out = encode_categoricals(table, blocks, width)
    # alpha and its mode one-hot come from the same draw
    for j in table.schema.numeric_indices:
        alpha_block = next(b for b in blocks if b.kind == "alpha" and b.column == j)
        mode_block = next(b for b in blocks if b.kind == "mode" and b.column == j)
        alphas, onehots = encode_continuous_batch(table.X[:, j], normalizers[j], rng)
        out[:, alpha_block.offset] = alphas
        out[:, mode_block.offset:mode_block.offset + mode_block.width] = onehots
    return out


@dataclass
class CtganModel:
    FORMAT = "fingan-ctgan-v2"

    schema: object
    normalizers: dict  # numeric schema column index -> ModeNormalizer
    blocks: tuple
    enc_width: int
    generator: object
    latent_dim: int
    stats: DiscreteStats
    history: dict = field(default_factory=dict)
    mode: str = "ctgan"

    def sample(self, n, seed, condition=None):
        return sample_ctgan(self, n, seed, condition)

    def to_dict(self):
        return {
            "format": self.FORMAT,
            "schema": self.schema.to_dict(),
            "normalizers": {str(j): nrm.to_dict() for j, nrm in self.normalizers.items()},
            "blocks": [asdict(b) for b in self.blocks],
            "enc_width": self.enc_width,
            "latent_dim": self.latent_dim,
            "generator": nn_core.state_to_dict(self.generator),
            "stats": {
                "columns": self.stats.columns,
                "frequencies": [f.tolist() for f in self.stats.frequencies],
                "offsets": self.stats.offsets,
            },
        }

    @classmethod
    def from_dict(cls, d):
        from .data_model import Schema

        if d.get("format") != cls.FORMAT:
            raise ValueError(f"unknown model format {d.get('format')!r}")
        schema = Schema.from_dict(d["schema"])
        normalizers = {int(j): ModeNormalizer.from_dict(nd)
                       for j, nd in d["normalizers"].items()}
        if sorted(normalizers) != schema.numeric_indices:
            raise SchemaMismatch(f"normalizers for columns {sorted(normalizers)}, "
                                 f"numeric columns are {schema.numeric_indices}")
        stats = DiscreteStats(
            list(d["stats"]["columns"]),
            [np.array(f) for f in d["stats"]["frequencies"]],
            list(d["stats"]["offsets"]),
        )
        widths = [len(f) for f in stats.frequencies]
        if (stats.columns != schema.categorical_indices
                or widths != [len(schema.columns[j].categories) for j in stats.columns]
                or stats.offsets != [sum(widths[:i]) for i in range(len(widths))]):
            raise SchemaMismatch("saved condition statistics do not match the schema")
        blocks = tuple(Block(b["kind"], b["column"], b["offset"], b["width"])
                       for b in d["blocks"])
        if (blocks, d["enc_width"]) != _build_ctgan_layout(schema, normalizers):
            raise SchemaMismatch("saved blocks do not match the schema and normalizers")
        gen = nn_core.state_from_dict(d["generator"])
        check_generator(gen, d["latent_dim"] + stats.total_width, blocks)
        return cls(schema, normalizers, blocks, d["enc_width"], gen,
                   d["latent_dim"], stats)


def _condition_buckets(X, stats):
    """Rows of X grouped by flattened (column, category) condition position.

    Returns (rows, starts, sizes): bucket g is ``rows[starts[g]:][:sizes[g]]``,
    ascending, for training-by-sampling.
    """
    groups = [np.flatnonzero(X[:, j].astype(int) == cat)
              for j, freq in zip(stats.columns, stats.frequencies)
              for cat in range(len(freq))]
    sizes = np.array([len(g) for g in groups], dtype=int)
    return np.concatenate(groups), np.cumsum(sizes) - sizes, sizes


def _sample_bucket_rows(buckets, flat, n_real, rng):
    """One real row per condition: uniform within its bucket.

    ``buckets`` is (rows, starts, sizes) over the flattened condition
    positions ``flat``; an empty bucket draws from all ``n_real`` rows. One
    bounded-integer draw per row, in row order, as a per-row
    ``rng.choice(bucket)`` / ``rng.integers(n_real)`` loop draws them.
    """
    rows, starts, sizes = buckets
    size = sizes[flat]
    draws = rng.integers(0, np.where(size > 0, size, n_real))
    hit = size > 0
    draws[hit] = rows[starts[flat[hit]] + draws[hit]]
    return draws


def _condition_loss(fake, hot, grad_fake):
    """Cross-entropy pushing row i's conditioned column toward category
    position ``hot[i]``: adds its gradient into ``grad_fake`` and returns the
    batch mean, with the per-row terms summed in row order."""
    b = len(hot)
    rows = np.arange(b)
    p = np.maximum(fake[rows, hot], nn_core.PROB_EPS)
    grad_fake[rows, hot] += -1.0 / (p * b)
    return -np.cumsum(np.log(p))[-1] / b


def train_ctgan(minority, config):
    """Conditional WGAN training on minority rows; returns a sampler model."""
    if minority.n_rows == 0:
        raise EmptyMinority("no minority rows to train on")
    if not np.all(minority.y == 1):
        raise ValueError("train_ctgan expects minority (positive) rows only")

    rng = np.random.default_rng(config.seed)
    schema = minority.schema
    numeric = schema.numeric_indices
    normalizers = dict(zip(numeric, fit_mode_normalizer(
        minority.X[:, numeric], config.max_modes,
        [config.seed + j for j in numeric])))
    blocks, enc_width = _build_ctgan_layout(schema, normalizers)
    real = _encode_table(minority, normalizers, blocks, enc_width, rng)

    stats = build_discrete_stats(minority)
    cond_dim = stats.total_width
    gen = build_generator(config.latent_dim + cond_dim, blocks, config.seed)
    critic = build_discriminator(enc_width + cond_dim, WGAN, config.seed + 1)

    if cond_dim:
        buckets = _condition_buckets(minority.X, stats)
        offsets = np.asarray(stats.offsets)
        # start of each discrete column's block in the encoding, for the
        # condition penalty
        block_offset = np.array([
            next(b.offset for b in blocks if b.kind == "categorical" and b.column == j)
            for j in stats.columns], dtype=int)

        def draw_real(b, rng):
            cols, cats, cond = _sample_cond_batch(stats, b, rng)
            rows = _sample_bucket_rows(buckets, offsets[cols] + cats, len(real), rng)
            return real[rows], cond

        def draw_condition(b, rng):
            cols, cats, cond = _sample_cond_batch(stats, b, rng)
            return cond, block_offset[cols] + cats

        condition_loss = _condition_loss
    else:
        def draw_real(b, rng):
            return real[rng.integers(0, len(real), size=b)], np.zeros((b, 0))

        draw_condition = condition_loss = None

    steps = [config.batch_size] * max(1, minority.n_rows // config.batch_size)
    history = train_adversarial(gen, critic, rng, config, True, lambda rng: steps,
                                draw_real, draw_condition, condition_loss)
    return CtganModel(schema, normalizers, blocks, enc_width, gen,
                      config.latent_dim, stats, history=history)


def _decode_ctgan(model, encoded, condition=None):
    n = encoded.shape[0]
    X = np.zeros((n, len(model.schema.columns)))
    for block in model.blocks:
        if block.kind == "alpha":
            continue
        sl = slice(block.offset, block.offset + block.width)
        if block.kind == "mode":
            norm = model.normalizers[block.column]
            modes = np.argmax(encoded[:, sl], axis=1)
            alpha_block = next(b for b in model.blocks
                               if b.kind == "alpha" and b.column == block.column)
            alphas = np.clip(encoded[:, alpha_block.offset], -1.0, 1.0)
            X[:, block.column] = alphas * ALPHA_SCALE * norm.stds[modes] + norm.means[modes]
        else:
            X[:, block.column] = np.argmax(encoded[:, sl], axis=1)
    if condition is not None:
        col, cat = condition
        X[:, col] = cat
    return Table(model.schema, X, np.ones(n, dtype=int))


def _resolve_condition(model, condition):
    """(column name or index, category level or index) -> (col idx, cat idx)."""
    col, cat = condition
    if isinstance(col, str):
        col = model.schema.names.index(col)
    spec = model.schema.columns[col]
    if isinstance(cat, str):
        cat = spec.categories.index(cat)
    ci = model.stats.columns.index(col)
    if model.stats.frequencies[ci][cat] == 0:
        warnings.warn(
            f"condition ({spec.name!r}, category {cat}) matches no training rows; "
            "sampling without real-bucket support",
            EmptyConditionBucketWarning,
        )
    return col, cat, ci


def sample_ctgan(model, n, seed, condition=None):
    """Draw n positive rows; condition fixes one discrete column's category."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    cond_dim = model.stats.total_width
    if condition is not None:
        if not model.stats.columns:
            raise NoDiscreteColumns("cannot condition: no discrete columns")
        col, cat, ci = _resolve_condition(model, condition)
        cond = np.zeros((n, cond_dim))
        cond[:, model.stats.offsets[ci] + cat] = 1.0
        enforced = (col, cat)
    elif cond_dim > 0:
        _, _, cond = _sample_cond_batch(model.stats, n, rng)
        enforced = None
    else:
        cond = np.zeros((n, 0))
        enforced = None
    z = rng.standard_normal((n, model.latent_dim))
    encoded = forward(model.generator, np.concatenate([z, cond], axis=1))[-1]
    return _decode_ctgan(model, encoded, enforced)
