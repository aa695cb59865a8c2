"""Conditional tabular GAN with per-column Gaussian-mixture normalization.

``fit_mode_normalizer`` fits each continuous column's mixture; the column
is then encoded (``gan.encode_rows``) as an alpha, the offset from a sampled
mixture component's mean in units of 4 sigma, and that component's one-hot.
Discrete columns are one-hot. Training conditions the generator on a
(column, category) one-hot drawn by log-frequency sampling, and real batches
are drawn from rows matching the sampled condition so rare categories stay
represented. Training runs the adversarial loop that vanilla GAN and WGAN
also use (``gan.train_adversarial``) with a Wasserstein critic: conditions
are appended to the generator's noise and to both critic inputs, the real
rows come from the sampled condition's bucket, and a cross-entropy term
pushes each fake row toward its condition's category. The trained model is
a ``gan.GeneratorModel`` of mode CTGAN, loaded and sampled as GAN and WGAN are.
"""

import numpy as np

from . import nn_core
from .errors import EmptyMinority
from .gan import (
    CTGAN,
    MAX_MODES,
    WGAN,
    DiscreteStats,
    GeneratorModel,
    ModeNormalizer,
    build_discriminator,
    build_generator,
    draw_conditions,
    encode_rows,
    output_blocks,
    train_adversarial,
)

# perfbench/tracer.py rebinds these names here to label calls made from this module
from .gan import generator_backward_step  # noqa: F401
from .nn_core import adam_step, backward, forward  # noqa: F401

WEIGHT_PRUNE = 0.005
EM_MAX_ITERS = 200
EM_TOL = 1e-8


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


def build_discrete_stats(table):
    cols = table.schema.categorical_indices
    freqs = [np.bincount(table.X[:, j].astype(int),
                         minlength=len(table.schema.columns[j].categories)).astype(float)
             for j in cols]
    return DiscreteStats(list(cols), freqs)


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
    """Conditional WGAN training on minority rows with a GanConfig of mode
    CTGAN; returns a sampler model."""
    if minority.n_rows == 0:
        raise EmptyMinority("no minority rows to train on")
    if not np.all(minority.y == 1):
        raise ValueError("train_ctgan expects minority (positive) rows only")
    if config.mode != CTGAN:
        raise ValueError(f"train_ctgan needs mode {CTGAN!r}, got {config.mode!r}")

    rng = np.random.default_rng(config.seed)
    schema = minority.schema
    numeric = schema.numeric_indices
    normalizers = dict(zip(numeric, fit_mode_normalizer(
        minority.X[:, numeric], config.max_modes,
        [config.seed + j for j in numeric])))
    blocks = output_blocks(schema, CTGAN, normalizers)
    real = encode_rows(minority, CTGAN, normalizers, rng)

    stats = build_discrete_stats(minority)
    cond_dim = stats.total_width
    gen = build_generator(config.latent_dim + cond_dim, blocks, config.seed)
    critic = build_discriminator(real.shape[1] + cond_dim, WGAN, config.seed + 1)

    if cond_dim:
        buckets = _condition_buckets(minority.X, stats)
        offsets = np.asarray(stats.offsets)
        # categorical blocks come in condition order; the penalty scores offset + category
        penalty_offsets = np.array([b.offset for b in blocks if b.kind == "categorical"])

        def draw_real(b, rng):
            cols, cats, cond = draw_conditions(stats, b, rng)
            rows = _sample_bucket_rows(buckets, offsets[cols] + cats, len(real), rng)
            return real[rows], cond

        def draw_condition(b, rng):
            cols, cats, cond = draw_conditions(stats, b, rng)
            return cond, penalty_offsets[cols] + cats

        condition_loss = _condition_loss
    else:
        def draw_real(b, rng):
            return real[rng.integers(0, len(real), size=b)], np.zeros((b, 0))

        draw_condition = condition_loss = None

    steps = [config.batch_size] * max(1, minority.n_rows // config.batch_size)
    history = train_adversarial(gen, critic, rng, config, True, lambda rng: steps,
                                draw_real, draw_condition, condition_loss)
    return GeneratorModel(CTGAN, schema, normalizers, gen, config.latent_dim, stats,
                          history, critic)
