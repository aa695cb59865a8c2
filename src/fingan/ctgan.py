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
EM_BLOCK_VALUES = 1 << 21  # one EM loop holds at most this many (fit, component, row) terms


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
    well-separated clusters. Every (column, count) fit runs in one EM loop,
    and each column's result is the one a fit of that column alone gives.
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
    fits = [(i, k) for i in fitted for k in range(1, counts[i] + 1)]
    fit_cols = np.array([i for i, _ in fits], dtype=int)
    ks = np.array([k for _, k in fits], dtype=int)
    width = max(ks, default=1)
    em_means, em_stds = np.zeros((len(fits), width)), np.empty((len(fits), width))
    for r, (i, k) in enumerate(fits):
        em_means[r, :k] = centers[i][:k]
        em_stds[r] = std0[i]
    em_weights, histories = np.empty_like(em_means), []
    per_loop = max(1, EM_BLOCK_VALUES // (width * n))
    for lo in range(0, len(fits), per_loop):
        part = slice(lo, lo + per_loop)
        em_weights[part], em_means[part], em_stds[part], part_histories = _fit_em(
            columns[fit_cols[part]], ks[part], em_means[part], em_stds[part],
            floors[fit_cols[part]])
        histories += part_histories

    best = {}
    for r, (i, k) in enumerate(fits):
        bic = -2.0 * histories[r][-1] + (3 * k - 1) * np.log(n)
        if i not in best or bic < best[i][0] - 1e-9:
            best[i] = (bic, em_weights[r, :k], em_means[r, :k], em_stds[r, :k],
                       histories[r])

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


def _sum_components(terms, counts):
    """Sum (f, width, n) terms over the component axis as numpy sums a fit's
    count contiguous terms: in order below 8 terms, pairwise from 8 on. The
    terms past a fit's count are zeros."""
    total = terms.sum(axis=1)  # a strided axis: in order
    for k in np.unique(counts[counts >= 8]):
        fits = counts == k
        total[fits] = np.ascontiguousarray(terms[fits, :k].swapaxes(1, 2)).sum(axis=2)
    return total


def _sum_rows(terms, counts):
    """Sum (f, width, n) terms over rows as numpy sums an (n, count) array
    down its rows: pairwise when the count is 1, which makes the rows
    contiguous, and in order otherwise."""
    total = np.ascontiguousarray(terms.transpose(2, 0, 1)).sum(axis=0)  # rows outermost: in order
    one = counts == 1
    if one.any():
        total[one] = terms[one].sum(axis=2)
    return total


def _fit_em(values, counts, means, stds, floors):
    """EM on f mixture fits at once: values (f, n), component counts (f,),
    initial means and stds (f, width) with width at least every count, and
    sigma floors (f,).

    Each fit runs the arithmetic of a fit on its own, elementwise and with
    every reduction summed in the same order, and stops updating at the
    iteration where it alone would stop. Components past a fit's count have
    log-weight -inf, so they take no responsibility and add exact zeros.
    Returns weights, means and stds (f, width), of which a fit's first
    count columns are its result, and f loglik histories.
    """
    f, n = values.shape
    absent = np.arange(means.shape[1]) >= counts[:, None]
    weights = np.where(absent, 0.0, 1.0 / counts[:, None])
    means, stds = np.where(absent, 0.0, means), np.where(absent, 1.0, stds)
    logliks = np.empty((f, EM_MAX_ITERS))
    iters = np.zeros(f, dtype=int)
    prev = np.full(f, -np.inf)
    live = np.arange(f)
    for it in range(EM_MAX_ITERS):
        # (fit, component, row), rows contiguous; each step is one in-place
        # pass, in the order of the one-fit expressions
        x = values[live][:, None, :]
        k = counts[live]
        sd = stds[live][:, :, None]
        # E step: log_pdf = -0.5 * ((x - mean) / sd) ** 2 - log(sd) - log(2 pi) / 2
        joint = x - means[live][:, :, None]
        joint /= sd
        np.square(joint, out=joint)
        joint *= -0.5
        joint -= np.log(sd)
        joint -= 0.5 * np.log(2 * np.pi)
        joint += np.where(absent[live], -np.inf,
                          np.log(np.maximum(weights[live], 1e-300)))[:, :, None]
        row_max = joint.max(axis=1, keepdims=True)
        resp = joint - row_max
        np.exp(resp, out=resp)
        lse = row_max[:, 0] + np.log(_sum_components(resp, k))
        loglik = lse.sum(axis=1)
        logliks[live, it] = loglik
        iters[live] += 1
        np.subtract(joint, lse[:, None, :], out=resp)
        np.exp(resp, out=resp)
        # M step; joint's buffer now holds the terms of each sum
        nk = _sum_rows(resp, k)
        safe = np.maximum(nk, 1e-12)
        weights[live] = nk / n
        means[live] = _sum_rows(np.multiply(resp, x, out=joint), k) / safe
        np.subtract(x, means[live][:, :, None], out=joint)
        np.square(joint, out=joint)
        var = _sum_rows(np.multiply(resp, joint, out=joint), k) / safe
        stds[live] = np.maximum(np.sqrt(var), floors[live][:, None])
        done = (loglik - prev[live] < EM_TOL) & np.isfinite(prev[live])
        prev[live] = loglik
        live = live[~done]
        if len(live) == 0:
            break
    return weights, means, stds, [row[:m].tolist() for row, m in zip(logliks, iters)]


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
