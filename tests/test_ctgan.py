import json

import numpy as np
import pytest

from fingan.ctgan import (
    EM_MAX_ITERS,
    EM_TOL,
    WEIGHT_PRUNE,
    CtganModel,
    DiscreteStats,
    ModeNormalizer,
    _condition_buckets,
    _condition_loss,
    _fit_em,
    _kmeanspp_centers,
    _sample_bucket_rows,
    _sample_cond_batch,
    _sigma_floor,
    decode_continuous,
    encode_continuous_batch,
    fit_mode_normalizer,
    sample_ctgan,
    train_ctgan,
)
from fingan.errors import InvalidOneHot, NoDiscreteColumns, SchemaMismatch
from fingan.gan import GanConfig
from fingan.nn_core import PROB_EPS
from fingan.fixtures import rare_category_minority


class TestModeNormalizer:
    def test_two_mode_recovery(self):
        rng = np.random.default_rng(0)
        low = rng.normal(0.0, 0.1, 500)
        high = rng.normal(10.0, 0.1, 500)
        values = np.concatenate([low, high])
        norm = fit_mode_normalizer(values, max_modes=10, seed=0)
        assert norm.n_modes == 2
        # centers agree with the per-half sample means
        assert abs(norm.means[0] - low.mean()) < 0.1
        assert abs(norm.means[1] - high.mean()) < 0.1

    def test_constant_column(self):
        norm = fit_mode_normalizer(np.full(20, 7.5))
        assert norm.n_modes == 1
        assert norm.means[0] == 7.5
        assert norm.stds[0] > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_sum_to_one(self, seed):
        values = np.random.default_rng(seed).normal(size=300) ** 2
        norm = fit_mode_normalizer(values, max_modes=5, seed=seed)
        assert norm.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(norm.stds > 0)

    def test_em_loglik_monotone(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(-2, 0.5, 200), rng.normal(2, 0.5, 200)])
        norm = fit_mode_normalizer(values, max_modes=4, seed=1)
        h = np.array(norm.loglik_history)
        assert np.all(np.diff(h) >= -1e-7)


class TestContinuousCoding:
    def single_mode(self):
        return fit_mode_normalizer(np.array([0.0, 0.0]), max_modes=1)

    def test_center_encodes_to_zero(self):
        norm = fit_mode_normalizer(np.random.default_rng(0).normal(0, 1, 500), 1)
        alphas, onehots = encode_continuous_batch(norm.means[:1], norm,
                                                  np.random.default_rng(0))
        assert alphas[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(onehots, [[1.0]])

    def test_quarter_scale(self):
        # alpha = (value - mean) / (4 * std)
        norm = fit_mode_normalizer(np.random.default_rng(0).normal(0, 1, 50000), 1)
        value = norm.means[0] + 2.0 * norm.stds[0]
        alphas, _ = encode_continuous_batch(np.array([value]), norm,
                                            np.random.default_rng(0))
        assert alphas[0] == pytest.approx(0.5, abs=1e-9)

    def test_decode_inverse(self):
        norm = fit_mode_normalizer(np.random.default_rng(1).normal(0, 1, 500), 1)
        value = decode_continuous(0.5, np.array([1.0]), norm)
        assert value == pytest.approx(norm.means[0] + 2.0 * norm.stds[0])

    def test_round_trip_within_clamp(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.normal(0, 1, 300), rng.normal(8, 1, 300)])
        norm = fit_mode_normalizer(values, max_modes=4, seed=0)
        alphas, onehots = encode_continuous_batch(values, norm, np.random.default_rng(5))
        for v, a, oh in zip(values, alphas, onehots):
            k = np.argmax(oh)
            if abs(v - norm.means[k]) <= 4.0 * norm.stds[k]:  # inside the clamp
                assert decode_continuous(a, oh, norm) == pytest.approx(v, abs=1e-6)

    def test_invalid_onehot(self):
        norm = fit_mode_normalizer(np.array([1.0, 2.0, 3.0]), max_modes=2)
        with pytest.raises(InvalidOneHot):
            decode_continuous(0.0, np.ones(norm.n_modes) if norm.n_modes > 1
                              else np.array([1.0, 1.0]), norm)


class TestCondVec:
    """One condition per draw: _sample_cond_batch at b = 1."""

    def test_single_category_always_hot(self):
        stats = DiscreteStats([0], [np.array([12.0])], [0])
        for seed in range(5):
            _, _, onehot = _sample_cond_batch(stats, 1, np.random.default_rng(seed))
            np.testing.assert_array_equal(onehot, [[1.0]])

    def test_no_discrete_columns(self):
        with pytest.raises(NoDiscreteColumns):
            _sample_cond_batch(DiscreteStats([], [], []), 1, np.random.default_rng(0))

    def test_log_frequency_closed_form(self):
        # frequencies (999, 1): rare picked with prob log(2)/(log(2)+log(1000))
        stats = DiscreteStats([0], [np.array([999.0, 1.0])], [0])
        expected = np.log(2) / (np.log(2) + np.log(1000))
        rng = np.random.default_rng(7)
        draws = 100_000
        hits = sum(_sample_cond_batch(stats, 1, rng)[1][0] == 1 for _ in range(draws))
        assert hits / draws == pytest.approx(expected, abs=0.01)

    def test_column_choice_uniform(self):
        stats = DiscreteStats([0, 1, 2],
                              [np.array([5.0, 5.0]), np.array([100.0]), np.array([1.0, 9.0])],
                              [0, 2, 3])
        rng = np.random.default_rng(11)
        draws = 100_000
        counts = np.zeros(3)
        for _ in range(draws):
            counts[_sample_cond_batch(stats, 1, rng)[0][0]] += 1
        np.testing.assert_allclose(counts / draws, np.full(3, 1 / 3), atol=0.02)


class TestTrainCtgan:
    def test_rare_category_not_collapsed(self, conditioned_ctgan):
        out = sample_ctgan(conditioned_ctgan, 10_000, seed=3)
        rare_share = (out.X[:, 1] == 1.0).mean()
        assert rare_share >= 0.01

    def test_condition_compliance(self, conditioned_ctgan):
        out = sample_ctgan(conditioned_ctgan, 500, seed=4, condition=("group", "rare"))
        assert (out.X[:, 1] == 1.0).mean() == 1.0  # hard-enforced at decode

    def test_sample_labels_and_count(self, conditioned_ctgan):
        out = sample_ctgan(conditioned_ctgan, 1500, seed=0)
        assert out.n_rows == 1500
        assert np.all(out.y == 1)

    def test_schema_validity_and_determinism(self, conditioned_ctgan):
        a = sample_ctgan(conditioned_ctgan, 200, seed=9)
        b = sample_ctgan(conditioned_ctgan, 200, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        assert set(np.unique(a.X[:, 1])) <= {0.0, 1.0}
        assert np.all(np.isfinite(a.X))

    @pytest.mark.parametrize("name", ["batch_size", "latent_dim"])
    def test_size_below_one_rejected(self, name):
        for value in (0, -1):
            with pytest.raises(ValueError, match=name):
                GanConfig(mode="ctgan", **{name: value})

    def test_mixed_label_rejected(self, rare_category_table):
        bad = rare_category_table
        bad = bad.subset(np.arange(bad.n_rows))
        bad.y[0] = 0
        with pytest.raises(ValueError):
            train_ctgan(bad, GanConfig(mode="ctgan", epochs=1))

    def test_serialization_round_trip(self, conditioned_ctgan):
        restored = CtganModel.from_dict(conditioned_ctgan.to_dict())
        a = sample_ctgan(conditioned_ctgan, 50, seed=2)
        b = sample_ctgan(restored, 50, seed=2)
        np.testing.assert_array_equal(a.X, b.X)

    def test_continuous_only_trains_unconditioned(self, bimodal_table):
        model = train_ctgan(bimodal_table.subset(np.arange(64)),
                            GanConfig(mode="ctgan", epochs=2, batch_size=32, seed=0))
        out = sample_ctgan(model, 20, seed=1)
        assert out.n_rows == 20


# --- Per-row and per-column reference code --------------------------------
# The batched draws, bucket lookup, condition loss and EM fits must take the
# same values from the generator in the same order as these loops, and give
# bitwise-equal results.

def oracle_cond_batch(stats, b, rng):
    cols = rng.integers(len(stats.columns), size=b)
    cats = np.empty(b, dtype=int)
    onehot = np.zeros((b, stats.total_width))
    for i, ci in enumerate(cols):
        logf = np.log1p(stats.frequencies[ci])
        total = logf.sum()
        probs = logf / total if total > 0 else np.full(len(logf), 1.0 / len(logf))
        cats[i] = rng.choice(len(probs), p=probs)
        onehot[i, stats.offsets[ci] + cats[i]] = 1.0
    return cols, cats, onehot


def oracle_bucket_rows(X, stats, cols, cats, n_real, rng):
    buckets = {}
    for ci, j in enumerate(stats.columns):
        col = X[:, j].astype(int)
        for cat in range(len(stats.frequencies[ci])):
            buckets[(ci, cat)] = np.flatnonzero(col == cat)
    return np.array([
        rng.choice(buckets[(ci, cat)])
        if len(buckets[(ci, cat)]) else rng.integers(n_real)
        for ci, cat in zip(cols, cats)
    ])


def oracle_condition_loss(fake, hot, grad_fake):
    b = len(hot)
    ce = 0.0
    for i in range(b):
        p = max(fake[i, hot[i]], PROB_EPS)
        ce -= np.log(p)
        grad_fake[i, hot[i]] += -1.0 / (p * b)
    return ce / b


def oracle_fit_em(values, k, floor, seed):
    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(values, k, rng)
    stds = np.full(k, max(values.std(), floor))
    weights = np.full(k, 1.0 / k)
    loglik_history = []
    prev = -np.inf
    for _ in range(EM_MAX_ITERS):
        log_pdf = (
            -0.5 * ((values[:, None] - means[None, :]) / stds[None, :]) ** 2
            - np.log(stds[None, :])
            - 0.5 * np.log(2 * np.pi)
        )
        log_w = np.log(np.maximum(weights, 1e-300))
        joint = log_pdf + log_w[None, :]
        row_max = joint.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(joint - row_max).sum(axis=1))
        loglik = float(lse.sum())
        loglik_history.append(loglik)
        resp = np.exp(joint - lse[:, None])
        nk = resp.sum(axis=0)
        safe = np.maximum(nk, 1e-12)
        weights = nk / len(values)
        means = (resp * values[:, None]).sum(axis=0) / safe
        var = (resp * (values[:, None] - means[None, :]) ** 2).sum(axis=0) / safe
        stds = np.maximum(np.sqrt(var), floor)
        if loglik - prev < EM_TOL and np.isfinite(prev):
            break
        prev = loglik
    return weights, means, stds, loglik_history


def oracle_fit_mode_normalizer(values, max_modes, seed):
    values = np.asarray(values, dtype=float)
    floor = _sigma_floor(values)
    distinct = np.unique(values)
    if len(distinct) < 2:
        return ModeNormalizer(np.array([1.0]), np.array([float(values[0])]),
                              np.array([floor]))
    best = None
    for k in range(1, min(max_modes, len(distinct)) + 1):
        fit = oracle_fit_em(values, k, floor, seed)
        bic = -2.0 * fit[3][-1] + (3 * k - 1) * np.log(len(values))
        if best is None or bic < best[0] - 1e-9:
            best = (bic, fit)
    weights, means, stds, loglik_history = best[1]
    keep = weights >= WEIGHT_PRUNE
    if not keep.any():
        keep = weights == weights.max()
    weights, means, stds = weights[keep], means[keep], stds[keep]
    weights = weights / weights.sum()
    order = np.argsort(means)
    return ModeNormalizer(weights[order], means[order], stds[order], loglik_history)


def mixed_columns(seed, n=160):
    """Numeric columns of unlike shapes, as an (n, c) matrix."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        np.concatenate([rng.normal(-3, 0.4, n // 2), rng.normal(3, 1.0, n - n // 2)]),
        rng.normal(size=n) ** 2,
        rng.integers(0, 3, n).astype(float),  # three distinct values
        np.full(n, 2.5),  # constant
        rng.uniform(-1, 1, n),
        np.round(rng.normal(10, 2, n), 1),
        np.where(rng.random(n) < 0.5, 1.0, 4.0),  # two distinct values
    ])


def discrete_table(seed, n=50):
    """Stats and X for three discrete columns; the last has no matching
    rows, so its frequencies are all zero and its draws are uniform."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, 4, n),
        np.zeros(n),  # one category only
        np.full(n, -1.0),  # no row in any of its buckets
        rng.normal(size=n),  # numeric, not conditioned on
    ])
    freqs = [np.bincount(X[:, 0].astype(int), minlength=4).astype(float),
             np.array([float(n)]), np.zeros(3)]
    return X, DiscreteStats([0, 1, 2], freqs, [0, 4, 5])


class TestBatchedAgainstPerRow:
    @pytest.mark.parametrize("seed", range(40))
    def test_condition_draw(self, seed, size=37):
        _, stats = discrete_table(seed)
        stats.frequencies[0][seed % 4] = 0.0  # a category never drawn
        stats = DiscreteStats(stats.columns, stats.frequencies, stats.offsets)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for want, got in zip(oracle_cond_batch(stats, size, a),
                             _sample_cond_batch(stats, size, b)):
            np.testing.assert_array_equal(got, want)
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed", range(40))
    def test_single_condition_draw(self, seed):
        self.test_condition_draw(seed, size=1)

    @pytest.mark.parametrize("seed", range(40))
    def test_bucket_draw(self, seed):
        X, stats = discrete_table(seed)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        cols, cats, _ = _sample_cond_batch(stats, 64, np.random.default_rng(seed + 1))
        assert (cols == 2).any()  # the empty buckets are reached
        want = oracle_bucket_rows(X, stats, cols, cats, len(X), a)
        got = _sample_bucket_rows(_condition_buckets(X, stats),
                                  np.asarray(stats.offsets)[cols] + cats, len(X), b)
        np.testing.assert_array_equal(got, want)
        assert a.random() == b.random()

    @pytest.mark.parametrize("seed", range(20))
    def test_condition_loss(self, seed):
        rng = np.random.default_rng(seed)
        fake = rng.dirichlet(np.ones(6), size=64)
        fake[rng.random(64) < 0.1, 0] = 0.0  # clamped at PROB_EPS
        hot = rng.integers(0, 6, 64)
        grad_a = rng.normal(size=(64, 6))
        grad_b = grad_a.copy()
        want = oracle_condition_loss(fake, hot, grad_a)
        got = _condition_loss(fake, hot, grad_b)
        assert got == want
        np.testing.assert_array_equal(grad_b, grad_a)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_em_fits_all_columns_at_once(self, k):
        X = mixed_columns(k)
        # columns 2 and 6 have fewer distinct values than most k and stop
        # within a few iterations; the others run longer
        fitted = [0, 1, 2, 4, 5, 6]
        seeds = [k + 10 * i for i in fitted]
        floors = np.array([_sigma_floor(X[:, i]) for i in fitted])
        columns = np.ascontiguousarray(X[:, fitted].T)
        init = [(np.random.default_rng(s), c) for s, c in zip(seeds, columns)]
        means = np.array([_kmeanspp_centers(c, k, r) for r, c in init])
        stds = np.array([np.full(k, max(c.std(), f)) for c, f in zip(columns, floors)])
        weights, means, stds, histories = _fit_em(columns, means, stds, floors)
        for r, (i, s) in enumerate(zip(fitted, seeds)):
            want = oracle_fit_em(X[:, i], k, floors[r], s)
            np.testing.assert_array_equal(weights[r], want[0])
            np.testing.assert_array_equal(means[r], want[1])
            np.testing.assert_array_equal(stds[r], want[2])
            assert histories[r] == want[3]
        if k > 1:
            assert len({len(h) for h in histories}) > 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_modes", [1, 2, 5, 10])
    def test_mode_normalizers(self, seed, max_modes):
        X = mixed_columns(seed)
        seeds = [seed + j for j in range(X.shape[1])]
        got = fit_mode_normalizer(X, max_modes, seeds)
        for j, norm in enumerate(got):
            want = oracle_fit_mode_normalizer(X[:, j], max_modes, seeds[j])
            np.testing.assert_array_equal(norm.weights, want.weights)
            np.testing.assert_array_equal(norm.means, want.means)
            np.testing.assert_array_equal(norm.stds, want.stds)
            assert norm.loglik_history == want.loglik_history
        one = fit_mode_normalizer(X[:, 0], max_modes, seeds[0])
        np.testing.assert_array_equal(one.means, got[0].means)

    def test_invalid_frequencies_rejected(self):
        with pytest.raises(ValueError):
            DiscreteStats([0], [np.array([3.0, -0.5])], [0])
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            DiscreteStats([0], [np.array([1.0, np.inf])], [0])


def test_truncated_head_rejected_on_load(conditioned_ctgan):
    # drop the last output column: a consistent network whose last segment
    # is one column short of its block
    d = json.loads(json.dumps(conditioned_ctgan.to_dict()))
    layer, weights = d["generator"]["layers"][-1], d["generator"]["weights"][-1]
    layer["width"] -= 1
    layer["activation"][-1][1] -= 1
    fan_in = weights["shape"][1]
    weights["shape"][0] -= 1
    weights["data"] = weights["data"][:-fan_in]
    d["generator"]["biases"][-1].pop()
    with pytest.raises(SchemaMismatch):
        CtganModel.from_dict(d)


def test_v1_format_rejected(conditioned_ctgan):
    d = dict(conditioned_ctgan.to_dict(), format="fingan-ctgan-v1")
    with pytest.raises(ValueError, match="unknown model format"):
        CtganModel.from_dict(d)


def _first_normalizer(d):
    return next(iter(d["normalizers"].values()))


def _drop_last_mode(d):
    nd = _first_normalizer(d)
    for key in ("weights", "means", "stds"):
        nd[key] = nd[key][:-1]


@pytest.mark.parametrize("tamper", [
    lambda d: d["blocks"].reverse(),
    _drop_last_mode,
    lambda d: _first_normalizer(d)["means"].pop(),
    lambda d: d["normalizers"].clear(),
    lambda d: d["stats"].update(offsets=[o + 1 for o in d["stats"]["offsets"]]),
    lambda d: d.update(enc_width=d["enc_width"] + 1),
    lambda d: d.update(latent_dim=d["latent_dim"] + 1),
    lambda d: d["generator"]["layers"][-1]["activation"].reverse(),
], ids=["blocks_reversed", "one_mode_short", "one_mean_short", "no_normalizers",
        "stats_offsets", "enc_width", "latent_dim", "heads_reversed"])
def test_mismatched_model_rejected_on_load(conditioned_ctgan, tamper):
    d = json.loads(json.dumps(conditioned_ctgan.to_dict()))
    CtganModel.from_dict(d)
    tamper(d)
    with pytest.raises(SchemaMismatch):
        CtganModel.from_dict(d)
