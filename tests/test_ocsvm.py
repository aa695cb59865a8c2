import functools
import tracemalloc

import numpy as np
import pytest

import fingan.ocsvm as ocsvm
from fingan.data_model import fit_preprocess
from fingan.errors import SchemaMismatch
from fingan.fixtures import mixed_imbalanced
from fingan.ocsvm import (
    GAP_TOL,
    ROW_BLOCK,
    KernelSpec,
    decision_function,
    default_gamma,
    encode_for_kernel,
    fit_ocsvm,
    kernel_matrix,
    undersample_majority,
)

KERNELS = [KernelSpec("rbf", 0.3), KernelSpec("sigmoid", 0.2, 0.1),
           KernelSpec("linear", 1.0)]


def project_box_simplex(a, C):
    """Euclidean projection onto {0 <= a_i <= C, sum a_i = 1} by bisection."""
    lo = a.min() - C - 1.0
    hi = a.max() + 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        total = np.clip(a - mid, 0.0, C).sum()
        if total > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(a - (lo + hi) / 2, 0.0, C)


def brute_force_dual(K, nu, iters=20_000, lr=None):
    """Projected-gradient minimization of 1/2 a'Ka, independent of the solver."""
    n = K.shape[0]
    C = 1.0 / (nu * n)
    a = project_box_simplex(np.full(n, 1.0 / n), C)
    if lr is None:
        lr = 1.0 / max(np.abs(np.linalg.eigvalsh(K)).max(), 1e-9)
    for _ in range(iters):
        a = project_box_simplex(a - lr * (K @ a), C)
    return a


@functools.cache
def brute_force_objective(kernel, n, nu):
    """1/2 a'Ka at brute_force_dual's optimum for test_matches_brute_force_small's
    n-row fixture; computed once per case for the dense and streamed fits."""
    K = kernel_matrix(kernel, np.random.default_rng(n).normal(size=(n, 2)))
    oracle = brute_force_dual(K, nu)
    return 0.5 * oracle @ K @ oracle


def naive_kernel(spec, A, B):
    """The kernel formulas written out, one n x m temporary per step."""
    if spec.kind == "linear":
        return A @ B.T
    if spec.kind == "sigmoid":
        return np.tanh(spec.gamma * (A @ B.T) + spec.coef0)
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2 * A @ B.T
    return np.exp(-spec.gamma * np.maximum(sq, 0.0))


def warm_start(K, nu):
    """alpha = C on the floor(nu n) rows of least K 1/n (ties to the lower
    index), the rest of the unit sum on the next one unless it is below
    1e-15."""
    n = K.shape[0]
    C = 1.0 / (nu * n)
    k = int(nu * n)
    order = np.argsort(K @ np.full(n, 1.0 / n), kind="stable")
    alpha = np.zeros(n)
    alpha[order[:k]] = C
    if k < n and 1.0 - k / (nu * n) > 1e-15:
        alpha[order[k]] = 1.0 - k / (nu * n)
    return alpha


def column_update_fit(X, nu, kernel, start=None):
    """The pairwise solver with its gradient updated from columns of K, from
    start (alpha = 1/n by default)."""
    n = X.shape[0]
    C = 1.0 / (nu * n)
    K = kernel_matrix(kernel, X)
    alpha = np.full(n, 1.0 / n) if start is None else start.copy()
    g = K @ alpha
    obj = 0.5 * float(alpha @ g)
    history = [obj]
    while True:
        can_up = alpha < C - 1e-15
        can_down = alpha > 1e-15
        if not can_up.any() or not can_down.any():
            break
        i = int(np.argmin(np.where(can_up, g, np.inf)))
        j = int(np.argmax(np.where(can_down, g, -np.inf)))
        gap = g[j] - g[i]
        if gap < GAP_TOL:
            break
        lam_max = min(C - alpha[i], alpha[j])
        d = K[i, i] + K[j, j] - 2 * K[i, j]
        if d > 1e-15:
            lam = min(gap / d, lam_max)
        else:
            delta_at_max = -lam_max * gap + 0.5 * lam_max**2 * d
            lam = lam_max if delta_at_max < 0 else 0.0
        if lam <= 0:
            break
        alpha[i] += lam
        alpha[j] -= lam
        g += lam * (K[:, i] - K[:, j])
        obj += -lam * gap + 0.5 * lam * lam * d
        history.append(obj)
    margin = np.flatnonzero((alpha > 1e-8) & (alpha < C - 1e-8))
    return alpha, float(g[margin].mean()), history


def fixture_rows(n_neg, seed):
    majority = mixed_imbalanced(n_neg, 10, seed=seed).negatives()
    return encode_for_kernel(majority, fit_preprocess(majority))


class TestKernelMatrix:
    # 40 rows fit in one row block; 300 = 256 + 44 rows do not divide into
    # blocks, and there OpenBLAS's gemm rounds some (i, j) and (j, i) apart
    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("n, m", [(40, 40), (300, 300), (300, 77), (40, 300)])
    def test_equals_naive_formula(self, kernel, n, m):
        rng = np.random.default_rng(n + m)
        A = rng.normal(size=(n, 5))
        B = rng.normal(size=(m, 5))
        np.testing.assert_array_equal(kernel_matrix(kernel, A, B),
                                      naive_kernel(kernel, A, B))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("n", [40, 2 * ROW_BLOCK, 300])
    def test_square_is_upper_triangle_mirrored(self, kernel, n):
        A = np.random.default_rng(n).normal(size=(n, 5))
        naive = naive_kernel(kernel, A, A)
        upper = np.triu(np.ones((n, n), dtype=bool))
        K = kernel_matrix(kernel, A)
        np.testing.assert_array_equal(K, np.where(upper, naive, naive.T))

    @pytest.mark.parametrize("kernel", KERNELS[:2], ids=lambda k: k.kind)
    @pytest.mark.parametrize("n_neg", [60, 300])
    def test_rows_equal_columns_on_fixtures(self, kernel, n_neg):
        K = kernel_matrix(kernel, fixture_rows(n_neg, n_neg))
        for i in range(K.shape[0]):
            assert np.array_equal(K[i], K[:, i])

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
    @pytest.mark.parametrize("m", [None, 700])
    def test_traced_peak_is_one_kernel(self, kernel, m):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(1000, 6))
        B = None if m is None else rng.normal(size=(m, 6))
        width = 1000 if m is None else m
        tracemalloc.start()
        try:
            K = kernel_matrix(kernel, A, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert K.shape == (1000, width)
        assert peak < 1.1 * K.nbytes + 8 * ROW_BLOCK * width


class TestFit:
    def test_nu_one_forces_uniform(self):
        X = np.random.default_rng(0).normal(size=(25, 3))
        model = fit_ocsvm(X, 1.0, KernelSpec("rbf", 0.5))
        np.testing.assert_allclose(model.alpha, np.full(25, 1 / 25))
        assert len(model.support_indices) == 25

    def test_far_outlier_is_support_vector(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(size=(20, 2)), [[100.0, 100.0]]])
        model = fit_ocsvm(X, 0.1, KernelSpec("rbf", 0.5))
        assert 20 in model.support_indices

    def test_feasibility(self):
        X = np.random.default_rng(2).normal(size=(40, 4))
        for nu in (0.2, 0.5, 0.9):
            model = fit_ocsvm(X, nu, KernelSpec("rbf", 0.25))
            C = 1.0 / (nu * 40)
            assert model.alpha.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(model.alpha >= 0.0)
            assert np.all(model.alpha <= C + 1e-15)

    def test_objective_monotone(self):
        X = np.random.default_rng(3).normal(size=(60, 3))
        model = fit_ocsvm(X, 0.4, KernelSpec("rbf", 0.3))
        h = np.array(model.objective_history)
        assert np.all(np.diff(h) <= 1e-12)

    @pytest.mark.parametrize("kernel", [
        KernelSpec("rbf", 1.0),
        KernelSpec("linear", 1.0),
        KernelSpec("sigmoid", 0.2, 0.0),
    ], ids=lambda k: k.kind)
    @pytest.mark.parametrize("n", [8, 12])
    def test_matches_brute_force_small(self, kernel, n):
        X = np.random.default_rng(n).normal(size=(n, 2))
        nu = 0.4
        model = fit_ocsvm(X, nu, kernel)
        K = kernel_matrix(kernel, X)
        ours = 0.5 * model.alpha @ K @ model.alpha
        assert ours <= brute_force_objective(kernel, n, nu) + 1e-4

    # rbf starts warm, linear and sigmoid from alpha = 1/n
    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 0.5), *KERNELS[1:]],
                             ids=lambda k: k.kind)
    @pytest.mark.parametrize("seed", [0, 4])
    def test_row_updates_equal_column_updates(self, kernel, seed):
        X = np.random.default_rng(seed).normal(size=(300, 3))
        model = fit_ocsvm(X, 0.3, kernel)
        start = warm_start(kernel_matrix(kernel, X), 0.3) if kernel.kind == "rbf" else None
        alpha, rho, history = column_update_fit(X, 0.3, kernel, start)
        np.testing.assert_array_equal(model.alpha, alpha)
        np.testing.assert_array_equal(model.support_indices, np.flatnonzero(alpha > 1e-8))
        assert model.rho == rho
        assert model.objective_history == history

    def test_keeps_callers_array(self):
        X = np.random.default_rng(10).normal(size=(20, 2))
        assert fit_ocsvm(X, 0.5, KernelSpec("rbf", 0.5)).X is X

    def test_kkt_conditions(self):
        X = np.random.default_rng(5).normal(size=(80, 3))
        nu = 0.5
        model = fit_ocsvm(X, nu, KernelSpec("rbf", 1 / 3))
        C = 1.0 / (nu * 80)
        scores = decision_function(model, X)
        margin = (model.alpha > 1e-8) & (model.alpha < C - 1e-8)
        assert np.all(np.abs(scores[margin]) <= 1e-3)
        interior = model.alpha <= 1e-8
        assert np.all(scores[interior] >= -1e-3)
        boxed = model.alpha >= C - 1e-8
        assert np.all(scores[boxed] <= 1e-3)


@pytest.fixture
def streamed(monkeypatch):
    """Every fit streams its kernel rows, whatever its size."""
    monkeypatch.setattr(ocsvm, "DENSE_KERNEL_BYTES", 0)


@pytest.mark.usefixtures("streamed")
class TestFitStreamed(TestFit):
    """TestFit's behavioural tests on the streamed path."""

    # the column-update oracle replays the dense path bit for bit
    test_row_updates_equal_column_updates = None


class TestStreamedPath:
    @pytest.mark.parametrize("nu", [0.2, 0.5])
    @pytest.mark.parametrize("kernel", KERNELS[:2], ids=lambda k: k.kind)
    @pytest.mark.parametrize("n_neg", [60, 300])
    def test_same_support_as_dense(self, monkeypatch, kernel, n_neg, nu):
        X = fixture_rows(n_neg, n_neg)
        dense = fit_ocsvm(X, nu, kernel)
        monkeypatch.setattr(ocsvm, "DENSE_KERNEL_BYTES", 0)
        streamed = fit_ocsvm(X, nu, kernel)
        np.testing.assert_array_equal(streamed.support_indices, dense.support_indices)
        assert abs(streamed.rho - dense.rho) <= GAP_TOL

    @pytest.mark.parametrize("kernel", KERNELS[:2], ids=lambda k: k.kind)
    def test_traced_peak_far_below_dense_kernel(self, kernel):
        n = 3000
        assert 8 * n * n > ocsvm.DENSE_KERNEL_BYTES  # streamed without a patch
        X = np.random.default_rng(13).normal(size=(n, 6))
        tracemalloc.start()
        try:
            model = fit_ocsvm(X, 0.5, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not model.stalled
        # one upper block and its rbf temporary, not the 72 MB kernel
        assert peak < 3 * 8 * ROW_BLOCK * n

    @pytest.mark.parametrize("kernel", KERNELS[:2], ids=lambda k: k.kind)
    def test_blocks_sized_from_byte_budget(self, monkeypatch, kernel):
        n = 1000
        X = np.random.default_rng(14).normal(size=(n, 6))
        monkeypatch.setattr(ocsvm, "DENSE_KERNEL_BYTES", 0)
        reference = fit_ocsvm(X, 0.5, kernel)
        budget = 8 * 8 * n  # 8 rows a block
        monkeypatch.setattr(ocsvm, "KERNEL_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            model = fit_ocsvm(X, 0.5, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(model.support_indices, reference.support_indices)
        # a block and its rbf temporary, plus the fit's length-n vectors
        assert peak < 2 * budget + 32 * 8 * n


@pytest.fixture(params=["dense", "streamed"])
def path(request, monkeypatch):
    """Each test runs once with the dense kernel and once streamed."""
    if request.param == "streamed":
        monkeypatch.setattr(ocsvm, "DENSE_KERNEL_BYTES", 0)
    return request.param


class TestWarmStart:
    @pytest.mark.parametrize("nu", [0.5, 0.1, 0.02])
    @pytest.mark.parametrize("n_neg", [60, 300])
    def test_same_support_as_cold_start(self, path, n_neg, nu):
        X = fixture_rows(n_neg, n_neg)
        cold, _, _ = column_update_fit(X, nu, KERNELS[0])
        model = fit_ocsvm(X, nu, KERNELS[0])
        np.testing.assert_array_equal(model.support_indices, np.flatnonzero(cold > 1e-8))

    # on these sharper kernels the two fits keep support sets that differ
    # by a few rows, all on the margin: either fit stops within GAP_TOL
    @pytest.mark.parametrize("nu", [0.1, 0.02])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_support_differs_only_on_the_margin(self, seed, gamma, nu):
        X = fixture_rows(300, seed)
        kernel = KernelSpec("rbf", gamma)
        K = kernel_matrix(kernel, X)
        cold, cold_rho, cold_history = column_update_fit(X, nu, kernel)
        model = fit_ocsvm(X, nu, kernel)
        assert model.objective_history[-1] == pytest.approx(cold_history[-1], rel=1e-6)
        moved = (cold > 1e-8) != (model.alpha > 1e-8)
        assert np.all(np.abs(K[moved] @ cold - cold_rho) <= 10 * GAP_TOL)
        assert np.all(np.abs(K[moved] @ model.alpha - model.rho) <= 10 * GAP_TOL)

    @pytest.mark.parametrize("n", [600, 2000])
    def test_few_sweeps(self, path, n):
        # from alpha = 1/n at least (1 - nu) n alphas must each fall to 0
        X = np.random.default_rng(n).normal(size=(n, 4))
        model = fit_ocsvm(X, 0.5, KernelSpec("rbf", 0.25))
        assert len(model.objective_history) - 1 < 0.1 * n

    # at nu 1e-310, C = 1 / (nu n) overflows to inf
    @pytest.mark.parametrize("n, nu, remainder", [(40, 0.25, False), (40, 0.33, True),
                                                   (41, 0.5, True), (40, 1.0, False),
                                                   (8, 1e-310, True)])
    def test_start_is_feasible(self, n, nu, remainder):
        g0 = np.random.default_rng(n).normal(size=n)
        C = 1.0 / (nu * n)
        alpha = ocsvm._warm_start(g0, nu, C)
        k = int(nu * n)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((alpha >= 0) & (alpha <= C))
        order = np.argsort(g0, kind="stable")
        assert np.all(alpha[order[:k]] == C)
        assert np.count_nonzero(alpha) == k + remainder

    def test_nu_one_is_the_uniform_start(self):
        g0 = np.random.default_rng(0).normal(size=25)
        np.testing.assert_array_equal(ocsvm._warm_start(g0, 1.0, 1.0 / 25), np.full(25, 1 / 25))


class TestDecision:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nu_property(self, seed):
        X = np.random.default_rng(seed).normal(size=(200, 2))
        model = fit_ocsvm(X, 0.5, KernelSpec("rbf", 0.5))
        frac_out = (decision_function(model, X) < 0).mean()
        assert 0.4 <= frac_out <= 0.6

    def test_duplicate_row_same_score(self):
        X = np.random.default_rng(7).normal(size=(30, 2))
        model = fit_ocsvm(X, 0.3, KernelSpec("rbf", 0.5))
        s = decision_function(model, np.vstack([X[4], X[4]]))
        assert s[0] == s[1]

    def test_width_mismatch(self):
        X = np.random.default_rng(8).normal(size=(10, 3))
        model = fit_ocsvm(X, 0.5, KernelSpec("linear", 1.0))
        with pytest.raises(SchemaMismatch):
            decision_function(model, np.ones((2, 4)))


@pytest.mark.usefixtures("streamed")
class TestDecisionStreamed(TestDecision):
    """TestDecision on the streamed path."""


class TestUndersample:
    def test_nu_one_noop(self):
        table = mixed_imbalanced(60, 15, seed=4)
        kept, _ = undersample_majority(table, 1.0, "rbf", 0.3)
        assert kept.n_rows == table.n_negative

    def test_support_count_lower_bound(self):
        table = mixed_imbalanced(100, 20, seed=5)
        nu = 0.5
        kept, model = undersample_majority(table, nu, "rbf", 0.3)
        # at least a nu fraction must be support vectors (box constraint)
        assert kept.n_rows >= int(np.ceil(nu * table.n_negative)) - 1

    def test_subset_property(self):
        table = mixed_imbalanced(50, 10, seed=6)
        kept, _ = undersample_majority(table, 0.6, "rbf", 0.3)
        majority_rows = set(map(tuple, table.negatives().X))
        assert all(tuple(r) in majority_rows for r in kept.X)

    def test_sigmoid_kernel_default(self):
        table = mixed_imbalanced(60, 12, seed=7)
        kept, model = undersample_majority(table, 0.5)
        assert model.kernel.kind == "sigmoid"
        assert model.kernel.gamma == pytest.approx(default_gamma(4))  # 2 num + 2 one-hot
        assert 0 < kept.n_rows <= table.n_negative

    def test_rejects_single_class(self):
        table = mixed_imbalanced(30, 5, seed=8).negatives()
        with pytest.raises(ValueError):
            undersample_majority(table, 0.5)


def test_model_serialization():
    X = np.random.default_rng(9).normal(size=(15, 2))
    model = fit_ocsvm(X, 0.5, KernelSpec("sigmoid", 0.5, 0.1))
    d = model.to_dict()
    assert d["format"] == "fingan-ocsvm-v1"
    assert len(d["alpha"]) == 15
