import itertools

import numpy as np
import pytest

from fingan.classifiers import (
    FittedClassifier,
    ForestParams,
    LogisticParams,
    MlpClfParams,
    SvmParams,
    TreeNode,
    TreeParams,
    _grow,
    _n_features_to_try,
    best_split,
    fit_forest,
    fit_logistic,
    fit_mlp_classifier,
    fit_svm_linear,
    fit_tree,
    forest_vote,
    gini,
    logistic_objective,
    svm_objective,
)
from fingan.data_model import fit_preprocess
from fingan.errors import SchemaMismatch
from fingan.fixtures import mixed_imbalanced
from fingan.nn_core import sigmoid
from fingan.ocsvm import encode_for_kernel


def separable(n=60, seed=0, gap=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.5, (n // 2, 2)),
                   rng.normal(gap, 0.5, (n // 2, 2))])
    y = np.repeat([0, 1], n // 2)
    return X, y


def exhaustive_best_split(X, y, min_leaf):
    """Independent oracle: try every midpoint of every feature."""
    n = len(y)
    best = None
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            t = (a + b) / 2
            mask = X[:, f] <= t
            nl, nr = mask.sum(), n - mask.sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            score = (nl * gini(y[mask]) + nr * gini(y[~mask])) / n
            if best is None or score < best[0] - 1e-15:
                best = (score, f, t)
    return best


def scalar_best_split(X, y, feature_subset, min_samples_leaf):
    """Reference: the per-feature, per-threshold scan that the vectorized
    best_split replaced. Same arithmetic, so results must match bit for bit."""
    n = len(y)
    best = None  # (score, feature, threshold)
    for f in sorted(feature_subset):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        pos_cum = np.cumsum(ys)
        distinct_ends = np.flatnonzero(xs[:-1] < xs[1:])  # split after index i
        for i in distinct_ends:
            n_left = i + 1
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            pos_left = pos_cum[i]
            pos_right = pos_cum[-1] - pos_left
            pl = pos_left / n_left
            pr = pos_right / n_right
            score = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
            thresh = (xs[i] + xs[i + 1]) / 2.0
            if best is None or score < best[0] - 1e-15:
                best = (score, f, thresh)
    if best is None:
        return None
    return best[1], best[2], best[0]


def best_split_on(X, y, feature_subset, min_samples_leaf):
    """best_split over every row of X, as (feature, threshold, score)."""
    split = best_split(X.T, y, np.arange(len(y)), feature_subset, min_samples_leaf)
    return None if split is None else tuple(split[:3])


def reference_grow(X, y, depth, params, rng):
    """Reference: the recursive grower that copied X[mask] and X[~mask] at
    every node and reduced y there, before growth moved to row indices.
    Same split search and RNG draws, so trees must match node for node."""
    node = TreeNode(proba=float(y.mean()) if len(y) else 0.0, n_samples=len(y))
    if (
        depth >= params.max_depth
        or len(y) < params.min_samples_split
        or y.min() == y.max()
    ):
        return node
    d = X.shape[1]
    k = _n_features_to_try(d, params.max_features)
    if k >= d:
        subset = range(d)
    else:
        subset = rng.choice(d, size=k, replace=False)
    found = best_split_on(X, y, subset, params.min_samples_leaf)
    if found is None:
        return node
    f, t, score = found
    if score >= gini(y) - 1e-15:  # split must reduce impurity
        return node
    mask = X[:, f] <= t
    node.feature = f
    node.threshold = t
    node.left = reference_grow(X[mask], y[mask], depth + 1, params, rng)
    node.right = reference_grow(X[~mask], y[~mask], depth + 1, params, rng)
    return node


def reference_fit_tree(X, y, params, rng):
    return reference_grow(np.asarray(X, dtype=float), np.asarray(y, dtype=int),
                          0, params, rng)


def preorder(node):
    """(feature, threshold, proba, n_samples) of every node, root first."""
    out = [(node.feature, node.threshold, node.proba, node.n_samples)]
    if not node.is_leaf:
        out += preorder(node.left) + preorder(node.right)
    return out


def churn_like(n, seed):
    """Churn-shaped numerics rounded to cents, so values tie."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.2).astype(int)
    X = rng.normal(size=(n, 12)) + y[:, None] * np.linspace(1.2, 0.0, 12)
    return np.round(X * 20.0 + 50.0, 2), y


def gradient_descent_logistic(X, y, l2, epochs=2000, lr=0.5):
    """Reference: the full-batch gradient descent that fit_logistic's Newton
    solver replaced, at the pipeline's former defaults."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(epochs):
        p = sigmoid(X @ w + b)
        gw = X.T @ (p - y) / n + l2 * w
        gb = float((p - y).mean())
        if np.sqrt((gw @ gw) + gb * gb) < 1e-6:
            break
        w -= lr * gw
        b -= lr * gb
    return w, b


def logistic_gradient(w, b, X, y, l2):
    p = sigmoid(X @ w + b)
    return np.append(X.T @ (p - y) / len(y) + l2 * w, (p - y).mean())


def encoded_mixed():
    """Its one-hot block sums to the bias column: at l2 = 0 the logistic
    Hessian is singular."""
    table = mixed_imbalanced(80, 20, seed=1)
    return encode_for_kernel(table, fit_preprocess(table)), table.y


def per_row_proba(node, row):
    """Reference: walk one row from the root to its leaf."""
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.proba


class TestLogistic:
    def test_matches_independent_optimizer(self):
        from scipy.optimize import minimize

        X, y = separable(40, seed=1, gap=1.5)
        l2 = 0.5
        model = fit_logistic(X, y, LogisticParams(l2))

        def obj(theta):
            return logistic_objective(theta[:-1], theta[-1], X, y, l2)

        ref = minimize(obj, np.zeros(3), method="BFGS")
        ours = logistic_objective(model.params["w"], model.params["b"], X, y, l2)
        assert ours <= ref.fun + 1e-6
        np.testing.assert_allclose(model.params["w"], ref.x[:-1], atol=1e-3)
        np.testing.assert_allclose(model.params["b"], ref.x[-1], atol=1e-3)

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    @pytest.mark.parametrize("fixture", [separable, encoded_mixed])
    def test_beats_gradient_descent_and_converges(self, fixture, l2):
        X, y = fixture()
        model = fit_logistic(X, y, LogisticParams(l2))
        w, b = model.params["w"], model.params["b"]
        assert np.all(np.isfinite(w)) and np.isfinite(b)
        ours = logistic_objective(w, b, X, y, l2)
        assert ours <= logistic_objective(*gradient_descent_logistic(X, y, l2), X, y, l2)
        assert np.linalg.norm(logistic_gradient(w, b, X, y, l2)) <= 1e-8

    @pytest.mark.parametrize("margin", [0.0, 2.0])
    def test_constant_margins(self, margin):
        # a Platt link fitted on an all-equal margin column
        y = np.repeat([0, 1], [15, 5])
        model = fit_logistic(np.full((20, 1), margin), y, LogisticParams(l2=0.0))
        np.testing.assert_allclose(model.predict_proba(np.full((1, 1), margin)), 0.25)

    def test_separable_accuracy(self):
        X, y = separable(80, seed=2)
        model = fit_logistic(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_probability_range(self):
        X, y = separable(40, seed=3)
        p = fit_logistic(X, y).predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.ones((5, 2)), np.ones(5))

    def test_width_mismatch(self):
        X, y = separable(20, seed=4)
        with pytest.raises(SchemaMismatch):
            fit_logistic(X, y).predict_proba(np.ones((2, 3)))


class TestTree:
    def test_gini_values(self):
        assert gini(np.array([1, 1, 0, 0])) == pytest.approx(0.5)
        assert gini(np.array([1, 1, 1])) == 0.0
        assert gini(np.array([])) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_best_split_matches_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 5, size=(12, 3)).astype(float)
        y = rng.integers(0, 2, size=12)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        got = best_split_on(X, y, range(3), min_samples_leaf=2)
        want = exhaustive_best_split(X, y, min_leaf=2)
        if want is None:
            assert got is None
        else:
            f, t, score = got
            assert score == pytest.approx(want[0], abs=1e-12)
            assert (f, t) == (want[1], pytest.approx(want[2]))

    def test_tie_breaks_lowest_feature_then_threshold(self):
        # feature 0 and feature 1 both split the labels perfectly
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        f, t, _ = best_split_on(X, y, range(2), min_samples_leaf=1)
        assert f == 0
        assert t == pytest.approx(0.5)

    @pytest.mark.parametrize("seed, kind", enumerate(
        ["integer", "cents", "gaussian", "duplicated"]))
    def test_best_split_bitwise_equals_scalar_scan(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(600):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 7))
            if kind == "integer":
                X = rng.integers(0, 4, size=(n, d)).astype(float)
            elif kind == "cents":
                X = np.round(rng.normal(size=(n, d)), 2)
            elif kind == "gaussian":
                X = rng.normal(size=(n, d))
            else:  # exact ties across features: columns repeat
                half = rng.integers(0, 3, size=(n, (d + 1) // 2)).astype(float)
                X = np.hstack([half, half])[:, :d]
            y = rng.integers(0, 2, size=n)
            min_leaf = int(rng.integers(1, 6))
            subset = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
            assert (best_split_on(X, y, subset, min_leaf)
                    == scalar_best_split(X, y, subset, min_leaf))

    def test_near_tie_keeps_scan_order(self):
        # Feature 0 at 1.5 and feature 1 at 4.5 both score 0.4 exactly, but
        # in floating point feature 1 comes out one ulp lower. The scan keeps
        # feature 0, since a later score must win by more than 1e-15; taking
        # the plain minimum would pick feature 1.
        X = np.array([[4.0, 2.0], [4.0, 0.0], [0.0, 4.0],
                      [3.0, 3.0], [5.0, 5.0], [5.0, 3.0]])
        y = np.array([1, 0, 0, 1, 1, 0])
        f, t, score = best_split_on(X, y, range(2), min_samples_leaf=1)
        assert (f, t, score) == scalar_best_split(X, y, range(2), 1)
        assert (f, t) == (0, 1.5)
        assert score == 0.4000000000000001
        # feature 1 at 4.5: 5 rows on the left with 2 positives, 1 on the right
        pl = 2 / 5
        assert (5 * 2 * pl * (1 - pl) + 1 * 2 * 1.0 * (1 - 1.0)) / 6 < score

    def test_batched_proba_equals_per_row_walk(self):
        rng = np.random.default_rng(16)
        X = np.round(rng.normal(size=(300, 5)), 1)
        y = (X[:, 0] + rng.normal(0, 0.7, 300) > 0).astype(int)
        model = fit_tree(X, y, TreeParams(min_samples_leaf=3, min_samples_split=6))
        root = model.params["root"]
        assert not root.is_leaf
        want = [per_row_proba(root, row) for row in X]
        np.testing.assert_array_equal(model.predict_proba(X), want)

    def test_pure_node_is_leaf(self):
        X = np.arange(20, dtype=float)[:, None]
        model = fit_tree(X, np.ones(20, dtype=int),
                         TreeParams(max_features="all"))
        assert model.params["root"].is_leaf
        assert model.params["root"].proba == 1.0

    def test_depth_limit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, 200)
        model = fit_tree(X, y, TreeParams(max_depth=2, min_samples_leaf=1,
                                          min_samples_split=2,
                                          max_features="all"))

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.params["root"]) <= 2

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, 100)
        model = fit_tree(X, y, TreeParams(min_samples_leaf=10,
                                          min_samples_split=10,
                                          max_features="all"))

        def leaves(node):
            if node.is_leaf:
                yield node
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        assert all(leaf.n_samples >= 10 for leaf in leaves(model.params["root"]))

    def test_separable_accuracy(self):
        X, y = separable(100, seed=5)
        model = fit_tree(X, y, TreeParams(min_samples_leaf=1,
                                          min_samples_split=2,
                                          max_features="all"))
        assert (model.predict(X) == y).mean() == 1.0

    def test_log2_feature_budget(self):
        # with d=8 features, log2 gives 3 per split
        assert _n_features_to_try(8, "log2") == 3
        assert _n_features_to_try(1, "log2") == 1
        assert _n_features_to_try(5, "all") == 5

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(150, 6))
        y = rng.integers(0, 2, 150)
        a = fit_tree(X, y, seed=3).predict_proba(X)
        b = fit_tree(X, y, seed=3).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("table", ["churn", "mixed"])
    @pytest.mark.parametrize("max_features", ["all", "log2"])
    @pytest.mark.parametrize("max_depth, min_leaf, min_split",
                             [(1, 10, 10), (20, 1, 2), (20, 10, 10), (6, 3, 7)])
    def test_grower_equals_reference(self, table, max_features, max_depth,
                                     min_leaf, min_split):
        if table == "churn":
            X, y = churn_like(400, seed=max_depth + min_leaf)
        else:  # categorical columns as integer codes
            t = mixed_imbalanced(300, 60, seed=min_leaf)
            X, y = t.X, t.y
        params = TreeParams(max_depth, min_leaf, min_split, max_features)
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = reference_fit_tree(X, y, params, want_rng)
        got = _grow(np.ascontiguousarray(X.T), y, np.arange(len(y)), params, got_rng)
        assert preorder(got) == preorder(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert not got.is_leaf

    @pytest.mark.parametrize("seed", range(3))
    def test_leaves_hold_the_rows_routed_to_them(self, seed):
        # Route the training rows down the fitted tree: each leaf's stored
        # n_samples and proba must be the count and positive share of the
        # rows it receives, so the counts carried from each split are right.
        X, y = churn_like(500, seed)
        root = fit_tree(X, y, TreeParams(min_samples_leaf=2, min_samples_split=4),
                        seed=seed).params["root"]
        received = {}
        for row, label in zip(X, y):
            node = root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            received.setdefault(id(node), (node, []))[1].append(label)
        assert len(received) > 10
        assert sum(len(labels) for _, labels in received.values()) == len(y)
        for leaf, labels in received.values():
            assert leaf.n_samples == len(labels)
            assert leaf.proba == np.mean(labels)

    def test_grows_deeper_than_the_recursion_limit(self):
        # alternating labels on one sorted column peel one row per level
        n = 1500
        X = np.arange(n, dtype=float)[:, None]
        y = np.arange(n) % 2
        model = fit_tree(X, y, TreeParams(max_depth=n, min_samples_leaf=1,
                                          min_samples_split=2, max_features="all"))
        depth, node = 0, model.params["root"]
        while not node.is_leaf:
            node = node.left if node.right.is_leaf else node.right
            depth += 1
        assert depth == n - 1
        np.testing.assert_array_equal(model.predict_proba(X), y)

    def test_threshold_between_adjacent_doubles(self):
        # the midpoint of a and the next double up rounds to b; x <= b would
        # send every row left, so the threshold must be a
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        X = np.array([[a], [a], [b], [b]])
        y = np.array([0, 0, 1, 1])
        assert best_split_on(X, y, [0], 1)[:2] == (0, a)
        model = fit_tree(X, y, TreeParams(min_samples_leaf=1, min_samples_split=2))
        root = model.params["root"]
        assert (root.threshold, root.left.n_samples, root.right.n_samples) == (a, 2, 2)
        np.testing.assert_array_equal(model.predict_proba(X), y)

    def test_threshold_does_not_overflow(self):
        X = np.array([[1e308], [1e308], [1.5e308], [1.5e308]])
        y = np.array([0, 0, 1, 1])
        model = fit_tree(X, y, TreeParams(min_samples_leaf=1, min_samples_split=2))
        assert model.params["root"].threshold == 1e308
        np.testing.assert_array_equal(model.predict_proba(X), y)

    @pytest.mark.parametrize("fit", [fit_tree, fit_forest])
    def test_rejects_bad_training_data(self, fit):
        with pytest.raises(ValueError, match="0 or 1"):
            fit(np.zeros((4, 1)), np.array([0, 1, 2, 1]))
        with pytest.raises(ValueError, match="one row per label"):
            fit(np.zeros((5, 1)), np.array([0, 1, 0, 1]))


class TestForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(120, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        forest = fit_forest(X, y, ForestParams(max_features="all", n_estimators=1,
                                               bootstrap=False), seed=4)
        tree = fit_tree(X, y, TreeParams(max_features="all"), seed=4 * 1_000_003 + 1)
        np.testing.assert_array_equal(forest.predict_proba(X),
                                      tree.predict_proba(X))

    def test_mean_probability(self):
        # forest proba must equal the mean of its trees' probas
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, 80)
        forest = fit_forest(X, y, ForestParams(n_estimators=5), seed=0)
        per_tree = np.stack([t.predict_proba(X) for t in forest.params["trees"]])
        np.testing.assert_allclose(forest.predict_proba(X), per_tree.mean(axis=0))

    def test_hand_tallied_vote(self):
        # three stumps voting (1, 1, 0) -> majority 1; (0, 0, 1) -> 0
        def stump(direction):
            left = TreeNode(proba=0.0 if direction else 1.0, n_samples=1)
            right = TreeNode(proba=1.0 if direction else 0.0, n_samples=1)
            root = TreeNode(feature=0, threshold=0.0, left=left, right=right,
                            proba=0.5, n_samples=2)
            return FittedClassifier("tree", 1, {"root": root})

        forest = FittedClassifier("forest", 1,
                                  {"trees": [stump(True), stump(True), stump(False)]})
        votes = forest_vote(forest, np.array([[1.0], [-1.0]]))
        np.testing.assert_array_equal(votes, [1, 0])

    def test_batched_predictions_equal_per_row_walk(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] - X[:, 1] + rng.normal(0, 0.8, 200) > 0).astype(int)
        forest = fit_forest(X, y, ForestParams(min_samples_leaf=2, n_estimators=5), seed=3)
        per_tree = np.array([[per_row_proba(t.params["root"], row) for row in X]
                             for t in forest.params["trees"]])
        np.testing.assert_array_equal(forest.predict_proba(X), per_tree.mean(axis=0))
        np.testing.assert_array_equal(forest_vote(forest, X),
                                      ((per_tree >= 0.5).mean(axis=0) > 0.5).astype(int))

    def test_default_hundred_trees(self):
        p = ForestParams()
        assert p.n_estimators == 100
        assert p.bootstrap

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(60, 2))
        y = rng.integers(0, 2, 60)
        a = fit_forest(X, y, ForestParams(n_estimators=3), seed=1).predict_proba(X)
        b = fit_forest(X, y, ForestParams(n_estimators=3), seed=1).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_features", ["all", "log2"])
    def test_trees_equal_reference(self, bootstrap, max_features):
        X, y = churn_like(300, seed=11)
        tp = TreeParams(max_depth=8, min_samples_leaf=3, min_samples_split=6,
                        max_features=max_features)
        forest = fit_forest(X, y, ForestParams(**vars(tp), n_estimators=4,
                                               bootstrap=bootstrap), seed=2)
        for t, tree in enumerate(forest.params["trees"]):
            tree_seed = 2 * 1_000_003 + t
            idx = (np.random.default_rng(tree_seed).integers(0, len(y), size=len(y))
                   if bootstrap else np.arange(len(y)))
            want = reference_fit_tree(X[idx], y[idx], tp,
                                      np.random.default_rng(tree_seed + 1))
            assert preorder(tree.params["root"]) == preorder(want)


class TestMlp:
    def test_xor(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (200, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        model = fit_mlp_classifier(X, y, MlpClfParams(epochs=400), seed=0)
        assert (model.predict(X) == y).mean() >= 0.95

    def test_probability_range(self):
        X, y = separable(40, seed=10)
        p = fit_mlp_classifier(X, y, MlpClfParams(epochs=50)).predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_architecture(self):
        X, y = separable(30, seed=11)
        net = fit_mlp_classifier(X, y, MlpClfParams(epochs=1)).params["net"]
        widths = [l.width for l in net.spec.layers]
        assert widths == [16, 16, 1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_mlp_classifier(np.ones((5, 2)), np.zeros(5))


class TestSvm:
    def test_objective_near_optimum(self):
        from scipy.optimize import minimize

        X, y = separable(40, seed=12, gap=2.0)
        y_pm = np.where(y == 1, 1.0, -1.0)
        C = 1.0
        model = fit_svm_linear(X, y, SvmParams(C=C, epochs=5000))

        def obj(theta):
            return svm_objective(theta[:-1], theta[-1], X, y_pm, C)

        ref = minimize(obj, np.zeros(3), method="Powell",
                       options={"xtol": 1e-10, "ftol": 1e-12, "maxiter": 20000})
        ours = svm_objective(model.params["w"], model.params["b"], X, y_pm, C)
        assert ours <= ref.fun * 1.01 + 1e-9

    def test_separable_accuracy(self):
        X, y = separable(80, seed=13)
        model = fit_svm_linear(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_platt_probabilities_track_labels(self):
        X, y = separable(60, seed=14)
        p = fit_svm_linear(X, y).predict_proba(X)
        assert p[y == 1].min() > 0.5
        assert p[y == 0].max() < 0.5

    def test_label_flip_symmetry(self):
        X, y = separable(40, seed=15)
        a = fit_svm_linear(X, y).params["w"]
        b = fit_svm_linear(X, 1 - y).params["w"]
        np.testing.assert_allclose(a, -b, atol=1e-9)


def test_unknown_kind_rejected():
    model = FittedClassifier("nope", 2)
    with pytest.raises(ValueError):
        model.predict_proba(np.ones((1, 2)))
