"""Downstream classifier suite: logistic regression, CART tree, random
forest, MLP, and a linear-kernel SVM, all behind one fit/predict_proba
contract.

Logistic/SVM/MLP expect standardized + one-hot inputs; trees and forests
consume raw numerics with integer-coded categoricals treated as ordered.
The decision threshold is fixed at 0.5 throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn_core
from .errors import SchemaMismatch
from .nn_core import (AdamConfig, Layer, NetworkSpec, adam_step, backward, bce_loss, forward,
                      init_network, sigmoid)

MLP_HIDDEN_WIDTH = 16
MLP_LEARNING_RATE = 0.001


@dataclass
class TreeParams:
    max_depth: int = 10
    min_samples_leaf: int = 10
    min_samples_split: int = 10
    max_features: str = "log2"  # "log2" or "all"

    def __post_init__(self):
        if min(self.max_depth, self.min_samples_leaf, self.min_samples_split) < 1:
            raise ValueError("tree limits must be >= 1")
        if self.max_features not in ("log2", "all"):
            raise ValueError(
                f"max_features must be \"log2\" or \"all\", got {self.max_features!r}")


@dataclass
class ForestParams:
    n_estimators: int = 100
    tree: TreeParams = field(default_factory=TreeParams)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")


@dataclass
class MlpClfParams:
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("mlp epochs and batch_size must be >= 1")


@dataclass
class FittedClassifier:
    kind: str  # "logistic", "tree", "forest", "mlp", "svm"
    n_features: int
    params: dict = field(default_factory=dict)

    def predict_proba(self, X):
        return predict_proba(self, X)

    def predict(self, X, threshold=0.5):
        return (self.predict_proba(X) >= threshold).astype(int)


def _check_rows(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise SchemaMismatch(
            f"row width {X.shape[1]} != training width {model.n_features}")
    return X


# --- logistic regression -------------------------------------------------

NEWTON_MAX_STEPS = 100


def fit_logistic(X, y, l2=0.0):
    """Damped Newton (IRLS) on `logistic_objective`, the bias unpenalized.

    Each step solves the Newton system for its minimum-norm solution, so a
    singular Hessian (l2 = 0, a column collinear with the bias) still gives
    one, and is halved until the Armijo condition holds. Stops at gradient
    norm < 1e-10, after NEWTON_MAX_STEPS steps, or when no step length
    lowers the objective (its rounding floor)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    n, d = X.shape
    A = np.column_stack([X, np.ones(n)])  # the bias is the last coefficient
    penalty = np.append(np.full(d, l2), 0.0)
    theta = np.zeros(d + 1)
    f = logistic_objective(theta[:d], 0.0, X, y, l2)
    for _ in range(NEWTON_MAX_STEPS):
        p = sigmoid(A @ theta)
        g = A.T @ (p - y) / n + penalty * theta
        if np.linalg.norm(g) < 1e-10:
            break
        H = (A.T * (p * (1.0 - p))) @ A / n + np.diag(penalty)
        step = np.linalg.lstsq(H, g, rcond=None)[0]
        for t in 0.5 ** np.arange(34):  # backtracking line search
            trial = theta - t * step
            f_trial = logistic_objective(trial[:d], trial[d], X, y, l2)
            if f_trial <= f - 1e-4 * t * (g @ step):
                break
        else:  # no step length lowers the objective any more
            break
        theta, f = trial, f_trial
    return FittedClassifier("logistic", d,
                            {"w": theta[:d], "b": float(theta[d]), "l2": l2})


def logistic_objective(w, b, X, y, l2):
    z = X @ w + b
    # log(1 + exp(-margin)) via the stable softplus form
    margin = np.where(y == 1, z, -z)
    loss = np.mean(np.logaddexp(0.0, -margin))
    return float(loss + 0.5 * l2 * (w @ w))


# --- CART decision tree --------------------------------------------------

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: object = None
    right: object = None
    proba: float = 0.0  # positive fraction at this node
    n_samples: int = 0

    @property
    def is_leaf(self):
        return self.left is None


def gini(y):
    if len(y) == 0:
        return 0.0
    p = y.mean()
    return float(2.0 * p * (1.0 - p))


def _n_features_to_try(d, max_features):
    if max_features == "all":
        return d
    return max(1, int(math.floor(math.log2(d)))) if d > 1 else 1


def best_split(X, y, feature_subset, min_samples_leaf):
    """Lowest weighted-Gini (feature, threshold); ties break on lowest
    feature index then lowest threshold. Thresholds are midpoints between
    consecutive distinct sorted values. Returns None if nothing qualifies.

    Every boundary of every feature in the subset is scored in one 2-D
    pass; the winner is the one a feature-major, threshold-ascending scan
    keeps when a score must beat the best so far by more than 1e-15.
    """
    feats = np.sort(np.fromiter(feature_subset, dtype=np.intp))
    n = len(y)
    cols = X[:, feats].T  # one row per feature
    # The sort need not be stable: a boundary lies between two distinct
    # values, so neither its prefix count nor its midpoint depends on the
    # order within a run of equal values.
    order = np.argsort(cols, axis=1)
    xs = np.take_along_axis(cols, order, axis=1)
    pos_cum = np.cumsum(y[order], axis=1)
    n_left = np.arange(1, n)  # boundary i splits after sorted index i
    n_right = n - n_left
    ok = ((xs[:, :-1] < xs[:, 1:])
          & (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf))
    if not ok.any():
        return None
    pl = pos_cum[:, :-1] / n_left
    pr = (pos_cum[:, -1:] - pos_cum[:, :-1]) / n_right
    scores = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
    scores = scores[ok]  # feature-major, thresholds ascending
    j = _first_best(scores)
    f, i = divmod(int(np.flatnonzero(ok)[j]), n - 1)
    return int(feats[f]), (xs[f, i] + xs[f, i + 1]) / 2.0, scores[j]


def _first_best(scores):
    """Index a sequential scan keeps when a score replaces the best only if
    it is lower by more than 1e-15. Without near-ties (scores above the
    minimum but within 1e-15 of it) that is the first minimum."""
    j = int(np.argmin(scores))
    m = scores[j]
    if np.count_nonzero(scores - 1e-15 <= m) == np.count_nonzero(scores == m):
        return j
    scores = scores.tolist()
    best = 0
    for j in range(1, len(scores)):
        if scores[j] < scores[best] - 1e-15:
            best = j
    return best


def _grow(X, y, depth, params, rng):
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
    found = best_split(X, y, subset, params.min_samples_leaf)
    if found is None:
        return node
    f, t, score = found
    if score >= gini(y) - 1e-15:  # split must reduce impurity
        return node
    mask = X[:, f] <= t
    node.feature = f
    node.threshold = t
    node.left = _grow(X[mask], y[mask], depth + 1, params, rng)
    node.right = _grow(X[~mask], y[~mask], depth + 1, params, rng)
    return node


def fit_tree(X, y, params=None, seed=0):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("empty training set")
    params = params or TreeParams()
    rng = np.random.default_rng(seed)
    root = _grow(X, y, 0, params, rng)
    return FittedClassifier("tree", X.shape[1], {"root": root, "tree_params": params})


def _tree_proba(root, X):
    """Leaf probability per row, routing index arrays down the tree."""
    out = np.empty(len(X))
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.proba
        elif len(idx):
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
    return out


# --- random forest -------------------------------------------------------

def fit_forest(X, y, params=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("empty training set")
    params = params or ForestParams()
    n = len(y)
    trees = []
    for t in range(params.n_estimators):
        tree_seed = params.seed * 1_000_003 + t
        if params.bootstrap:
            idx = np.random.default_rng(tree_seed).integers(0, n, size=n)
            Xt, yt = X[idx], y[idx]
        else:
            Xt, yt = X, y
        trees.append(fit_tree(Xt, yt, params.tree, seed=tree_seed + 1))
    return FittedClassifier("forest", X.shape[1],
                            {"trees": trees, "forest_params": params})


# --- MLP -----------------------------------------------------------------

def fit_mlp_classifier(X, y, params=None):
    """Two 16-wide ReLU layers into a sigmoid unit, Adam at 0.001, BCE."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    params = params or MlpClfParams()
    spec = NetworkSpec(X.shape[1], (
        Layer(MLP_HIDDEN_WIDTH, nn_core.RELU),
        Layer(MLP_HIDDEN_WIDTH, nn_core.RELU),
        Layer(1, nn_core.SIGMOID),
    ))
    net = init_network(spec, params.seed)
    adam = AdamConfig(learning_rate=MLP_LEARNING_RATE)
    rng = np.random.default_rng(params.seed)
    n = len(y)
    for _ in range(params.epochs):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            idx = order[start:start + params.batch_size]
            acts = forward(net, X[idx])
            loss, grad = bce_loss(acts[-1][:, 0], y[idx])
            grad, _ = backward(net, acts, grad[:, None])
            adam_step(net, grad, adam)
    return FittedClassifier("mlp", X.shape[1], {"net": net})


# --- linear SVM ----------------------------------------------------------

def svm_objective(w, b, X, y_pm, C):
    margins = y_pm * (X @ w + b)
    return float(0.5 * (w @ w) + C * np.maximum(0.0, 1.0 - margins).mean())


def fit_svm_linear(X, y, C=1.0, epochs=2000):
    """Hinge + L2 by full-batch subgradient descent with averaged iterates.

    Probabilities come from a Platt link p = sigmoid(a * m + c) on the
    training margins m, fitted by `fit_logistic` with l2 = 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    y_pm = np.where(y == 1, 1.0, -1.0)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    for t in range(1, epochs + 1):
        margins = y_pm * (X @ w + b)
        active = margins < 1.0
        gw = w - C * (y_pm[active][:, None] * X[active]).sum(axis=0) / n
        gb = -C * y_pm[active].sum() / n
        lr = 1.0 / (1.0 + 0.01 * t)  # deterministic decaying schedule
        w -= lr * gw
        b -= lr * gb
        w_avg += (w - w_avg) / t
        b_avg += (b - b_avg) / t
    w, b = w_avg, b_avg

    link = fit_logistic((X @ w + b)[:, None], y)
    platt = (float(link.params["w"][0]), link.params["b"])
    return FittedClassifier("svm", d, {"w": w, "b": b, "platt": platt, "C": C})


# --- uniform prediction --------------------------------------------------

def predict_proba(model, X):
    X = _check_rows(model, X)
    if model.kind == "logistic":
        return sigmoid(X @ model.params["w"] + model.params["b"])
    if model.kind == "tree":
        return _tree_proba(model.params["root"], X)
    if model.kind == "forest":
        probas = np.stack([_tree_proba(t.params["root"], X)
                           for t in model.params["trees"]])
        return probas.mean(axis=0)
    if model.kind == "mlp":
        return forward(model.params["net"], X)[-1][:, 0]
    if model.kind == "svm":
        a, c = model.params["platt"]
        return sigmoid(a * (X @ model.params["w"] + model.params["b"]) + c)
    raise ValueError(f"unknown classifier kind {model.kind!r}")


def forest_vote(model, X, threshold=0.5):
    """Majority vote over per-tree labels, exposed alongside mean probability."""
    X = _check_rows(model, X)
    votes = np.stack([_tree_proba(t.params["root"], X) >= threshold
                      for t in model.params["trees"]])
    return (votes.mean(axis=0) > 0.5).astype(int)
