"""Downstream classifier suite: logistic regression, CART tree, random
forest, MLP, and a linear-kernel SVM, all behind one fit/predict_proba
contract. The SVM is solved exactly in its dual by `ocsvm.solve_pairwise`,
the one-class SVM's solver.

Logistic/SVM/MLP expect standardized + one-hot inputs; trees and forests
consume raw numerics with integer-coded categoricals treated as ordered.
The decision threshold is fixed at 0.5 throughout.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn_core
from .errors import SchemaMismatch
from .nn_core import (Layer, NetworkSpec, adam_step, backward, bce_loss, forward, init_network,
                      sigmoid)
from .ocsvm import LINEAR, KernelSpec, _kernel_operator, solve_pairwise
from .settings import check_at_least_1, check_fields

MLP_HIDDEN_WIDTH = 16
MLP_LEARNING_RATE = 0.001


@dataclass
class TreeParams:
    max_depth: int = 10
    min_samples_leaf: int = 10
    min_samples_split: int = 10
    max_features: str = "log2"  # "log2" or "all"

    def __post_init__(self):
        check_fields(self)
        check_at_least_1(self, "max_depth", "min_samples_leaf", "min_samples_split")
        if self.max_features not in ("log2", "all"):
            raise ValueError(
                f"max_features must be \"log2\" or \"all\", got {self.max_features!r}")


@dataclass
class ForestParams(TreeParams):
    """Every tree's settings, and the forest's own."""

    n_estimators: int = 100
    bootstrap: bool = True

    def __post_init__(self):
        super().__post_init__()
        check_at_least_1(self, "n_estimators")


@dataclass
class MlpClfParams:
    epochs: int = 100
    batch_size: int = 32

    def __post_init__(self):
        check_fields(self)
        check_at_least_1(self, "epochs", "batch_size")


@dataclass
class LogisticParams:
    l2: float = 1e-4  # penalty on the weights, not the bias

    def __post_init__(self):
        check_fields(self)
        if not self.l2 >= 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2!r}")


@dataclass
class SvmParams:
    C: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C!r}")


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


def fit_logistic(X, y, params=None):
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
    l2 = (params or LogisticParams()).l2
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


def _n_features_to_try(d, max_features):
    if max_features == "all":
        return d
    return max(1, int(math.floor(math.log2(d)))) if d > 1 else 1


class Split(NamedTuple):
    feature: int
    threshold: float
    score: float  # weighted Gini of the two sides
    left: np.ndarray  # row indices with x[feature] <= threshold
    right: np.ndarray
    left_positives: int


def best_split(XT, y, rows, feature_subset, min_samples_leaf):
    """Lowest weighted-Gini split of `rows`, or None if nothing qualifies.

    `XT` holds one row per feature and `y` the 0/1 labels, both indexed by
    `rows`. Ties break on lowest feature index then lowest threshold. A
    threshold lies between consecutive distinct sorted values a < b: their
    midpoint, or a where the midpoint rounds up to b (adjacent doubles) or
    overflows, so that `x <= threshold` routes exactly the scored rows left.

    Every boundary of every feature in the subset that leaves at least
    `min_samples_leaf` rows on each side is scored in one 2-D pass; the
    winner is the one a feature-major, threshold-ascending scan keeps when a
    score must beat the best so far by more than 1e-15.
    """
    n = len(rows)
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf  # boundaries lo..hi-1
    if lo >= hi:
        return None
    feats = np.sort(feature_subset)[:, None]
    # The sort need not be stable: a boundary lies between two distinct
    # values, so neither its prefix count nor its midpoint depends on the
    # order within a run of equal values.
    sorted_rows = rows[np.argsort(XT[feats, rows], axis=1)]
    xs = XT[feats, sorted_rows]
    pos_cum = np.cumsum(y[sorted_rows], axis=1)
    ok = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
    if not ok.any():
        return None
    n_left = np.arange(lo + 1, hi + 1)  # boundary i splits after sorted index i
    n_right = n - n_left
    pos_left = pos_cum[:, lo:hi]
    pl = pos_left / n_left
    pr = (pos_cum[:, -1:] - pos_left) / n_right
    scores = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
    scores = scores[ok]  # feature-major, thresholds ascending
    j = _first_best(scores)
    f, i = divmod(int(np.flatnonzero(ok)[j]), hi - lo)
    i += lo
    a, b = float(xs[f, i]), float(xs[f, i + 1])
    t = (a + b) / 2.0
    if not t < b:
        t = a
    return Split(int(feats[f, 0]), t, scores[j], sorted_rows[f, :i + 1],
                 sorted_rows[f, i + 1:], int(pos_cum[f, i]))


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


def _grow(XT, y, rows, params, rng):
    """Grow one CART tree on `rows` depth-first, in preorder, left first.

    A node holds row indices into `XT` and `y`; its row and positive counts
    come from the parent's split (the root counts its own), so no node
    copies the table or reduces its labels. A node is a leaf at
    `max_depth`, below `min_samples_split` rows, when pure, when no split
    qualifies, or when the best split does not lower the node's Gini
    impurity by more than 1e-15. Each node that searches draws its feature
    subset from `rng` first, in preorder.
    """
    d = XT.shape[0]
    k = _n_features_to_try(d, params.max_features)
    every = np.arange(d)
    root = TreeNode()
    stack = [(root, rows, int(np.count_nonzero(y[rows])), 0)]
    while stack:
        node, rows, pos, depth = stack.pop()
        n = len(rows)
        p = pos / n
        node.proba, node.n_samples = p, n
        if depth >= params.max_depth or n < params.min_samples_split or pos in (0, n):
            continue
        subset = every if k >= d else rng.choice(d, size=k, replace=False)
        split = best_split(XT, y, rows, subset, params.min_samples_leaf)
        if split is None or split.score >= 2.0 * p * (1.0 - p) - 1e-15:
            continue  # a split must reduce impurity
        node.feature, node.threshold = split.feature, split.threshold
        node.left, node.right = TreeNode(), TreeNode()
        stack.append((node.right, split.right, pos - split.left_positives, depth + 1))
        stack.append((node.left, split.left, split.left_positives, depth + 1))
    return root


def _tree_data(X, y):
    """Features as a (d, n) array, one row per feature, and 0/1 labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("empty training set")
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError(f"X of shape {X.shape} does not hold one row per label")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("tree labels must be 0 or 1")
    return np.ascontiguousarray(X.T), y


def _fit_tree_rows(XT, y, rows, params, seed):
    root = _grow(XT, y, rows, params, np.random.default_rng(seed))
    return FittedClassifier("tree", XT.shape[0], {"root": root, "tree_params": params})


def fit_tree(X, y, params=None, seed=0):
    XT, y = _tree_data(X, y)
    return _fit_tree_rows(XT, y, np.arange(len(y)), params or TreeParams(), seed)


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

def fit_forest(X, y, params=None, seed=0):
    """`n_estimators` trees, each grown with the forest's tree settings on a
    bootstrap sample (or every row) from its own seed."""
    XT, y = _tree_data(X, y)
    params = params or ForestParams()
    n = len(y)
    trees = []
    for t in range(params.n_estimators):
        tree_seed = seed * 1_000_003 + t
        if params.bootstrap:
            rows = np.random.default_rng(tree_seed).integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(_fit_tree_rows(XT, y, rows, params, tree_seed + 1))
    return FittedClassifier("forest", XT.shape[0],
                            {"trees": trees, "forest_params": params})


# --- MLP -----------------------------------------------------------------

def fit_mlp_classifier(X, y, params=None, seed=0):
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
    net = init_network(spec, seed)
    rng = np.random.default_rng(seed)
    n = len(y)
    for _ in range(params.epochs):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            idx = order[start:start + params.batch_size]
            acts = forward(net, X[idx])
            loss, grad = bce_loss(acts[-1][:, 0], y[idx])
            grad, _ = backward(net, acts, grad[:, None], input_grad=False)
            adam_step(net, grad, MLP_LEARNING_RATE)
    return FittedClassifier("mlp", X.shape[1], {"net": net})


# --- linear SVM ----------------------------------------------------------

def svm_objective(w, b, X, y_pm, C):
    margins = y_pm * (X @ w + b)
    return float(0.5 * (w @ w) + C * np.maximum(0.0, 1.0 - margins).mean())


def fit_svm_linear(X, y, params=None):
    """Hinge + L2 (`svm_objective`) at its optimum: `ocsvm.solve_pairwise`
    minimizes the dual 1/2 b'XX'b - y'b over 0 <= y_i b_i <= C/n, sum b_i = 0
    (b = y * alpha) from b = 0; w = X'b, and the intercept is minus the sum's
    multiplier. Probabilities come from a Platt link p = sigmoid(a * m + c)
    on the training margins m, fitted by `fit_logistic` with l2 = 0."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    C = (params or SvmParams()).C
    n, d = X.shape
    _, rows = _kernel_operator(KernelSpec(LINEAR), X)
    beta = np.zeros(n)  # so the gradient K beta - y starts at -y
    lo, hi = np.where(y == 1, 0.0, -C / n), np.where(y == 1, C / n, 0.0)
    _, _, multiplier = solve_pairwise(beta, np.where(y == 1, -1.0, 1.0), lo, hi, rows, 0.0)
    w, b = X.T @ beta, -multiplier

    link = fit_logistic((X @ w + b)[:, None], y, LogisticParams(l2=0.0))
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

