"""Confusion metrics, the pooled t-test, and decision-tree rule extraction.

Note on naming: `auc` here is (sensitivity + specificity) / 2, i.e. balanced
accuracy at the 0.5 threshold; the threshold-free trapezoidal area is
exposed separately as `roc_auc`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NotATree, UndefinedMetric

T_CRITICAL = 2.83  # two-tailed, 18 df, 1% level (as used in comparisons)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    sensitivity: float
    specificity: float
    accuracy: float
    auc: float

    def to_dict(self):
        return {
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "accuracy": self.accuracy,
            "auc": self.auc,
        }


def confusion(labels, predictions):
    labels = np.asarray(labels, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if labels.shape != predictions.shape or labels.size == 0:
        raise LengthMismatch("labels and predictions must have equal nonzero length")
    tp = int(np.sum((labels == 1) & (predictions == 1)))
    tn = int(np.sum((labels == 0) & (predictions == 0)))
    fp = int(np.sum((labels == 0) & (predictions == 1)))
    fn = int(np.sum((labels == 1) & (predictions == 0)))
    return ConfusionCounts(tp, tn, fp, fn)


def metrics(counts):
    if counts.tp + counts.fn == 0:
        raise UndefinedMetric("no positive rows in the evaluation set")
    if counts.tn + counts.fp == 0:
        raise UndefinedMetric("no negative rows in the evaluation set")
    sens = counts.tp / (counts.tp + counts.fn)
    spec = counts.tn / (counts.tn + counts.fp)
    acc = (counts.tp + counts.tn) / counts.total
    return MetricSet(sens, spec, acc, (sens + spec) / 2.0)


def roc_auc(labels, scores):
    """Trapezoidal area under the ROC curve (threshold-free)."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("both classes needed for ROC")
    order = np.argsort(-scores, kind="stable")
    y = labels[order]
    s = scores[order]
    tps = np.cumsum(y)
    fps = np.cumsum(1 - y)
    # collapse tied thresholds
    distinct = np.append(np.flatnonzero(s[:-1] != s[1:]), len(s) - 1)
    tpr = np.concatenate([[0.0], tps[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fps[distinct] / n_neg])
    return float(np.trapezoid(tpr, fpr))


def t_test_auc(a, b, critical=T_CRITICAL):
    """Two-sample pooled-variance t statistic on per-fold scores.

    Returns (t, significant). Zero pooled variance yields t=0 when the means
    agree and a signed infinity otherwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise LengthMismatch("fold score lists must have equal length")
    n = len(a)
    mean_a, mean_b = a.mean(), b.mean()
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    pooled = ((n - 1) * var_a + (n - 1) * var_b) / (2 * n - 2)
    if pooled == 0.0:
        if mean_a == mean_b:
            return 0.0, False
        return math.copysign(math.inf, mean_a - mean_b), True
    t = (mean_a - mean_b) / math.sqrt(pooled * (2.0 / n))
    return float(t), bool(abs(t) > critical)


@dataclass(frozen=True)
class Rule:
    antecedents: tuple  # of (feature index, "<=" or ">", threshold)
    label: int
    support: int  # training rows at the leaf
    confidence: float  # leaf majority fraction

    def format(self, feature_names, class_names):
        if not self.antecedents:
            conds = "(always)"
        else:
            conds = " and ".join(
                f"({feature_names[f]} {op} {t:.2f})" for f, op, t in self.antecedents
            )
        return f"If {conds} then class = {class_names[self.label]}"


def extract_rules(tree_model):
    """One rule per leaf, conditions in root-to-leaf order."""
    if tree_model.kind != "tree":
        raise NotATree(f"expected a tree classifier, got {tree_model.kind!r}")
    rules = []

    def walk(node, path):
        if node.is_leaf:
            label = 1 if node.proba >= 0.5 else 0
            conf = node.proba if label == 1 else 1.0 - node.proba
            rules.append(Rule(tuple(path), label, node.n_samples, conf))
            return
        walk(node.left, path + [(node.feature, "<=", node.threshold)])
        walk(node.right, path + [(node.feature, ">", node.threshold)])

    walk(tree_model.params["root"], [])
    return rules


def apply_rules(rules, X):
    """Predict labels by firing the (unique) matching rule per row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(len(X), dtype=int)
    for i, row in enumerate(X):
        fired = None
        for rule in rules:
            ok = all(
                (row[f] <= t) if op == "<=" else (row[f] > t)
                for f, op, t in rule.antecedents
            )
            if ok:
                if fired is not None:
                    raise ValueError("rules are not mutually exclusive")
                fired = rule
        if fired is None:
            raise ValueError("no rule fired; rules are not exhaustive")
        out[i] = fired.label
    return out
