import math

import numpy as np
import pytest

from fingan.classifiers import FittedClassifier, TreeParams, fit_tree
from fingan.errors import LengthMismatch, NotATree, UndefinedMetric
from fingan.evaluation import (
    T_CRITICAL,
    ConfusionCounts,
    apply_rules,
    confusion,
    extract_rules,
    metrics,
    roc_auc,
    t_test_auc,
)


class TestConfusion:
    def test_hand_counts(self):
        labels = [1, 1, 1, 0, 0, 0, 0]
        preds = [1, 1, 0, 0, 0, 1, 1]
        c = confusion(labels, preds)
        assert (c.tp, c.fn, c.tn, c.fp) == (2, 1, 2, 2)
        assert c.total == 7

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(LengthMismatch):
            confusion([], [])


class TestMetrics:
    def test_known_values(self):
        # sens 8/10 = 0.8, spec 9/10 = 0.9
        m = metrics(ConfusionCounts(tp=8, tn=9, fp=1, fn=2))
        assert m.sensitivity == pytest.approx(0.8)
        assert m.specificity == pytest.approx(0.9)
        assert m.accuracy == pytest.approx(0.85)
        assert m.auc == pytest.approx(0.85)
        # the majority baseline: every row predicted negative
        m = metrics(ConfusionCounts(tp=0, tn=20, fp=0, fn=6))
        assert (m.sensitivity, m.specificity, m.auc) == (0.0, 1.0, 0.5)

    def test_auc_is_mean_of_sens_spec(self):
        # 0.83 and 0.90 average to 0.865
        m = metrics(ConfusionCounts(tp=83, tn=90, fp=10, fn=17))
        assert m.auc == pytest.approx((0.83 + 0.90) / 2)

    def test_undefined_without_positives(self):
        with pytest.raises(UndefinedMetric):
            metrics(ConfusionCounts(tp=0, tn=5, fp=1, fn=0))

    def test_undefined_without_negatives(self):
        with pytest.raises(UndefinedMetric):
            metrics(ConfusionCounts(tp=5, tn=0, fp=0, fn=1))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_reversed_ranking(self):
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)

    def test_all_tied_is_half(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 50)
        y[0], y[1] = 0, 1
        s = rng.normal(size=50).round(1)  # force some ties
        pos = s[y == 1]
        neg = s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert roc_auc(y, s) == pytest.approx(expected)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetric):
            roc_auc([1, 1], [0.2, 0.3])


class TestTTest:
    def test_identical_scores_zero(self):
        t, sig = t_test_auc([0.8, 0.9, 0.7], [0.8, 0.9, 0.7])
        assert t == 0.0 or abs(t) < 1e-12
        assert not sig

    def test_well_separated_significant(self):
        a = [0.90, 0.91, 0.89, 0.90, 0.92]
        b = [0.60, 0.61, 0.59, 0.60, 0.62]
        t, sig = t_test_auc(a, b)
        assert t > T_CRITICAL
        assert sig

    def test_formula_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.7, 0.9, 10)
        b = rng.uniform(0.6, 0.8, 10)
        t, _ = t_test_auc(a, b)
        n = 10
        sp2 = ((n - 1) * a.var(ddof=1) + (n - 1) * b.var(ddof=1)) / (2 * n - 2)
        expected = (a.mean() - b.mean()) / math.sqrt(sp2 * 2 / n)
        assert t == pytest.approx(expected, abs=1e-10)

    def test_antisymmetry(self):
        a = [0.8, 0.85, 0.82]
        b = [0.7, 0.72, 0.71]
        assert t_test_auc(a, b)[0] == pytest.approx(-t_test_auc(b, a)[0])

    def test_zero_variance_different_means(self):
        t, sig = t_test_auc([0.9, 0.9], [0.8, 0.8])
        assert t == math.inf
        assert sig

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            t_test_auc([0.8], [0.8, 0.9])


class TestRules:
    def stump(self):
        X = np.array([[0.0], [0.2], [0.8], [1.0]])
        y = np.array([0, 0, 1, 1])
        return fit_tree(X, y, TreeParams(max_depth=1, min_samples_leaf=1,
                                         min_samples_split=2,
                                         max_features="all"))

    def test_depth_one_two_rules(self):
        rules = extract_rules(self.stump())
        assert len(rules) == 2
        assert rules[0].antecedents == ((0, "<=", 0.5),)
        assert rules[0].label == 0
        assert rules[1].antecedents == ((0, ">", 0.5),)
        assert rules[1].label == 1
        assert all(r.confidence == 1.0 for r in rules)

    def test_format(self):
        rule = extract_rules(self.stump())[1]
        text = rule.format(["score"], ["stay", "leave"])
        assert text == "If (score > 0.50) then class = leave"

    def test_rule_count_equals_leaf_count(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, 200)
        model = fit_tree(X, y, TreeParams(max_features="all"), seed=0)

        def leaves(node):
            return 1 if node.is_leaf else leaves(node.left) + leaves(node.right)

        assert len(extract_rules(model)) == leaves(model.params["root"])

    @pytest.mark.parametrize("seed", range(3))
    def test_full_fidelity_replay(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        model = fit_tree(X, y, TreeParams(max_features="all"), seed=seed)
        rules = extract_rules(model)
        probe = rng.normal(size=(500, 3))
        # exactly one rule fires per row, and replay matches the tree
        np.testing.assert_array_equal(apply_rules(rules, probe),
                                      model.predict(probe))

    def test_rejects_non_tree(self):
        with pytest.raises(NotATree):
            extract_rules(FittedClassifier("logistic", 2))
