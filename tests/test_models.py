import dataclasses
import hashlib
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from test_tree_engine import GOLDEN, GOLDEN_DATA, _staircase, _tied_data, assert_model_document

from imbtab import FeatureMatrix
from imbtab.errors import (
    DimensionMismatch,
    EmptyInput,
    ImbtabError,
    LabelOutOfRange,
    NonFiniteFeature,
    NonFiniteLoss,
    NonFiniteScore,
    ValidationError,
    check_fit_inputs,
)
from imbtab.models import (
    FAMILIES,
    ModelConfig,
    classify,
    fit_forest,
    fit_gbt,
    fit_logistic,
    fit_model,
    fit_models,
    fit_tree,
    forest_predict_proba,
    linear_predict_proba,
    logistic_gradient,
    logistic_loss,
    model_to_json,
    sigmoid,
    tree_predict,
)
from imbtab.models import fanout
from imbtab.models.boosting import GainCriterion, _gain_loss
from imbtab.models.logistic import _gradient, _loss


LR_GOLDEN = [
    (dict(), 6, 500, "eb65557e933fd16fff175b9c01d1a06a54c14b318baef27df439b252f631eeac"),
    (
        dict(iterations=50),
        6,
        50,
        "460315a7b61136d16f89d2eb9d3925684108c598b2b291496128bf3009405c0a",
    ),
    (
        dict(iterations=5000, tolerance=1e-3, learning_rate=0.5),
        1,
        81,
        "1f71d08cb1bbcf36c74b61b59df02793a14904e4bd29e8a50ae5523ac57e319f",
    ),
]


# the GOLDEN entries fitted on _tied_data()
TIED_GOLDEN = [n for n in sorted(GOLDEN) if n not in GOLDEN_DATA]


def lr_cfg(**kw):
    return ModelConfig.for_family("lr", **kw)


def dt_cfg(**kw):
    return ModelConfig.for_family("dt", **kw)


class TestLogistic:
    def test_symmetric_data_gives_half(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        m = fit_logistic(X, y, lr_cfg(iterations=200))
        assert linear_predict_proba(m, np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5).astype(float)
        w = rng.normal(size=3)
        b = float(rng.normal())
        l2 = 0.3
        gw, gb = logistic_gradient(X, y, w, b, l2)
        h = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (logistic_loss(X, y, w + e, b, l2) - logistic_loss(X, y, w - e, b, l2)) / (2 * h)
            assert abs(gw[j] - fd) / max(abs(fd), 1e-12) < 1e-6
        fd_b = (logistic_loss(X, y, w, b + h, l2) - logistic_loss(X, y, w, b - h, l2)) / (2 * h)
        assert abs(gb - fd_b) / max(abs(fd_b), 1e-12) < 1e-6

    def test_separable_reaches_perfect_accuracy(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        m = fit_logistic(X, y, lr_cfg(l2=0.0, iterations=5000, learning_rate=1.0))
        preds = classify(linear_predict_proba(m, X), 0.5)
        assert preds.tolist() == [0, 1]

    def test_loss_nonincreasing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
        cfg = lr_cfg(learning_rate=0.05, iterations=1)
        w = np.zeros(3)
        b = 0.0
        prev = logistic_loss(X, y, w, b, cfg.l2)
        for _ in range(50):
            gw, gb = logistic_gradient(X, y, w, b, cfg.l2)
            w -= cfg.learning_rate * gw
            b -= cfg.learning_rate * gb
            cur = logistic_loss(X, y, w, b, cfg.l2)
            assert cur <= prev + 1e-12
            prev = cur

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_logistic(np.empty((0, 2)), np.empty(0), lr_cfg())

    @staticmethod
    def _scaled_data():
        rng = np.random.default_rng(17)
        X = rng.normal(size=(800, 6)) * np.array([1, 5, 0.1, 2, 1, 30])
        y = (X[:, 0] + 0.2 * X[:, 1] + rng.normal(size=800) > 0.8).astype(int)
        return X, y

    @pytest.mark.parametrize(
        "overrides, columns, iterations, digest", LR_GOLDEN, ids=["defaults", "50-steps", "1-column"]
    )
    def test_golden_model_digest(self, overrides, columns, iterations, digest):
        X, y = self._scaled_data()
        fitted = fit_model(X[:, :columns], y, lr_cfg(**overrides))
        assert fitted.model.iterations == iterations
        m = fitted.model
        assert m.final_loss == logistic_loss(X[:, :columns], y, m.weights, m.bias, lr_cfg().l2)
        text = model_to_json(fitted)
        assert_model_document(fitted, text)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_divergence_names_its_iteration(self):
        X, y = self._scaled_data()
        with pytest.raises(NonFiniteLoss, match="iteration 52;"):
            fit_logistic(X, y, lr_cfg(learning_rate=1e3, l2=1.0))

    @pytest.mark.parametrize("label", [np.nan, 2.0, -0.5])
    def test_labels_outside_the_unit_interval_are_refused(self, label):
        X, y = self._scaled_data()
        y = y.astype(float)
        y[7] = label
        with pytest.raises(LabelOutOfRange):
            fit_logistic(X, y, lr_cfg(iterations=3))
        for family in FAMILIES:
            with pytest.raises(LabelOutOfRange):
                fit_model(X, y, ModelConfig.for_family(family))
        assert issubclass(LabelOutOfRange, ImbtabError)

    @staticmethod
    def _oracle_fit(X, y, cfg):
        """fit_logistic as it was when it evaluated the loss after every step:
        (weights, bias, final loss, iterations), or the iteration at which the
        loss turned non-finite."""
        w, b = np.zeros(X.shape[1]), 0.0
        p = sigmoid(X @ w + b)
        loss = _loss(p, y, w, cfg.l2)
        it = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, cfg.iterations + 1):
                gw, gb = _gradient(X, y, p, w, cfg.l2)
                if max(np.max(np.abs(gw), initial=0.0), abs(gb)) < cfg.tolerance:
                    it -= 1
                    break
                w -= cfg.learning_rate * gw
                b -= cfg.learning_rate * gb
                p = sigmoid(X @ w + b)
                loss = _loss(p, y, w, cfg.l2)
                if not np.isfinite(loss):
                    return it
        return w, b, loss, it

    # At learning rate 1e200 the weights pass 1e154, so their squared norm
    # overflows: the L2 term is inf, or 0 * inf = NaN at l2 0. l2 1e300 makes
    # the L2 term overflow at moderate weights. On X scaled by 1e204, learning
    # rate 1e-100 makes X @ w sum inf and -inf, so p is NaN while the L2 term
    # is finite.
    @pytest.mark.parametrize("scale", [1.0, 1e204])
    @pytest.mark.parametrize("l2", [0.0, 1e-4, 1.0, 1e300])
    @pytest.mark.parametrize("learning_rate", [1e-100, 0.1, 30.0, 1e3, 1e200])
    def test_fit_matches_a_loss_every_step_oracle(self, learning_rate, l2, scale):
        X, y = self._scaled_data()
        X, y = X * scale, y.astype(float)
        cfg = lr_cfg(learning_rate=learning_rate, l2=l2, iterations=120)
        expected = self._oracle_fit(X, y, cfg)
        if isinstance(expected, int):
            with pytest.raises(NonFiniteLoss, match=f"iteration {expected};"):
                fit_logistic(X, y, cfg)
            return
        model = fit_logistic(X, y, cfg)
        w, b, loss, it = expected
        assert np.array_equal(model.weights, w) and model.bias == b
        assert model.final_loss == loss and model.iterations == it
        assert model.final_loss == logistic_loss(X, y, model.weights, model.bias, cfg.l2)


class TestTree:
    def test_single_feature_split(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        t = fit_tree(X, y, dt_cfg(min_samples_leaf=1))
        assert t.feature[0] == 0 and t.threshold[0] == pytest.approx(0.5)
        assert tree_predict(t, X).tolist() == [0.0, 1.0]

    def test_pure_node_is_leaf(self):
        t = fit_tree(np.array([[0.0], [1.0]]), np.array([1, 1]), dt_cfg())
        assert [(n.feature, n.gini, n.score) for n in t.walk()] == [(-1, 0.0, 1.0)]

    def test_constant_zero_labels(self):
        t = fit_tree(np.array([[0.0], [1.0], [2.0]]), np.zeros(3), dt_cfg())
        assert [(n.feature, n.score) for n in t.walk()] == [(-1, 0.0)]

    def test_gini_range_on_all_nodes(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(float)
        t = fit_tree(X, y, dt_cfg(max_depth=6, min_samples_leaf=2))
        for node in t.walk():
            assert 0.0 <= node.gini <= 0.5

    def test_unlimited_depth_memorizes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, size=80).astype(float)
        t = fit_tree(X, y, dt_cfg(max_depth=None, min_samples_leaf=1))
        assert np.array_equal(classify(tree_predict(t, X), 0.5), y.astype(int))

    def test_a_deep_tree_fits_and_predicts(self):
        X, y = _staircase(4000)
        t = fit_tree(X, y, dt_cfg(max_depth=None, min_samples_leaf=1))
        assert np.array_equal(tree_predict(t, X), y)

    def test_a_deep_tree_writes_its_arrays(self):
        # json.dumps recurses once per level of a nested document
        X, y = _staircase(1500)
        fitted = fit_model(X, y, dt_cfg(max_depth=None, min_samples_leaf=1))
        assert fitted.model.depth == 1499
        assert_model_document(fitted, model_to_json(fitted))

    def test_tie_breaks_prefer_lower_feature(self):
        # identical columns: the split must use feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        t = fit_tree(X, y, dt_cfg(min_samples_leaf=1))
        assert t.feature[0] == 0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_tree(np.empty((0, 1)), np.empty(0), dt_cfg())

    def test_a_tree_equals_no_other_type(self):
        X, y, cfg = np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), dt_cfg(min_samples_leaf=1)
        assert fit_tree(X, y, cfg) == fit_tree(X, y, cfg)
        assert (fit_tree(X, y, cfg) == object()) is False

    @pytest.mark.xfail(
        strict=True, reason="known defect: the Gini split search ignores min_samples_leaf"
    )
    def test_min_samples_leaf_bounds_leaf_size(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(2000, 4))
        y = (X[:, 0] + rng.normal(size=2000) > 0.5).astype(float)
        t = fit_tree(X, y, dt_cfg())
        assert t.n[t.feature < 0].min() >= dt_cfg().min_samples_leaf


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", ["dt", "rf", "xgb", "lr"])
    def test_fit_rejects_non_finite(self, family, bad):
        X = np.array([[0.0, 1.0], [1.0, bad], [2.0, 0.0], [3.0, 1.0]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(NonFiniteFeature) as info:
            fit_model(X, y, ModelConfig.for_family(family))
        assert isinstance(info.value, ImbtabError)

    def test_predict_sends_nan_right(self):
        from imbtab.models import Tree

        t = Tree(
            feature=np.array([1, -1, -1]), threshold=np.array([0.5, 0.0, 0.0]),
            right=np.array([2, 1, 2]), score=np.array([0.5, 0.0, 1.0]),
            gini=np.array([0.5, 0.0, 0.0]), n=np.array([2, 1, 1]),
        )
        X = np.array([[0.0, np.nan], [np.nan, 0.0], [0.0, 1.0]])
        assert tree_predict(t, X).tolist() == [1.0, 0.0, 1.0]


class TestForest:
    def test_single_tree_no_bootstrap_matches_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(float)
        cfg = ModelConfig.for_family(
            "rf", n_trees=1, bootstrap=False, feature_subset_size=3, min_samples_leaf=1
        )
        f = fit_forest(X, y, cfg)
        t = fit_tree(X, y, cfg)
        assert np.array_equal(forest_predict_proba(f, X), tree_predict(t, X))

    def test_probability_is_mean_of_leaf_scores(self):
        from imbtab.models.tree import Tree
        from imbtab.models.forest import ForestModel

        def leaf(score):
            return Tree(
                feature=np.array([-1]), threshold=np.array([0.0]), right=np.array([0]),
                score=np.array([score]), gini=np.array([0.0]), n=np.array([1]),
            )

        trees = [leaf(s) for s in (1.0, 1.0, 0.0)]
        f = ForestModel(trees=trees, feature_subset_size=1, bootstrap=True, seed=0)
        assert forest_predict_proba(f, np.zeros((1, 2)))[0] == pytest.approx(2 / 3)

    def test_separable_training_accuracy(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]] * 5)
        y = np.array([0, 0, 1, 1] * 5)
        cfg = ModelConfig.for_family("rf", n_trees=50, min_samples_leaf=1, seed=9)
        f = fit_forest(X, y, cfg)
        assert np.array_equal(classify(forest_predict_proba(f, X), 0.5), y)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 2, size=50).astype(float)
        cfg = ModelConfig.for_family("rf", n_trees=10, seed=21)
        a = fit_forest(X, y, cfg)
        b = fit_forest(X, y, cfg)
        assert np.array_equal(forest_predict_proba(a, X), forest_predict_proba(b, X))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_forest(np.empty((0, 1)), np.empty(0), ModelConfig.for_family("rf"))


class TestBoosting:
    def test_zero_rounds_balanced_base(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        m = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=0))
        assert m.base_score == pytest.approx(0.0)
        fm = fit_model(X, y, ModelConfig.for_family("xgb", rounds=0))
        assert fm.predict_proba(X) == pytest.approx([0.5, 0.5])

    def test_zero_learning_rate_keeps_base(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30).astype(float)
        m0 = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=0))
        m = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=5, learning_rate=0.0))
        assert sigmoid(m.base_score) == pytest.approx(sigmoid(m0.base_score))
        from imbtab.models.boosting import gbt_predict_proba

        assert gbt_predict_proba(m, X) == pytest.approx(np.full(30, sigmoid(m.base_score)))

    def test_one_round_reduces_log_loss(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])

        def log_loss(p):
            p = np.clip(p, 1e-12, 1 - 1e-12)
            return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

        from imbtab.models.boosting import gbt_predict_proba

        base = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=0))
        one = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=1, max_depth=1))
        assert log_loss(gbt_predict_proba(one, X)) < log_loss(gbt_predict_proba(base, X))

    def test_large_l2_shrinks_leaves(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(float)

        def max_abs_leaf(model):
            return max(np.abs(t.score[t.feature < 0]).max() for t in model.trees)

        small = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=3, l2=1.0))
        large = fit_gbt(X, y, ModelConfig.for_family("xgb", rounds=3, l2=1e6))
        assert max_abs_leaf(large) < max_abs_leaf(small)
        assert max_abs_leaf(large) < 1e-4

    def test_a_deep_tree_fits(self):
        X, y = _staircase(3000)
        cfg = ModelConfig.for_family("xgb", rounds=1, l2=0.0, max_depth=None)
        m = fit_model(X, y, cfg)
        assert np.array_equal(classify(m.predict_proba(X)), y)
        assert_model_document(m, model_to_json(m))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_gbt(np.empty((0, 1)), np.empty(0), ModelConfig.for_family("xgb"))

    def test_degenerate_label_mean_clamped(self):
        X = np.array([[0.0], [1.0]])
        m = fit_gbt(X, np.ones(2), ModelConfig.for_family("xgb", rounds=0))
        assert np.isfinite(m.base_score)

    def test_zero_hessian_nodes_fit_without_warnings(self):
        # l2 = 0: once sigmoid(raw) saturates, nodes and sides with h sum 0 score 0
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = ModelConfig.for_family("xgb", rounds=50, learning_rate=1.0, l2=0.0, max_depth=1)
        documents = []
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                documents.append(model_to_json(fit_model(X, y, cfg)))
        assert documents[0] == documents[1]

    def test_non_finite_raw_scores_raise(self):
        # at l2 1e-308 a gain term G^2/(H + l2) overflows; with l2 0 this fit finishes
        X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        cfg = ModelConfig.for_family("xgb", rounds=5, learning_rate=5.0, l2=1e-308, max_depth=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScore):
                fit_model(X, y, cfg)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_hessian_sum_gives_zero_terms(self, zero):
        # XGBoost's rule: a leaf value or gain term over H + l2 == 0 is 0
        G, H = np.float64(3.0), np.float64(zero)
        loss = _gain_loss(G, H, zero, 3, 1)
        values = loss([np.array([1.0, -2.0]), np.array([zero, zero])], np.array([1, 2]))
        assert values.tolist() == [0.0, 0.0]
        # only the left side's divisor is 0: the others keep their terms
        loss = _gain_loss(G, np.float64(2.0), zero, 2, 1)
        values = loss([np.array([1.0]), np.array([zero])], np.array([1]))
        assert values.tolist() == [-0.5 * (2.0**2 / 2.0 - 3.0**2 / 2.0)]
        y = np.array([0.0, 1.0])
        criterion = GainCriterion(y, np.array([1.0, -3.0]), np.array([zero, zero]), zero, 1)
        assert criterion.node(np.arange(2))[0] == 0.0

    def test_a_nan_gain_is_an_infinite_loss(self):
        # 2^2 / 1e-308 overflows on the left and for the parent: inf - inf
        G, H = np.float64(2.0), np.float64(1e-308)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = _gain_loss(G, H, 1e-308, 3, 1)
            values = loss([np.array([2.0, 1.0]), np.array([0.0, 5e-309])], np.array([1, 2]))
        assert values[0] == np.inf and not np.isnan(values).any()

    def test_the_gain_is_the_second_order_formula_when_no_divisor_is_zero(self):
        rng = np.random.default_rng(8)
        g, h = rng.normal(size=50), rng.uniform(0.0, 0.25, size=50)
        for lam in (1e-12, 0.5, 1.0):
            G, H = g.sum(), h.sum()
            GL, HL = np.cumsum(g)[:-1], np.cumsum(h)[:-1]
            GR, HR = G - GL, H - HL
            gain = GL**2 / (HL + lam) + GR**2 / (HR + lam) - G * G / (H + lam)
            values = _gain_loss(G, H, lam, 50, 1)([GL, HL], np.arange(1, 50))
            assert values.tobytes() == (-(0.5 * gain)).tobytes()
            score = GainCriterion(g > 0, g, h, lam, 1).node(np.arange(50))[0]
            assert score == float(-G / (H + lam))

    def test_a_side_short_of_min_samples_leaf_is_an_infinite_loss(self):
        rng = np.random.default_rng(9)
        g, h = rng.normal(size=8), rng.uniform(0.05, 0.25, size=8)
        left = [np.cumsum(g)[:-1], np.cumsum(h)[:-1]]
        n_left = np.arange(1, 8)
        free = _gain_loss(g.sum(), h.sum(), 1.0, 8, 1)(left, n_left)
        assert np.isfinite(free).all()
        # 3 rows a side: the left is short at 1 and 2 rows, the right at 6 and 7
        held = _gain_loss(g.sum(), h.sum(), 1.0, 8, 3)(left, n_left)
        assert held[[0, 1, 5, 6]].tolist() == [np.inf] * 4
        assert held[2:5].tobytes() == free[2:5].tobytes()

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_node_of_fewer_than_two_rows_is_not_searched(self, n):
        g, h = np.array([0.5, -0.5]), np.array([0.25, 0.25])
        criterion = GainCriterion(np.array([1.0, 0.0]), g, h, 1.0, 1)
        assert criterion.node(np.arange(n))[3] is None
        assert criterion.node(np.arange(2))[3] is not None

    def test_an_empty_leaf_scores_zero(self):
        # (a + b) / 2 rounds to b, so a split sends every row left and the
        # right leaf is empty: with l2 0 its H + l2 is 0, so it scores 0
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        X = np.array([[a], [b]] * 3)
        y = np.array([0.0, 1.0] * 3)
        cfg = ModelConfig.for_family("xgb", rounds=2, l2=0.0, max_depth=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = fit_model(X, y, cfg)
            empty = [t.score[t.n == 0] for t in m.model.trees]
            assert all(len(e) and not e.any() for e in empty)
            assert "NaN" not in model_to_json(m)
            assert m.predict_proba(np.array([[2.0]])).tolist() == [0.5]


# (X, y) of a wrong shape
SHAPE_FAULTS = {
    "1-d-X": (np.arange(6.0), np.array([0, 1] * 3)),
    "X-longer": (np.arange(20.0).reshape(10, 2), np.array([0, 1] * 3)),
    "X-shorter": (np.arange(12.0).reshape(6, 2), np.array([0, 1] * 5)),
    "2-d-y": (np.arange(12.0).reshape(6, 2), np.array([[0], [1]] * 3)),
}


class TestContract:
    def test_model_config_is_frozen(self):
        cfg = lr_cfg()
        assert cfg.name == "LR"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.iterations = 2.5
        assert cfg.iterations == 500

    def test_classify_rules(self):
        assert classify([0.4, 0.6], 0.5).tolist() == [0, 1]
        assert classify([0.5], 0.5).tolist() == [1]  # >= rule
        assert classify([0.6], 0.99).tolist() == [0]
        for bad in (1.5, 0.0, "0.5"):
            with pytest.raises(ValidationError) as info:
                classify([0.6], bad)
            assert info.value.path == "threshold"

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        for family in ("lr", "dt", "rf", "xgb"):
            cfg = ModelConfig.for_family(family, **({"n_trees": 5} if family == "rf" else {}))
            if family == "xgb":
                cfg = ModelConfig.for_family(family, rounds=5)
            p = fit_model(X, y, cfg).predict_proba(X)
            assert np.all((p >= 0) & (p <= 1)) and np.all(np.isfinite(p))

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = fit_model(X, [0, 1], lr_cfg())
        with pytest.raises(DimensionMismatch):
            m.predict_proba(np.zeros((2, 3)))

    @pytest.mark.parametrize("case", list(SHAPE_FAULTS))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_fit_needs_2d_x_and_one_label_per_row(self, family, case):
        X, y = SHAPE_FAULTS[case]
        with pytest.raises(DimensionMismatch):
            fit_model(X, y, ModelConfig.for_family(family))

    def test_the_input_checks_run_in_order_and_copy_no_float64_array(self):
        X, y = np.array([[0.0, np.nan], [1.0, 2.0]]), np.array([0.0, 3.0])
        faults = [
            (NonFiniteFeature, X, y[:1]),
            (DimensionMismatch, X[:0], y),
            (EmptyInput, X[:0], y[:0]),
            (NonFiniteFeature, X, y),
            (LabelOutOfRange, np.nan_to_num(X), y),
        ]
        for error, X_case, y_case in faults:
            with pytest.raises(error):
                check_fit_inputs(X_case, y_case)
        X_ok, y_ok = np.nan_to_num(X), y / 3
        X_out, y_out = check_fit_inputs(X_ok, y_ok)
        assert X_out is X_ok and y_out is y_ok
        X_out, y_out = check_fit_inputs(X_ok.astype(np.float32), [0, 1])
        assert X_out.dtype == y_out.dtype == np.float64
        assert FeatureMatrix(("a", "b"), X_ok).values is X_ok

    @pytest.mark.parametrize(
        "family, overrides",
        [
            ("rf", dict(n_trees=5, seed=3, feature_subset_size=2)),
            ("xgb", dict(rounds=5)),
        ],
    )
    def test_json_of_a_numpy_integer_config(self, family, overrides):
        # README: numpy integers are accepted where a number is
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        as_numpy = {key: np.int64(value) for key, value in overrides.items()}
        text = model_to_json(fit_model(X, y, ModelConfig.for_family(family, **as_numpy)))
        assert text == model_to_json(fit_model(X, y, ModelConfig.for_family(family, **overrides)))


# The keys each family's fitter reads, besides `name` and `threshold`.
FAMILY_KEYS = {
    "lr": ("learning_rate", "iterations", "l2", "tolerance"),
    "dt": ("max_depth", "min_samples_leaf"),
    "rf": ("n_trees", "max_depth", "min_samples_leaf", "bootstrap", "feature_subset_size", "seed"),
    "xgb": ("rounds", "learning_rate", "max_depth", "l2", "min_samples_leaf"),
}
# a valid value of each key, the default of some family that has it
VALID = dict(
    learning_rate=0.1, iterations=500, l2=1e-4, tolerance=1e-6, max_depth=8, min_samples_leaf=5,
    n_trees=100, bootstrap=True, feature_subset_size=None, seed=0, rounds=100,
)
STRAY_KEYS = [(f, k) for f in FAMILY_KEYS for k in VALID if k not in FAMILY_KEYS[f]]
# small fits, so that every knob below is cheap to turn
SMALL = {"lr": dict(iterations=20), "rf": dict(n_trees=3), "xgb": dict(rounds=3)}
# a value other than the SMALL config's for every key
KNOBS = dict(
    learning_rate=0.5, iterations=3, l2=0.5, tolerance=10.0, max_depth=1, min_samples_leaf=60,
    n_trees=2, bootstrap=False, feature_subset_size=1, seed=7, rounds=2,
)


def _knob_data():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=200) > 0.3).astype(int)
    return X, y


class TestFamilyConfigs:
    def test_each_family_takes_exactly_the_keys_its_fitter_reads(self):
        for family, keys in FAMILY_KEYS.items():
            cfg = ModelConfig.for_family(family)
            assert cfg.family == family
            assert [f.name for f in dataclasses.fields(cfg)] == ["name", "threshold", *keys]
        # family, name and threshold, and the fitter's keys: 7 + 5 + 9 + 8
        assert sum(3 + len(keys) for keys in FAMILY_KEYS.values()) == 29
        assert len(STRAY_KEYS) == 27

    def test_no_config_carries_another_familys_defaults(self):
        with pytest.raises(TypeError):
            ModelConfig(family="xgb")
        with pytest.raises(ValidationError) as exc:
            ModelConfig()
        assert exc.value.path == "family"
        for family in FAMILY_KEYS:
            cfg = ModelConfig.for_family(family)
            assert type(cfg)() == cfg
            with pytest.raises(TypeError):
                type(cfg)(family="lr")

    @pytest.mark.parametrize("family, key", STRAY_KEYS)
    def test_a_key_outside_the_family_is_rejected(self, family, key):
        with pytest.raises(ValidationError) as exc:
            ModelConfig.for_family(family, **{key: VALID[key]})
        assert exc.value.path == key
        assert family in exc.value.message

    @pytest.mark.parametrize("family, key", [(f, k) for f, keys in FAMILY_KEYS.items() for k in keys])
    def test_every_key_changes_the_fitted_model(self, family, key):
        X, y = _knob_data()
        base = ModelConfig.for_family(family, **SMALL.get(family, {}))
        turned = dataclasses.replace(base, **{key: KNOBS[key]})
        assert getattr(base, key) != KNOBS[key]
        before, after = fit_model(X, y, base), fit_model(X, y, turned)
        assert model_to_json(after) != model_to_json(before)
        # not only a value the model stores: the fit itself changed
        assert not np.array_equal(after.predict_proba(X), before.predict_proba(X))

    @pytest.mark.parametrize("family", list(FAMILY_KEYS))
    def test_threshold_changes_the_labels(self, family):
        X, y = _knob_data()
        base = ModelConfig.for_family(family, **SMALL.get(family, {}))
        turned = dataclasses.replace(base, threshold=0.2)
        probs = fit_model(X, y, base).predict_proba(X)
        assert not np.array_equal(classify(probs, turned.threshold), classify(probs, base.threshold))


def _with_label(label):
    def bad(X, y):
        y[5] = label
        return X, y

    return bad


def _nan_feature(X, y):
    X[9, 1] = np.nan
    return X, y


# bad fit inputs: a callable making one from good (X, y), and the error every fitter raises
BAD_INPUTS = {
    "label-2": (_with_label(2.0), LabelOutOfRange),
    "label-nan": (_with_label(np.nan), LabelOutOfRange),
    "feature-nan": (_nan_feature, NonFiniteFeature),
    "X-one-row-longer": (lambda X, y: (X, y[:-1]), DimensionMismatch),
}


class TestFitModels:
    """fit_models gives what fit_model gives, whether it forks or not."""

    @staticmethod
    def _digests(fitted):
        return [hashlib.sha256(model_to_json(f).encode()).hexdigest() for f in fitted]

    def test_tree_goldens(self, fit_cpus):
        X, y = _tied_data()
        names = TIED_GOLDEN
        fitted = fit_models(X, y, [ModelConfig.for_family(**GOLDEN[n][0]) for n in names])
        assert self._digests(fitted) == [GOLDEN[n][1] for n in names]

    def test_lr_goldens(self, fit_cpus):
        X, y = TestLogistic._scaled_data()
        cases = [c for c in LR_GOLDEN if c[1] == X.shape[1]]
        fitted = fit_models(X, y, [lr_cfg(**overrides) for overrides, *_ in cases])
        assert self._digests(fitted) == [digest for *_, digest in cases]

    def test_killed_child_is_replaced_by_the_parent(self, on_child_unit, monkeypatch):
        monkeypatch.setattr(fanout, "allowed_cpus", lambda: 2)
        started = on_child_unit(on_child=lambda cfg: os.kill(os.getpid(), signal.SIGKILL))
        X, y = _tied_data()
        names = TIED_GOLDEN
        fitted = fit_models(X, y, [ModelConfig.for_family(**GOLDEN[n][0]) for n in names])
        assert started.exists()
        assert self._digests(fitted) == [GOLDEN[n][1] for n in names]

    def test_the_parent_fits_no_unit_its_children_return(self, monkeypatch):
        # which units a worker gets depends on timing; the parent takes none,
        # so its peak memory does not change from one run to the next
        parent, in_parent = os.getpid(), []

        def wrap(unit, at):
            def wrapped(*args):
                if os.getpid() == parent:
                    in_parent.append(args[at].family)
                return unit(*args)

            return wrapped

        monkeypatch.setattr(fanout, "allowed_cpus", lambda: 2)
        monkeypatch.setattr(fanout, "fit_model", wrap(fanout.fit_model, 2))  # (X, y, cfg)
        monkeypatch.setattr(fanout, "grow_tree", wrap(fanout.grow_tree, 1))  # (y, cfg, plan, i)
        X, y = _tied_data()
        names = TIED_GOLDEN
        fitted = fit_models(X, y, [ModelConfig.for_family(**GOLDEN[n][0]) for n in names])
        assert in_parent == []
        assert self._digests(fitted) == [GOLDEN[n][1] for n in names]

    @pytest.mark.parametrize("fit_cpus", ["2cpu"], indirect=True)
    def test_the_children_send_back_a_deep_tree(self, fit_cpus, monkeypatch):
        # a 599-level tree must pickle, or the parent fits it again itself
        parent, in_parent = os.getpid(), []

        def recorded(X, y, cfg):
            if os.getpid() == parent:
                in_parent.append(cfg.name)
            return fit_model(X, y, cfg)

        monkeypatch.setattr(fanout, "fit_model", recorded)
        X, y = _staircase(600)
        cfgs = [
            ModelConfig.for_family("dt", max_depth=None, min_samples_leaf=1),
            lr_cfg(iterations=5),
        ]
        fitted = fit_models(X, y, cfgs)
        assert in_parent == []
        assert self._digests(fitted) == self._digests([fit_model(X, y, c) for c in cfgs])

    def test_interrupt_kills_and_reaps_a_busy_child(self, on_child_unit, monkeypatch, tmp_path):
        # the children sleep in their units; the first to start one interrupts
        # the parent, which is waiting for their results
        interrupted = tmp_path / "interrupted"

        def interrupt(cfg):
            try:
                interrupted.touch(exist_ok=False)
            except FileExistsError:
                pass
            else:
                os.kill(os.getppid(), signal.SIGINT)
            time.sleep(60)

        monkeypatch.setattr(fanout, "allowed_cpus", lambda: 2)
        on_child_unit(on_child=interrupt)
        X, y = _tied_data()
        # a process started with SIGINT ignored (a background job) would never
        # see the interrupt, so the test installs Python's handler itself
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        begun = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                fit_models(X, y, [ModelConfig.for_family("rf", n_trees=8)])
        finally:
            signal.signal(signal.SIGINT, previous)
        assert interrupted.exists()
        assert time.monotonic() - begun < 30

    @pytest.mark.parametrize("fault", list(BAD_INPUTS))
    def test_each_bad_input_gives_every_slot_the_error_of_its_fitter(self, fit_cpus, fault):
        # the forest fails in check_fit_inputs before any fork, the others in their units
        make, raised = BAD_INPUTS[fault]
        X, y = _tied_data()
        X, y = make(X, y.astype(float))
        cfgs = [ModelConfig.for_family(f) for f in ("lr", "dt", "rf", "xgb")]
        fitters = [fit_logistic, fit_tree, fit_forest, fit_gbt]
        fitted = fit_models(X, y, cfgs)
        assert len(fitted) == len(cfgs)
        for cfg, fitter, error in zip(cfgs, fitters, fitted):
            with pytest.raises(raised) as expected:
                fit_model(X, y, cfg)
            assert (type(error), str(error)) == (raised, str(expected.value))
            with pytest.raises(raised):
                fitter(X, y, cfg)

    @pytest.mark.parametrize("case", ["one unit", "one cpu", "no affinity", "threads"])
    def test_in_process_cases_never_fork(self, case, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(fanout.os, "fork", refuse)
        if case == "no affinity":
            monkeypatch.delattr(fanout.os, "sched_getaffinity")
        else:
            monkeypatch.setattr(fanout, "allowed_cpus", lambda: 1 if case == "one cpu" else 2)
        X, y = _tied_data()
        cfgs = [ModelConfig.for_family("dt"), ModelConfig.for_family("xgb", rounds=2)]
        if case == "one unit":
            cfgs = cfgs[:1]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        if case == "threads":
            waiter.start()
        try:
            fitted = fit_models(X, y, cfgs)
        finally:
            release.set()
            if case == "threads":
                waiter.join(timeout=10)
        assert self._digests(fitted) == self._digests([fit_model(X, y, c) for c in cfgs])

    def test_refused_fork_fits_in_process(self, monkeypatch):
        def refuse():
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(fanout.os, "fork", refuse)
        monkeypatch.setattr(fanout, "allowed_cpus", lambda: 2)
        X, y = _tied_data()
        fitted = fit_models(X, y, [ModelConfig.for_family(**GOLDEN["rf-bootstrap"][0])])
        assert self._digests(fitted) == [GOLDEN["rf-bootstrap"][1]]

    def test_refused_result_pipe_fits_in_process(self, monkeypatch):
        # the queue pipe opens; the first child's result pipe is refused, so
        # nothing is forked and the calling process fits the forest whole
        pipe, opened = os.pipe, []

        def first_only():
            if opened:
                raise OSError("no pipe")
            opened.append(pipe())
            return opened[-1]

        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(fanout.os, "pipe", first_only)
        monkeypatch.setattr(fanout.os, "fork", refuse)
        monkeypatch.setattr(fanout, "allowed_cpus", lambda: 2)
        X, y = _tied_data()
        fitted = fit_models(X, y, [ModelConfig.for_family(**GOLDEN["rf-bootstrap"][0])])
        assert len(opened) == 1
        assert self._digests(fitted) == [GOLDEN["rf-bootstrap"][1]]

    def test_more_units_than_queue_slots(self, monkeypatch):
        # a 16-byte pipe holds two queue items, so each item carries several units
        monkeypatch.setattr(fanout, "allowed_cpus", lambda: 2)
        monkeypatch.setattr(fanout.fcntl, "fcntl", lambda fd, op: 16)
        X, y = _tied_data()
        names = TIED_GOLDEN
        fitted = fit_models(X, y, [ModelConfig.for_family(**GOLDEN[n][0]) for n in names])
        assert self._digests(fitted) == [GOLDEN[n][1] for n in names]
