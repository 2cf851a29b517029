"""Gradient-boosted trees: exact greedy second-order splits on log-loss.

Per round, with p = sigmoid(raw score): g = p - y, h = p(1-p). Leaves take
-G/(H + lambda); a split is accepted only with strictly positive gain
0.5 * [G_L^2/(H_L+l) + G_R^2/(H_R+l) - (G_L+G_R)^2/(H_L+H_R+l)].

With lambda 0, once sigmoid(raw) saturates to exactly 0 or 1, a node's H can
be 0. As in XGBoost's CalcWeight and CalcGain (`src/tree/param.h`), a leaf
value or gain term whose H + lambda is exactly 0 (of either sign) is 0, so
no division by zero is left. A gain can still be NaN when a term overflows
to inf at lambda near 1e-308; its loss is +inf, so it is never picked, and
the loss handed to the split search is never NaN.

Each round's tree comes from tree.py's one grower over the codes computed
once per fit (`fit_codes`), with `GainCriterion`: (g, h) are the row
statistics and the negated gain is the loss, +inf for a candidate that
leaves fewer than min_samples_leaf rows on a side. Each round's training
contributions are read from the grower: it records the leaf of every
training row as it writes that leaf, by the same `<=` test (read from the
codes) as `tree_predict`, so the leaf's score is what `tree_predict` of the
tree gives that row, and a fit reads X only in `fit_codes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput, NonFiniteScore
from .logistic import sigmoid
from .tree import fit_codes, gini_impurity, grow, tree_predict

_EPS = 1e-6


def logit(p):
    return math.log(p / (1.0 - p))


@dataclass
class BoostedModel:
    base_score: float  # initial raw log-odds
    trees: list
    learning_rate: float
    l2_lambda: float
    rounds: int


def _ratio(num, den):
    """num / den, and 0 where den is exactly 0."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)


def _gain_loss(G, H, lam, n, min_samples_leaf):
    """Negated second-order gain of each candidate split of a node with sums G,
    H over n rows; +inf where the gain is NaN or a side has fewer than
    min_samples_leaf rows."""
    parent = _ratio(G * G, H + lam)

    def loss(left, n_left):
        GL, HL = left
        GR = G - GL
        HR = H - HL
        values = -(0.5 * (_ratio(GL**2, HL + lam) + _ratio(GR**2, HR + lam) - parent))
        short = (n_left < min_samples_leaf) | (n - n_left < min_samples_leaf)
        values[np.isnan(values) | short] = np.inf
        return values

    return loss


class GainCriterion:
    """Boosting's rules for tree.py's `grow`: the row statistics are (g, h), a
    leaf scores -G/(H + l2) (0 where H + l2 is 0), every node of at least two
    rows within the depth limit is searched, and a split needs strictly
    positive gain. A node's gini is that of its labels y."""

    def __init__(self, y, g, h, l2, min_samples_leaf):
        self.y, self.g, self.h, self.l2 = y, g, h, l2
        self.min_samples_leaf = min_samples_leaf

    def node(self, rows):
        """(score, gini, row statistics, loss) of the node holding rows."""
        g_node, h_node = self.g[rows], self.h[rows]
        G, H = g_node.sum(), h_node.sum()
        score = float(_ratio(-G, H + self.l2))
        n = len(rows)
        loss = None if n < 2 else _gain_loss(G, H, self.l2, n, self.min_samples_leaf)
        return score, gini_impurity(self.y[rows]), (g_node, h_node), loss

    def accepts(self, loss, gini):
        return -loss > 0.0


def fit_gbt(X, y, cfg):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise EmptyInput("cannot fit boosted trees on zero rows")
    codes = fit_codes(X, X.shape[1])
    rows = np.arange(len(y))
    leaf = np.empty(len(y), dtype=np.intp)  # each row's leaf in this round's tree
    base = logit(min(max(float(y.mean()), _EPS), 1.0 - _EPS))
    raw = np.full(len(y), base)
    trees = []
    # with l2 near 1e-308, G^2/(H + l2) can overflow to inf, and so can the
    # raw scores; inf - inf gains are NaN. NonFiniteScore reports such a fit.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.rounds):
            p = sigmoid(raw)
            g = p - y
            h = p * (1.0 - p)
            criterion = GainCriterion(y, g, h, cfg.l2, cfg.min_samples_leaf)
            tree = grow(codes, rows, criterion, cfg.max_depth, leaf=leaf)
            raw = raw + cfg.learning_rate * tree.score[leaf]
            if not np.all(np.isfinite(raw)):
                raise NonFiniteScore("boosted raw scores became non-finite")
            trees.append(tree)
    return BoostedModel(
        base_score=base,
        trees=trees,
        learning_rate=cfg.learning_rate,
        l2_lambda=cfg.l2,
        rounds=cfg.rounds,
    )


def gbt_raw_score(model, X):
    X = np.ascontiguousarray(X, dtype=np.float64)  # converted once, not per tree
    raw = np.full(len(X), model.base_score)
    for tree in model.trees:
        raw = raw + model.learning_rate * tree_predict(tree, X)
    return raw


def gbt_predict_proba(model, X):
    return sigmoid(gbt_raw_score(model, X))
