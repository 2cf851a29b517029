"""Gradient-boosted trees: exact greedy second-order splits on log-loss.

Per round, with p = sigmoid(raw score): g = p - y, h = p(1-p). Leaves take
-G/(H + lambda); a split is accepted only with strictly positive gain
0.5 * [G_L^2/(H_L+l) + G_R^2/(H_R+l) - (G_L+G_R)^2/(H_L+H_R+l)].

Splits come from tree.py's shared search over the rank codes computed once
per fit, with (g, h) as the row statistics and the negated gain as the loss;
min_samples_leaf drops candidates with a smaller side. Each round's training
contributions are the leaf values written at the rows each leaf received while
the tree grew, and scoring new rows uses tree.py's shared descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput, NonFiniteScore
from .logistic import sigmoid
from .tree import TreeNode, best_split, gini_impurity, rank_codes, tree_predict

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


def _leaf_value(G, H, lam):
    return -G / (H + lam)


def _gain_loss(G, H, lam):
    """Negated second-order gain of each candidate split of a node with sums G, H."""
    parent = G * G / (H + lam)

    def loss(left, total, n_left):
        GL, HL = left
        GR = G - GL
        HR = H - HL
        return -(0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent))

    return loss


def _grow_gain_tree(X, codes, y01, g, h, rows, depth, cfg, contrib):
    """Grow a subtree over X[rows]; write each leaf's value to contrib at its rows."""
    g_node, h_node = g[rows], h[rows]
    G, H = g_node.sum(), h_node.sum()
    node = TreeNode(
        score=float(_leaf_value(G, H, cfg.l2)),
        gini=gini_impurity(y01[rows]),
        n_samples=len(rows),
    )
    found = None
    if cfg.max_depth is None or depth < cfg.max_depth:
        feats = np.arange(X.shape[1])
        loss = _gain_loss(G, H, cfg.l2)
        found = best_split(X, codes, rows, feats, (g_node, h_node), loss, cfg.min_samples_leaf)
    if found is None or -found[0] <= 0.0:  # a split needs strictly positive gain
        contrib[rows] = node.score
        return node
    _, feature, threshold = found
    mask = X[rows, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow_gain_tree(X, codes, y01, g, h, rows[mask], depth + 1, cfg, contrib)
    node.right = _grow_gain_tree(X, codes, y01, g, h, rows[~mask], depth + 1, cfg, contrib)
    return node


def fit_gbt(X, y, cfg):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise EmptyInput("cannot fit boosted trees on zero rows")
    codes = rank_codes(X)
    rows = np.arange(len(y))
    base = logit(min(max(float(y.mean()), _EPS), 1.0 - _EPS))
    raw = np.full(len(y), base)
    contrib = np.empty(len(y))
    trees = []
    for _ in range(cfg.rounds):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_gain_tree(X, codes, y, g, h, rows, 0, cfg, contrib)
        raw = raw + cfg.learning_rate * contrib
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
    X = np.asarray(X, dtype=np.float64)
    raw = np.full(len(X), model.base_score)
    for tree in model.trees:
        raw = raw + model.learning_rate * tree_predict(tree, X)
    return raw


def gbt_predict_proba(model, X):
    return sigmoid(gbt_raw_score(model, X))
