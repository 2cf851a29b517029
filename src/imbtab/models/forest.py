"""Bagged random forest over the CART trees in tree.py.

Each tree gets its own RNG stream spawned from the forest seed, a bootstrap
resample (when enabled), and a fresh sqrt-sized feature subset at every split.
The features are rank-coded once per forest; a bootstrap sample is an array
of row indices into X, not a copy of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput
from .tree import grow_cart, rank_codes, tree_predict


@dataclass
class ForestModel:
    trees: list
    feature_subset_size: int
    bootstrap: bool
    seed: int


def fit_forest(X, y, cfg):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise EmptyInput("cannot fit a forest on zero rows")
    subset = cfg.feature_subset_size
    if subset is None:
        subset = max(1, math.ceil(math.sqrt(X.shape[1])))
    codes = rank_codes(X)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    trees = []
    for ss in streams:
        rng = np.random.default_rng(ss)
        if cfg.bootstrap:
            rows = rng.integers(len(y), size=len(y))
        else:
            rows = np.arange(len(y))
        trees.append(grow_cart(X, codes, y, rows, 0, cfg, rng, subset))
    return ForestModel(trees=trees, feature_subset_size=subset, bootstrap=cfg.bootstrap, seed=cfg.seed)


def forest_predict_proba(model, X):
    preds = np.stack([tree_predict(t, X) for t in model.trees])
    return preds.mean(axis=0)
