"""Bagged random forest over the CART trees in tree.py.

Each tree gets its own RNG stream spawned from the forest seed, a bootstrap
resample (when enabled), and a fresh sqrt-sized feature subset at every split.
The features are coded once per forest (`fit_codes`); a bootstrap sample is
an array of row indices into the codes, not a copy of the rows. Subsets of
fewer than tree.py's `_BLOCK` (8) features never take the split search's
two-valued path, so the codes of such a forest hold no matrix for it.

`plan_forest` does the per-forest work and `grow_tree` grows one tree from
it, so a caller can grow the trees of one plan in any order or process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput
from .tree import Codes, GiniCriterion, fit_codes, grow, tree_predict


@dataclass
class ForestModel:
    trees: list
    feature_subset_size: int
    bootstrap: bool
    seed: int


@dataclass
class ForestPlan:
    """What every tree of one forest shares: the feature codes, the subset
    size and one spawned seed stream per tree."""

    codes: Codes
    feature_subset_size: int
    streams: list


def plan_forest(X, y, cfg):
    """The ForestPlan of fitting cfg's forest on float64 arrays X, y."""
    if len(y) == 0:
        raise EmptyInput("cannot fit a forest on zero rows")
    subset = cfg.feature_subset_size
    if subset is None:
        subset = max(1, math.ceil(math.sqrt(X.shape[1])))
    codes = fit_codes(X, subset)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    return ForestPlan(codes=codes, feature_subset_size=subset, streams=streams)


def grow_tree(y, cfg, plan, i):
    """Tree i of the forest: stream i draws the bootstrap rows, then every
    split's feature subset."""
    rng = np.random.default_rng(plan.streams[i])
    if cfg.bootstrap:
        rows = rng.integers(len(y), size=len(y))
    else:
        rows = np.arange(len(y))
    criterion = GiniCriterion(y, cfg.min_samples_leaf)
    return grow(plan.codes, rows, criterion, cfg.max_depth, rng, plan.feature_subset_size)


def forest_model(cfg, plan, trees):
    """The ForestModel holding trees, which are in tree index order."""
    return ForestModel(
        trees=list(trees),
        feature_subset_size=plan.feature_subset_size,
        bootstrap=cfg.bootstrap,
        seed=cfg.seed,
    )


def fit_forest(X, y, cfg):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    plan = plan_forest(X, y, cfg)
    return forest_model(cfg, plan, [grow_tree(y, cfg, plan, i) for i in range(cfg.n_trees)])


def forest_predict_proba(model, X):
    X = np.ascontiguousarray(X, dtype=np.float64)  # converted once, not per tree
    preds = np.stack([tree_predict(t, X) for t in model.trees])
    return preds.mean(axis=0)
