"""Bagged random forest over the CART trees in tree.py.

Each tree gets its own RNG stream spawned from the forest seed, a bootstrap
resample (when enabled), and a fresh sqrt-sized feature subset at every split.
The features are coded and the rows grouped once per forest (`fit_codes`,
`row_groups`). A bootstrap draw is row indices into the codes, not a copy of
the rows, and becomes a count per group of equal rows (`counted_rows`): the
tree grows over the groups drawn, each weighted by its copies, and is bit for
bit the tree grown over every drawn copy (tree.py says why). Subsets of
fewer than tree.py's `_BLOCK` (8) features never take the split search's
two-valued path, so the codes of such a forest hold no matrix for it.

`plan_forest` does the per-forest work and `grow_tree` grows one tree from
it, so a caller can grow the trees of one plan in any order or process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import check_fit_inputs
from .tree import Codes, GiniCriterion, counted_rows, fit_codes, grow, row_groups, tree_predict


@dataclass
class ForestModel:
    trees: list
    feature_subset_size: int
    bootstrap: bool
    seed: int


@dataclass
class ForestPlan:
    """What every tree of one forest shares: the feature codes, the row groups
    (`row_groups`), the subset size and one spawned seed stream per tree."""

    codes: Codes
    group: np.ndarray
    feature_subset_size: int
    streams: list


def plan_forest(X, y, cfg):
    """The ForestPlan of fitting cfg's forest on X, y that passed `check_fit_inputs`."""
    subset = cfg.feature_subset_size
    if subset is None:
        subset = max(1, math.ceil(math.sqrt(X.shape[1])))
    codes = fit_codes(X, subset)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    return ForestPlan(
        codes=codes, group=row_groups(codes, y), feature_subset_size=subset, streams=streams
    )


def grow_tree(y, cfg, plan, i):
    """Tree i of the forest: stream i draws the bootstrap rows, then every
    split's feature subset. The tree grows over the plan's groups of equal
    rows that the draw holds (every row without bootstrap), each weighted by
    its drawn copies (`counted_rows`)."""
    rng = np.random.default_rng(plan.streams[i])
    n = len(y)
    draw = rng.integers(n, size=n) if cfg.bootstrap else np.arange(n)
    rows, weight = counted_rows(plan.group, draw)
    criterion = GiniCriterion(y, weight, cfg.min_samples_leaf)
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
    X, y = check_fit_inputs(X, y)
    plan = plan_forest(X, y, cfg)
    return forest_model(cfg, plan, [grow_tree(y, cfg, plan, i) for i in range(cfg.n_trees)])


def forest_predict_proba(model, X):
    X = np.ascontiguousarray(X, dtype=np.float64)  # converted once, not per tree
    preds = np.stack([tree_predict(t, X) for t in model.trees])
    return preds.mean(axis=0)
