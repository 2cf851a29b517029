"""CART classification trees, and the exact greedy engine that CART, the random
forest and the boosted trees share.

Fitting is exact greedy split finding (Algorithm 1 of Chen & Guestrin 2016):

- `rank_codes` codes each feature column once per fit as the rank of its
  value among the column's distinct values. A stable argsort of the codes
  orders a node's rows exactly as a stable argsort of the values would, and
  numpy radix-sorts 16-bit keys.
- `best_split` is the one split search. Per node and per block of features it
  stable-argsorts the node's codes, takes the cumulative sums of the node's
  row statistics in that order, and evaluates the split criterion only where
  the code changes. CART minimises the weighted child Gini; boosting.py
  minimises the negated second-order gain.
- Candidate thresholds are midpoints between consecutive distinct values of a
  feature, read from X at the two rows either side of the boundary. The first
  optimum in (feature, position) order wins: ties break to the lowest feature
  index, then the lowest threshold, so growth is reproducible across
  platforms.
- A split sends a row left iff its value is <= the threshold, in fitting and
  in prediction alike.

Prediction has one routine, `tree_predict`: it flattens a tree breadth-first
into arrays, with a node's two children adjacent, and moves all rows down one
level at a time for as many levels as the tree has. Forests and boosted models
call it once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput, NonFiniteFeature

# Features searched together in one node: it bounds the size of the
# (features, rows) arrays that one search holds at a time.
_BLOCK = 8


@dataclass
class TreeNode:
    score: float  # leaf: class-1 probability (or raw value for boosted trees)
    gini: float
    n_samples: int
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self):
        return self.left is None

    def walk(self):
        yield self
        if not self.is_leaf:
            yield from self.left.walk()
            yield from self.right.walk()


def gini_impurity(y):
    n = len(y)
    if n == 0:
        return 0.0
    p = float(np.sum(y)) / n
    return 2.0 * p * (1.0 - p)


def rank_codes(X):
    """(n_features, n_rows) codes: codes[f, i] is the rank of X[i, f] among the
    distinct values of column f. uint16 unless a column has more than 65536
    distinct values."""
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("tree models need finite feature values (found NaN or inf)")
    codes = np.empty((X.shape[1], X.shape[0]), dtype=np.uint16)
    for f in range(X.shape[1]):
        distinct, inverse = np.unique(X[:, f], return_inverse=True)
        if len(distinct) > 1 << 16 and codes.dtype == np.uint16:
            codes = codes.astype(np.uint32)
        codes[f] = inverse
    return codes


def best_split(X, codes, rows, feats, stats, loss, min_samples_leaf):
    """(loss, feature, threshold) of the first split minimising `loss`, or None.

    rows: the node's row indices into X and codes, in the node's row order
    (ties in a feature keep this order). stats: per-row statistics of the
    node, each aligned with rows. loss(left, total, n_left) gets, at every
    candidate, the cumulative sum of each statistic over the left rows and over
    all the node's rows, both summed in the candidate feature's sorted order,
    and the left row count; it returns the loss to minimise.

    Candidates leaving fewer than min_samples_leaf rows on a side are dropped,
    and so is a feature with no candidate left. A feature whose losses include
    NaN is skipped, unless it is the first feature with a candidate: then its
    first NaN candidate is the split, as a running strict-less minimum seeded
    with it would decide.
    """
    n = len(rows)
    if n < 2:
        return None
    best = None  # (loss, feature, last row on the left, first row on the right)
    for start in range(0, len(feats), _BLOCK):
        block = feats[start : start + _BLOCK]
        node_codes = np.take(codes, block[:, None] * codes.shape[1] + rows)
        order = np.argsort(node_codes, axis=1, kind="stable")
        sorted_codes = np.take(node_codes, order + np.arange(0, node_codes.size, n)[:, None])
        # (feature, position) pairs where the code changes, in that order
        fi, at = np.divmod(np.flatnonzero(sorted_codes[:, 1:] != sorted_codes[:, :-1]), n - 1)
        n_left = at + 1
        if min_samples_leaf > 1:
            keep = (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
            fi, at, n_left = fi[keep], at[keep], n_left[keep]
        if len(at) == 0:
            continue
        cums = [np.cumsum(s[order], axis=1) for s in stats]
        values = loss([c[fi, at] for c in cums], [c[fi, -1] for c in cums], n_left)
        nan = np.isnan(values)
        locked = False  # a NaN that seeds the running minimum: no loss is < NaN
        if nan.any():
            locked = best is None and bool(nan[fi == fi[0]].any())
            if not locked:
                keep = ~np.isin(fi, fi[nan])
                if not keep.any():
                    continue
                fi, at, values = fi[keep], at[keep], values[keep]
        j = int(np.argmin(values))  # first minimum; the first NaN when locked
        if best is None or values[j] < best[0]:
            f, pos = fi[j], at[j]
            best = (float(values[j]), int(block[f]), order[f, pos], order[f, pos + 1])
        if locked:
            break
    if best is None:
        return None
    value, feature, lo, hi = best
    threshold = (X[rows[lo], feature] + X[rows[hi], feature]) / 2.0
    return value, feature, float(threshold)


def _gini_loss(n):
    def loss(left, total, n_left):
        pos_left = left[0]
        pos_right = total[0] - pos_left
        n_right = n - n_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        return (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n

    return loss


def grow_cart(X, codes, y, rows, depth, cfg, rng, feature_subset_size):
    """Grow a CART subtree over X[rows] depth-first. With a feature_subset_size,
    each split searches that many features drawn from rng, in preorder; with
    None it searches them all and rng is not used."""
    n = len(rows)
    y_node = y[rows]
    node_gini = gini_impurity(y_node)
    score = float(np.mean(y_node)) if n else 0.0
    node = TreeNode(score=score, gini=node_gini, n_samples=n)
    if (
        node_gini == 0.0
        or n < cfg.min_samples_leaf
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
    ):
        return node

    n_features = X.shape[1]
    if feature_subset_size is not None and feature_subset_size < n_features:
        feats = np.sort(rng.choice(n_features, size=feature_subset_size, replace=False))
    else:
        feats = np.arange(n_features)

    # Known defect: the Gini search ignores min_samples_leaf (pinned by a
    # strict xfail test); the fix changes reports and lands on its own.
    found = best_split(X, codes, rows, feats, (y_node,), _gini_loss(n), 1)
    if found is None:
        return node
    child_gini, feature, threshold = found
    if child_gini >= node_gini:  # no strict impurity reduction
        return node
    mask = X[rows, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = grow_cart(X, codes, y, rows[mask], depth + 1, cfg, rng, feature_subset_size)
    node.right = grow_cart(X, codes, y, rows[~mask], depth + 1, cfg, rng, feature_subset_size)
    return node


def fit_tree(X, y, cfg):
    """Grow a CART tree over every feature; leaf score is the positive-label fraction."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise EmptyInput("cannot fit a tree on zero rows")
    rows = np.arange(len(y))
    return grow_cart(X, rank_codes(X), y, rows, 0, cfg, None, None)


def _flatten(root):
    """Breadth-first arrays (feature, threshold, child, score) and the depth.

    The children of an internal node i are adjacent: child[i] on the left and
    child[i] + 1 on the right. A leaf points at a pair of copies of itself
    appended after the tree, whose children are that same pair, so a row that
    reaches a leaf keeps its score for the rest of the walk."""
    nodes, depth, level = [root], 0, [root]
    while True:
        level = [c for n in level if not n.is_leaf for c in (n.left, n.right)]
        if not level:
            break
        nodes.extend(level)
        depth += 1
    leaves = [i for i, n in enumerate(nodes) if n.is_leaf]
    size = len(nodes) + 2 * len(leaves)
    feature = np.zeros(size, dtype=np.intp)
    threshold = np.zeros(size, dtype=np.float64)
    child = np.empty(size, dtype=np.intp)
    score = np.empty(size, dtype=np.float64)
    first = 1  # the next free position for a pair of children
    for i, node in enumerate(nodes):
        score[i] = node.score
        if not node.is_leaf:
            feature[i], threshold[i], child[i] = node.feature, node.threshold, first
            first += 2
    sinks = np.arange(len(nodes), size, 2)
    child[leaves] = sinks
    child[sinks] = child[sinks + 1] = sinks
    score[sinks] = score[sinks + 1] = score[leaves]
    return feature, threshold, child, score, depth


def tree_predict(node, X):
    """Leaf score of every row of X. A row goes left iff X[row, feature] <=
    threshold, so a NaN value goes right. Every row takes one step per level
    of the tree, gathering its feature value from X's row-major buffer."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    feature, threshold, child, score, depth = _flatten(node)
    cells = X.ravel()
    row_start = np.arange(len(X)) * X.shape[1]
    at = np.zeros(len(X), dtype=np.intp)
    for _ in range(depth):
        go_right = ~(cells[row_start + feature[at]] <= threshold[at])
        at = child[at] + go_right
    return score[at]
