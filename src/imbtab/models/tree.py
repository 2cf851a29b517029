"""CART classification trees, and the exact greedy engine that CART, the random
forest and the boosted trees share.

Fitting is exact greedy split finding (Algorithm 1 of Chen & Guestrin 2016):

- `fit_codes` is the fit's one read of X after `check_fit_inputs`: it codes
  each feature column as the rank of its value among the column's sorted
  distinct values, and keeps those. A stable argsort of the codes orders a
  node's rows exactly as a stable argsort of the values would, and numpy
  radix-sorts 16-bit keys. One-hot encoding makes most columns two-valued
  (codes 0 and 1); when some node of the fit can search _BLOCK of them,
  `fit_codes` also keeps their code-0 flags as a row-major (rows, features)
  bool matrix.
- `best_split` is the one split search. It evaluates the split criterion
  only where a feature's code changes in sorted order, given the sums of the
  node's row statistics over the rows on the left, each added one row at a
  time in that order. It finds them on two paths:
  - sorting: per block of features, stable-argsort the node's codes and take
    the cumulative sums of the statistics in that order;
  - two-valued, taken for a node's two-valued features when it searches at
    least _BLOCK of them: each has one candidate, its code-0 rows on the
    left, and the sums of a statistic are one `np.einsum("ij,i->j")` of the
    node's rows of the flag matrix with it, for all those features at once.
    Each product is the statistic times 0 or 1, so it is exact, and only the
    order of the adds could change the bits: einsum adds a row-major flag
    matrix one row at a time, in node row order, which is the cumsum's
    order, so the two paths give bit-identical losses. Below _BLOCK features
    the per-node calls cost more than the sort they save.
  CART minimises the weighted child Gini; boosting.py minimises the negated
  second-order gain.
- Candidate thresholds are midpoints between consecutive distinct values of a
  feature in the node: the values of the two codes either side of the
  boundary. The first optimum in (feature, position) order wins: ties break
  to the lowest feature index, then the lowest threshold, so growth is
  reproducible across platforms.
- A split sends a row left iff its value is <= the threshold, in fitting (read
  from the codes) and in prediction alike.

CART and the forest grow over counted rows (`row_groups`, `counted_rows`):
rows equal in every code and in the label form a group, and a tree grows over
one entry per group, its first row, weighted by the group's copies in the
tree's sample (the rows random oversampling repeats, and a bootstrap's
repeated draws). `GiniCriterion` sums y * weight and weight where it summed y
and counted rows. With every label 0 or 1 each such sum is an integer below
2**53, which float64 holds exactly whatever the order of the adds, so every
loss, tie, threshold and node, and with them a forest's feature draws, are bit
for bit those of growing over every copy; `Tree.n` and `min_samples_leaf`
count the copies. With any other label nothing is grouped: the tree grows over
every copy, each of weight 1, so its sums add the labels copy by copy.
Boosting does not group rows: its statistics g and h are floats, whose sums
would round differently added in another order or as products with a count.

`grow` is the one grower. It keeps the nodes still to split on an explicit
stack and pops the left child first, so it visits the nodes in preorder, draws
a forest's feature subsets from its generator in that order, and writes each
tree as a `Tree`: flat preorder arrays, with no recursion at any depth. A
criterion object supplies what differs between CART (`GiniCriterion`) and
boosting (boosting.py): the row statistics, the leaf value, the loss, a stop
test before the search and the rule that accepts the best split.

Prediction has one routine, `tree_predict`: it moves all rows down one level
at a time through the arrays, for as many levels as the tree has. Forests and
boosted models call it once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import check_fit_inputs

# Features searched together in one node: it bounds the size of the
# (features, rows) arrays that one search holds at a time. It is also the
# fewest two-valued features for which a node takes the two-valued path.
_BLOCK = 8


class Node(NamedTuple):
    """One node of a Tree, as Python numbers."""

    feature: int
    threshold: float
    score: float
    gini: float
    n_samples: int


@dataclass(frozen=True, eq=False)
class Tree:
    """A fitted tree as flat arrays over its nodes in preorder.

    Node 0 is the root. Internal node i sends a row left iff its value of
    feature[i] is <= threshold[i]; its left child is node i + 1 and its right
    child node right[i]. A leaf has feature -1, threshold 0.0 and right[i] == i.
    score is the leaf value (class-1 probability, or the raw value of a boosted
    tree; internal nodes keep theirs too), gini the Gini impurity of the node's
    training labels and n their count."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    score: np.ndarray
    gini: np.ndarray
    n: np.ndarray

    def walk(self):
        """Every node as a Node, in preorder."""
        columns = (self.feature, self.threshold, self.score, self.gini, self.n)
        return map(Node, *(c.tolist() for c in columns))

    def __eq__(self, other):
        """Node for node: a preorder of nodes that each say whether they are a
        leaf fixes the shape of the tree."""
        if not isinstance(other, Tree):
            return NotImplemented
        return list(self.walk()) == list(other.walk())

    # The cached properties below are computed once per tree, on first use;
    # they are not dataclass fields, so a model's JSON does not hold them.

    @cached_property
    def depth(self):
        """The number of levels below the root."""
        depth, level = 0, np.zeros(1, dtype=np.intp)
        while len(level := level[self.feature[level] >= 0]):
            level = np.concatenate([level + 1, self.right[level]])
            depth += 1
        return depth

    @cached_property
    def _step(self):
        """(feature, threshold) per node for `tree_predict`. A leaf compares
        column 0 with NaN, which no value is <=, so a row there goes right:
        to the leaf itself."""
        leaf = self.feature < 0
        return np.where(leaf, 0, self.feature), np.where(leaf, np.nan, self.threshold)


def gini_impurity(y):
    n = len(y)
    if n == 0:
        return 0.0
    p = float(np.sum(y)) / n
    return 2.0 * p * (1.0 - p)


class Codes(NamedTuple):
    """What the split searches of one fit read of its feature columns.

    rank: (n_features, n_rows) codes: rank[f, i] is the rank of X[i, f]
    among the distinct values of column f. uint16 unless a column has more
    than 65536 distinct values.
    values: per feature, its distinct values in ascending order, so that
    values[f][rank[f]] == X[:, f].
    column: per feature, its column in low, or -1.
    low: for the two-valued features (codes only 0 and 1), an (n_rows,
    n_two) bool matrix in row-major order, true where the code is 0; None
    when no node of the fit searches _BLOCK of them, so that none takes the
    two-valued path of `best_split`."""

    rank: np.ndarray
    values: list
    column: np.ndarray
    low: np.ndarray | None


def fit_codes(X, searched):
    """The Codes of a checked X (`check_fit_inputs`) for nodes that search `searched` features."""
    rank = np.empty((X.shape[1], X.shape[0]), dtype=np.uint16)
    values = []
    for f in range(X.shape[1]):
        distinct, inverse = np.unique(X[:, f], return_inverse=True)
        if len(distinct) > 1 << 16 and rank.dtype == np.uint16:
            rank = rank.astype(np.uint32)
        rank[f] = inverse
        values.append(distinct)
    two = np.flatnonzero(rank.max(axis=1) == 1)
    column = np.full(len(rank), -1)
    if min(searched, len(two)) < _BLOCK:
        return Codes(rank, values, column, None)
    column[two] = np.arange(len(two))
    return Codes(rank, values, column, np.ascontiguousarray((rank[two] == 0).T))


def best_split(codes, rows, feats, stats, loss):
    """(loss, feature, threshold) of the first split minimising `loss`, or None.

    codes: the fit's `Codes`. rows: the node's row indices into the codes,
    at least two, in the node's row order (ties in a feature keep this
    order). stats: per-row statistics of the node, each aligned with rows.
    loss(left, n_left) gets, at every candidate, the sum of each statistic
    over the rows left of it, added one row at a time in the feature's stable
    sorted order, and the left row count; it returns the loss to minimise,
    which must hold no NaN. Every candidate leaves a row on each side; any
    other rule on a candidate is the loss's.

    A node that searches at least _BLOCK two-valued features finds their
    candidates in one pass over codes.low and the others by sorting; any
    other node sorts every feature. Both paths add the same values in the same
    order, so they give the same losses bit for bit.

    The first minimum in (feature, position) order wins.
    """
    batches = []
    if codes.low is not None:
        column = codes.column[feats]
        two = column >= 0
        if np.count_nonzero(two) >= _BLOCK:
            args = feats[two], column[two], stats, loss
            batches.append(_two_valued_best(codes.low, rows, *args))
            feats = feats[~two]
    for start in range(0, len(feats), _BLOCK):
        args = feats[start : start + _BLOCK], stats, loss
        batches.append(_sorted_best(codes.rank, rows, *args))
    found = [batch for batch in batches if batch is not None]
    if not found:
        return None
    # the first minimum in (feature, position) order: batches hold disjoint
    # features, so a tie in loss goes to the lower feature
    value, feature, lo, hi = min(found)
    threshold = (codes.values[feature][lo] + codes.values[feature][hi]) / 2.0
    return value, feature, float(threshold)


def _sorted_best(rank, rows, block, stats, loss):
    """The sorting path over the features of block: stable-argsort the node's
    codes, take the cumulative sums of the statistics in that order and
    evaluate loss where the code changes.

    None when no feature has a candidate; else the first minimum as (loss,
    feature, the code on the left of it, the code on the right)."""
    n = len(rows)
    node_codes = np.take(rank, block[:, None] * rank.shape[1] + rows)
    order = np.argsort(node_codes, axis=1, kind="stable")
    sorted_codes = np.take(node_codes, order + np.arange(0, node_codes.size, n)[:, None])
    # (feature, position) pairs where the code changes, in that order
    fi, at = np.divmod(np.flatnonzero(sorted_codes[:, 1:] != sorted_codes[:, :-1]), n - 1)
    if len(at) == 0:
        return None
    values = loss([np.cumsum(s[order], axis=1)[fi, at] for s in stats], at + 1)
    j = int(np.argmin(values))
    f, pos = fi[j], at[j]
    return float(values[j]), int(block[f]), sorted_codes[f, pos], sorted_codes[f, pos + 1]


def _two_valued_best(low, rows, feats, columns, stats, loss):
    """The two-valued path over feats, ascending, whose columns in low are
    columns: each feature has one candidate, its code-0 rows on the left.
    Returns what `_sorted_best` does.

    The left sums are `np.einsum("ij,i->j", zero, s)` of the node's
    (rows, features) flags and each statistic s: no (rows, features) float
    temporary is made. Each product is s[i] times 0 or 1, which is exact
    whatever the SIMD tier, so only the order of the adds matters. The flags
    are C-ordered and at least _BLOCK features wide, so einsum's iterator
    keeps the features innermost and adds one row at a time into each
    feature's total, in node row order, which is the order the sorting
    path's cumsum adds the code-0 rows in. A reduction with the rows
    innermost (one feature, F-ordered flags, or `s @ zero`) would be summed
    in blocks instead; `test_two_valued_left_sums_*` pin the order."""
    n = len(rows)
    zero = low[rows]
    if len(columns) < low.shape[1]:
        zero = np.take(zero, columns, axis=1)  # stays C-ordered, where zero[:, columns] would not
    n_left = zero.sum(axis=0)
    keep = (n_left > 0) & (n_left < n)
    if not keep.any():
        return None
    lefts = [np.einsum("ij,i->j", zero, s)[keep] for s in stats]
    values = loss(lefts, n_left[keep])
    j = int(np.argmin(values))
    return float(values[j]), int(feats[np.flatnonzero(keep)[j]]), 0, 1


def _gini_loss(n, positives):
    # Known defect: no side is held to min_samples_leaf rows (pinned by a
    # strict xfail test); the fix changes reports and lands on its own.
    def loss(left, _):
        pos_left, n_left = left  # the left sums of y * weight and weight
        pos_right = positives - pos_left
        n_right = n - n_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        return (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n

    return loss


class GiniCriterion:
    """CART's rules for `grow`, over rows that each stand for weight[row]
    copies (an integer count per code row, `counted_rows`): the row
    statistics are y * weight and weight, a node's size n and each candidate
    side's are weight sums, a leaf scores the weighted fraction of positive
    labels (0.0 when empty), a node with Gini 0 or n below min_samples_leaf is
    not split, and a split must lower the Gini impurity strictly. The module
    docstring says why these sums give the trees of every copy bit for bit."""

    def __init__(self, y, weight, min_samples_leaf):
        self.yw = y * weight
        self.weight = weight
        self.min_samples_leaf = min_samples_leaf

    def node(self, rows):
        """(score, gini, row statistics, loss, n) of the node holding rows;
        the loss is None when the node is not split."""
        yw, weight = self.yw[rows], self.weight[rows]
        n = int(weight.sum())
        positives = float(yw.sum())  # labels in [0, 1], exact for 0/1
        score = positives / n if n else 0.0
        gini = 2.0 * score * (1.0 - score)
        loss = None if gini == 0.0 or n < self.min_samples_leaf else _gini_loss(n, positives)
        return score, gini, (yw, weight), loss, n

    def accepts(self, loss, gini):
        return loss < gini


def row_groups(codes, y):
    """Per row of the codes, the first row equal to it in every code and in
    the label; None when some label is not 0 or 1, so that each row stays
    alone and `counted_rows` keeps every copy.

    A row's key is built one column at a time as a mixed-radix int64: the
    label, then each code. np.unique renumbers the keys before their radix
    could pass 2**62, so only a few (n_rows,) int64 arrays are ever held."""
    if not np.all((y == 0.0) | (y == 1.0)):
        return None
    key = y.astype(np.int64)
    radix = 2
    for rank, values in zip(codes.rank, codes.values):
        if radix * len(values) > 1 << 62:
            distinct, key = np.unique(key, return_inverse=True)
            radix = len(distinct)
        key *= len(values)
        key += rank
        radix *= len(values)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first[inverse]


def counted_rows(group, draw):
    """(rows, weight) to grow a CART tree over draw: n_rows row indices, one
    per copy. With groups, rows holds the first row of each drawn group once,
    and weight, per code row, that group's drawn copies; with none
    (`row_groups` gave None), rows is draw itself and every weight is 1."""
    if group is None:
        return draw, np.ones(len(draw), dtype=np.intp)
    weight = np.bincount(group[draw], minlength=len(group))
    return np.flatnonzero(weight), weight


def grow(codes, rows, criterion, max_depth, rng=None, feature_subset_size=None, leaf=None):
    """The Tree that criterion grows over the rows of the codes with best_split.

    Each node's n is the size criterion.node gives it. A node is a leaf at
    max_depth (None: no limit), when criterion.node gives it no loss (it must
    give none to a node of fewer than two rows), or when the best split is
    missing or not criterion.accepts.
    With a feature_subset_size below the number of features, each searched
    node draws that many features from rng, in preorder; otherwise it
    searches them all and rng is not used.
    leaf: None, or an array indexed like the codes' rows into which each leaf
    writes its preorder index at its rows. A node's rows are split by the
    same test as `tree_predict`'s, so leaf[r] is the leaf that `tree_predict`
    takes row r of the fitted X to."""
    n_features = len(codes.rank)
    nodes = []  # [feature, threshold, right, score, gini, n] per node, in preorder
    stack = [(rows, 0, None)]  # (rows, depth, the node whose right child it is)
    while stack:
        rows, depth, parent = stack.pop()
        i = len(nodes)
        if parent is not None:
            nodes[parent][2] = i
        score, gini, stats, loss, n = criterion.node(rows)
        nodes.append([-1, 0.0, i, score, gini, n])
        found = None
        if loss is not None and (max_depth is None or depth < max_depth):
            if feature_subset_size is not None and feature_subset_size < n_features:
                feats = np.sort(rng.choice(n_features, size=feature_subset_size, replace=False))
            else:
                feats = np.arange(n_features)
            found = best_split(codes, rows, feats, stats, loss)
        if found is None or not criterion.accepts(found[0], gini):
            if leaf is not None:
                leaf[rows] = i
            continue
        _, feature, threshold = found
        nodes[i][:2] = feature, threshold
        below = np.searchsorted(codes.values[feature], threshold, side="right")
        mask = codes.rank[feature, rows] < below  # X[rows, feature] <= threshold
        stack.append((rows[~mask], depth + 1, i))
        stack.append((rows[mask], depth + 1, None))
    feature, threshold, right, score, gini, n = zip(*nodes)
    return Tree(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        right=np.array(right, dtype=np.intp),
        score=np.array(score, dtype=np.float64),
        gini=np.array(gini, dtype=np.float64),
        n=np.array(n, dtype=np.intp),
    )


def fit_tree(X, y, cfg):
    """Grow a CART tree over every feature; leaf score is the positive-label fraction."""
    X, y = check_fit_inputs(X, y)
    codes = fit_codes(X, X.shape[1])
    rows, weight = counted_rows(row_groups(codes, y), np.arange(len(y)))
    return grow(codes, rows, GiniCriterion(y, weight, cfg.min_samples_leaf), cfg.max_depth)


def tree_predict(tree, X):
    """Leaf score of every row of X. A row goes left iff X[row, feature] <=
    threshold, so a NaN value goes right. Every row takes one step per level
    of the tree, gathering its feature value from X's row-major buffer."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    feature, threshold = tree._step
    cells = X.ravel()
    row_start = np.arange(len(X)) * X.shape[1]
    at = np.zeros(len(X), dtype=np.intp)
    for _ in range(tree.depth):
        at = np.where(cells[row_start + feature[at]] <= threshold[at], at + 1, tree.right[at])
    return tree.score[at]
