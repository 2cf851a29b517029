"""The tree engine shared by DT, RF and XGB must grow the same trees, node for
node, as the per-node argsort search it replaced.

Two kinds of check:

- golden digests: the sha256 of `model_to_json` for fixed seeded fits, each
  document also checked to hold the fitted trees' arrays. The fits were
  recorded from the per-node argsort implementation (`dt-deep`, 599 levels,
  from the recursive grower before the iterative one), and the digests
  re-recorded from those same fits when the format became `model_v2`;
- a property test against `_oracle_*`, a copy of that implementation kept
  here as the reference, and one on matrices wide and two-valued enough for
  `best_split`'s two-valued path. The `-onehot` digests were recorded from
  the sorting search before that path existed.
"""

import dataclasses
import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbtab.errors import NonFiniteScore
from imbtab.models import (
    MODEL_FORMAT_VERSION,
    ModelConfig,
    fit_model,
    gini_impurity,
    model_to_json,
    sigmoid,
    tree_predict,
)
from imbtab.models import boosting
from imbtab.models.boosting import logit
from imbtab.models.forest import plan_forest
from imbtab.models.tree import _BLOCK, best_split, fit_codes, grow, row_groups


# --- oracle: the per-node argsort search ------------------------------------


@dataclass
class _OracleNode:
    score: float
    gini: float
    n_samples: int
    feature: int = -1
    threshold: float = 0.0
    left: "_OracleNode" = None
    right: "_OracleNode" = None

    def walk(self):
        yield self
        if self.left is not None:
            yield from self.left.walk()
            yield from self.right.walk()


def _oracle_gini_split(X, y, feature_indices):
    n = len(y)
    best = None  # (weighted_gini, feature, threshold)
    for f in feature_indices:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        sy = y[order]
        boundaries = np.flatnonzero(sv[:-1] != sv[1:])
        if len(boundaries) == 0:
            continue
        pos_cum = np.cumsum(sy)
        n_left = boundaries + 1
        n_right = n - n_left
        pos_left = pos_cum[boundaries]
        pos_right = pos_cum[-1] - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        weighted = (n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)) / n
        thresholds = (sv[boundaries] + sv[boundaries + 1]) / 2.0
        j = int(np.argmin(weighted))
        cand = (float(weighted[j]), int(f), float(thresholds[j]))
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        return None
    return best[1], best[2], best[0]


def _oracle_grow(X, y, depth, cfg, rng, subset):
    n = len(y)
    node_gini = gini_impurity(y)
    node = _OracleNode(score=float(np.mean(y)) if n else 0.0, gini=node_gini, n_samples=n)
    if (
        node_gini == 0.0
        or n < cfg.min_samples_leaf
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
    ):
        return node
    n_features = X.shape[1]
    if subset is not None and subset < n_features:
        feats = np.sort(rng.choice(n_features, size=subset, replace=False))
    else:
        feats = np.arange(n_features)
    found = _oracle_gini_split(X, y, feats)
    if found is None or found[2] >= node_gini:
        return node
    feature, threshold, _ = found
    mask = X[:, feature] <= threshold
    node.feature, node.threshold = feature, threshold
    node.left = _oracle_grow(X[mask], y[mask], depth + 1, cfg, rng, subset)
    node.right = _oracle_grow(X[~mask], y[~mask], depth + 1, cfg, rng, subset)
    return node


def _oracle_forest(X, y, cfg):
    subset = cfg.feature_subset_size
    if subset is None:
        subset = max(1, math.ceil(math.sqrt(X.shape[1])))
    trees = []
    for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(ss)
        if cfg.bootstrap:
            idx = rng.integers(len(y), size=len(y))
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        trees.append(_oracle_grow(Xb, yb, 0, cfg, rng, subset))
    return trees


def _oracle_over(num, den):
    """num / den, with XGBoost's zero rule: 0 where den is 0."""
    return np.where(den == 0, 0.0, num / np.where(den == 0, 1.0, den))


def _oracle_gain_split(X, g, h, lam, min_samples_leaf):
    n = len(g)
    G, H = g.sum(), h.sum()
    parent = _oracle_over(G * G, H + lam)
    best = None  # (-gain, feature, threshold)
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        boundaries = np.flatnonzero(sv[:-1] != sv[1:])
        if len(boundaries) == 0:
            continue
        gc = np.cumsum(g[order])
        hc = np.cumsum(h[order])
        GL = gc[boundaries]
        HL = hc[boundaries]
        GR = G - GL
        HR = H - HL
        n_left = boundaries + 1
        valid = (n_left >= min_samples_leaf) & ((n - n_left) >= min_samples_leaf)
        if not valid.any():
            continue
        gain = 0.5 * (_oracle_over(GL**2, HL + lam) + _oracle_over(GR**2, HR + lam) - parent)
        gain = np.where(valid & ~np.isnan(gain), gain, -np.inf)  # a NaN gain is never picked
        j = int(np.argmax(gain))
        thresholds = (sv[boundaries] + sv[boundaries + 1]) / 2.0
        cand = (-float(gain[j]), int(f), float(thresholds[j]))
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None or not -best[0] > 0.0:
        return None
    return best[1], best[2], -best[0]


def _oracle_gain_tree(X, y01, g, h, depth, cfg):
    node = _OracleNode(
        score=float(_oracle_over(-g.sum(), h.sum() + cfg.l2)),
        gini=gini_impurity(y01),
        n_samples=len(g),
    )
    if cfg.max_depth is not None and depth >= cfg.max_depth:
        return node
    found = _oracle_gain_split(X, g, h, cfg.l2, cfg.min_samples_leaf)
    if found is None:
        return node
    feature, threshold, _ = found
    mask = X[:, feature] <= threshold
    node.feature, node.threshold = feature, threshold
    node.left = _oracle_gain_tree(X[mask], y01[mask], g[mask], h[mask], depth + 1, cfg)
    node.right = _oracle_gain_tree(X[~mask], y01[~mask], g[~mask], h[~mask], depth + 1, cfg)
    return node


def _oracle_predict(node, X):
    out = np.empty(len(X))
    for i, row in enumerate(X):
        cur = node
        while cur.left is not None:
            cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
        out[i] = cur.score
    return out


def _oracle_gbt(X, y, cfg):
    base = logit(min(max(float(y.mean()), 1e-6), 1.0 - 1e-6))
    raw = np.full(len(y), base)
    trees = []
    for _ in range(cfg.rounds):
        p = sigmoid(raw)
        tree = _oracle_gain_tree(X, y, p - y, p * (1.0 - p), 0, cfg)
        raw = raw + cfg.learning_rate * _oracle_predict(tree, X)
        trees.append(tree)
    return base, trees


def _nodes(tree):
    return [(n.feature, n.threshold, n.score, n.gini, n.n_samples) for n in tree.walk()]


# --- golden digests -----------------------------------------------------------


def _tied_data(n=400, seed=11):
    """Mostly low-cardinality columns (many ties), one near-continuous column."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.integers(0, 2, n),
            rng.integers(0, 4, n) * 0.5,
            np.round(rng.normal(size=n), 1),
            rng.integers(0, 2, n),
            rng.choice([-1.0, 0.0, 2.5], n),
            rng.integers(0, 2, n),
        ]
    ).astype(np.float64)
    y = (X[:, 1] + X[:, 2] - X[:, 4] + rng.normal(scale=0.8, size=n) > 0.9).astype(int)
    return X, y


def _onehot_data(n=500, seed=17):
    """Mostly one-hot columns, as the encoders make them: a near-continuous
    column, three categories of 2, 4 and 5 levels one-hot (the first a
    complement pair), a flag, a 4-valued column and another flag. 15 columns,
    13 of them two-valued."""
    rng = np.random.default_rng(seed)
    levels = (2, 4, 5)
    cats = [rng.integers(0, k, n) for k in levels]
    onehot = [(c[:, None] == np.arange(k)).astype(np.float64) for c, k in zip(cats, levels)]
    age = np.round(rng.normal(size=n), 1)
    flags = rng.integers(0, 2, (n, 2))
    score = rng.choice([0.0, 0.5, 1.5, 3.0], n)
    X = np.column_stack([age, *onehot, flags[:, 0], score, flags[:, 1]])
    signal = (
        0.9 * cats[0] + 1.1 * (cats[1] == 2) - 0.8 * (cats[2] == 4) + 0.7 * flags[:, 0]
        + 0.5 * age + 0.3 * score + rng.normal(scale=0.8, size=n)
    )
    return X, (signal > 1.2).astype(int)


def _staircase(n):
    """x = the row index and y = x mod 2: every CART split peels off one row, so
    a tree with no depth limit is n - 1 levels deep."""
    x = np.arange(n, dtype=np.float64)
    return x[:, None], x % 2


GOLDEN = {
    "dt": (
        dict(family="dt"),
        "09f584ff1dbe49a32fd353bc6215d95ff61fd203adeb98471ffd38a807b5509a",
    ),
    "rf-bootstrap": (
        dict(family="rf", n_trees=5, seed=3),
        "373da1308ba45efabd6d4cbc983f1b99cf9ecde9382e5ec259b7dfa04472044a",
    ),
    "rf-no-bootstrap": (
        dict(family="rf", n_trees=3, bootstrap=False, seed=4),
        "957cfa03401b817727e42487db7698a34d34c3aba0fb5da161e71140de900d6e",
    ),
    "rf-subset": (
        dict(family="rf", n_trees=4, feature_subset_size=4, min_samples_leaf=2, seed=5),
        "372a960f10bbbb2c6e3d3e2a11a0a4569538c126e41c5c9f76e2691a5fd275ce",
    ),
    "xgb-min-leaf": (
        dict(family="xgb", rounds=6, min_samples_leaf=7),
        "d0b50b245657592f593310b1c1924aa8d25c6cd217bc88e63f6bf1c48aadf875",
    ),
    "xgb-l2-zero": (
        dict(family="xgb", rounds=6, l2=0.0, max_depth=3),
        "753058550ebe9015bd2b197de5e78d128a9f1c97b3376dbfd1a6b4a82f199d12",
    ),
    "dt-deep": (
        dict(family="dt", max_depth=None, min_samples_leaf=1),
        "d171376241634508162c117cfdba90340ed22aa7b5e132c781b2c2e993c573ab",
    ),
    "dt-onehot": (
        dict(family="dt"),
        "01bfdca0e42db20ff6174d4ee707fa6be370687e55049679177d532664021a35",
    ),
    "xgb-onehot": (
        dict(family="xgb", rounds=6),
        "211554421ccad1fd34e163aa27b1d36da1b729016a329f08266369d313a17943",
    ),
    "rf-onehot-subset8": (
        dict(family="rf", n_trees=4, feature_subset_size=8, seed=6),
        "b3ec0cfa373d3c87bb4f3f33d489cc676f3e05631509dbc4db54e054465a0bb5",
    ),
}
# the data of each GOLDEN entry not fitted on _tied_data()
GOLDEN_DATA = {
    "dt-deep": lambda: _staircase(600),
    "dt-onehot": _onehot_data,
    "xgb-onehot": _onehot_data,
    "rf-onehot-subset8": _onehot_data,
}


# a Tree's fields, which a model document writes for each tree
TREE_ARRAYS = ["feature", "threshold", "right", "score", "gini", "n"]


def assert_model_document(fitted, text):
    """`text` holds `fitted` field by field: `version`, `family` and
    `n_features`, then the model dataclass's fields in order, each tree as its
    six preorder arrays."""
    doc = json.loads(text)
    model = fitted.model
    names = [f.name for f in dataclasses.fields(model)]
    assert list(doc) == ["version", "family", "n_features", *names]
    assert fitted.family != "dt" or names == TREE_ARRAYS
    assert [doc["version"], doc["family"], doc["n_features"]] == [
        MODEL_FORMAT_VERSION,
        fitted.family,
        fitted.n_features,
    ]
    for name in names:
        value, written = getattr(model, name), doc[name]
        if name != "trees":
            assert written == np.asarray(value).tolist()
            continue
        assert len(written) == len(value)
        for tree_doc, tree in zip(written, value):
            assert list(tree_doc) == TREE_ARRAYS
            for key in TREE_ARRAYS:
                assert tree_doc[key] == getattr(tree, key).tolist()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_model_digest(name):
    overrides, digest = GOLDEN[name]
    X, y = GOLDEN_DATA.get(name, _tied_data)()
    fitted = fit_model(X, y, ModelConfig.for_family(**overrides))
    text = model_to_json(fitted)
    assert_model_document(fitted, text)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_midpoint_rounding_onto_upper_value_matches_oracle():
    # (a + b) / 2 rounds to b for these adjacent doubles, so `X <= threshold`
    # sends every row left and the right child is empty. The engine partitions
    # a node by the same comparison as prediction, so it grows the same tree.
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    X = np.array([[a], [b]] * 3)
    y = np.array([0.0, 1.0] * 3)
    cfg = ModelConfig.for_family("dt", min_samples_leaf=1, max_depth=2)
    tree = fit_model(X, y, cfg).model
    assert tree.threshold[0] == b and tree.n[tree.right[0]] == 0
    assert _nodes(tree) == _nodes(_oracle_grow(X, y, 0, cfg, np.random.default_rng(0), None))


@pytest.mark.xfail(
    strict=True, reason="known defect: a midpoint of two values near the float limit overflows"
)
@pytest.mark.parametrize("family", ["dt", "xgb"])
def test_midpoint_overflow_grows_one_split(family):
    # (1e308 + 1.5e308) / 2 overflows to inf, so `X <= threshold` sends every
    # row left; the fit warns (DT; XGB is under errstate), repeats the empty
    # split down to max_depth and predicts 0.5 for both values. The correct
    # tree splits once, at a threshold between the two values.
    X = np.array([[1e308], [1.5e308]] * 3)
    y = np.array([0.0, 1.0] * 3)
    rounds = {"rounds": 2} if family == "xgb" else {}
    cfg = ModelConfig.for_family(family, min_samples_leaf=1, **rounds)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_model(X, y, cfg).model
    assert [str(w.message) for w in caught] == []
    for tree in [model] if family == "dt" else model.trees:
        assert len(tree.feature) == 3 and tree.n.min() > 0
        assert 1e308 <= tree.threshold[0] < 1.5e308


# --- property test against the oracle ----------------------------------------


def test_wide_codes_match_oracle():
    # more than 65536 distinct values in one column: codes widen to uint32
    rng = np.random.default_rng(13)
    n = 70_000
    X = np.column_stack([rng.permutation(n) / 7.0, rng.integers(0, 2, n)])
    y = (X[:, 0] + 2000.0 * X[:, 1] + rng.normal(scale=2000.0, size=n) > 6000.0).astype(float)
    codes = fit_codes(X, X.shape[1]).rank
    assert codes.dtype == np.uint32
    assert np.array_equal(codes[0], np.argsort(np.argsort(X[:, 0])))
    cfg = ModelConfig.for_family("dt", max_depth=2)
    tree = fit_model(X, y, cfg).model
    assert _nodes(tree) == _nodes(_oracle_grow(X, y, 0, cfg, np.random.default_rng(0), None))


_LEVELS = [-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]


@st.composite
def _tied_problem(draw, values=_LEVELS, labels=st.integers(0, 1)):
    n = draw(st.integers(1, 50))
    d = draw(st.integers(1, 4))
    values = st.sampled_from(values)
    levels = draw(st.lists(values, min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from(levels), min_size=n * d, max_size=n * d))
    y = draw(st.lists(labels, min_size=n, max_size=n))
    return np.array(cells, dtype=np.float64).reshape(n, d), np.array(y, dtype=np.float64)


@st.composite
def _repeated(draw, problem):
    """A drawn problem whose rows are each repeated 1-6 times, as random_over
    repeats minority rows: the originals first, then the extra copies in a
    drawn order."""
    X, y = draw(problem)
    repeats = draw(st.lists(st.integers(1, 6), min_size=len(y), max_size=len(y)))
    extra = np.repeat(np.arange(len(y)), np.array(repeats) - 1)
    extra = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(extra)
    rows = np.concatenate([np.arange(len(y)), extra])
    return X[rows], y[rows]


@st.composite
def _fractional_problem(draw):
    """A _tied_problem whose first label is strictly between 0 and 1."""
    X, y = draw(_tied_problem(labels=st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])))
    y[0] = draw(st.sampled_from([0.25, 0.5, 0.7]))
    return X, y


@settings(max_examples=100, deadline=None)
@given(
    problem=st.one_of(
        _tied_problem(), _repeated(_tied_problem()), _repeated(_fractional_problem())
    ),
    max_depth=st.sampled_from([1, 2, 4, None]),
    min_leaf=st.integers(1, 8),
    seed=st.integers(0, 5),
)
def test_engine_matches_argsort_oracle(problem, max_depth, min_leaf, seed):
    # with 0/1 labels DT and RF grow over one entry per distinct row, weighted
    # by its copies, and the oracle over every copy; with a fractional label
    # the engine too grows over every copy
    X, y = problem
    dt = ModelConfig.for_family("dt", max_depth=max_depth, min_samples_leaf=min_leaf)
    tree = fit_model(X, y, dt).model
    oracle = _oracle_grow(X, y, 0, dt, np.random.default_rng(0), None)
    assert _nodes(tree) == _nodes(oracle)
    assert np.array_equal(tree_predict(tree, X), _oracle_predict(oracle, X))
    X_nan = np.where(np.arange(X.size).reshape(X.shape) % 3 == 0, np.nan, X)
    assert np.array_equal(tree_predict(tree, X_nan), _oracle_predict(oracle, X_nan))

    for bootstrap in (True, False):
        rf = ModelConfig.for_family(
            "rf", n_trees=2, bootstrap=bootstrap, max_depth=max_depth,
            min_samples_leaf=min_leaf, seed=seed,
        )
        trees = fit_model(X, y, rf).model.trees
        assert [_nodes(t) for t in trees] == [_nodes(t) for t in _oracle_forest(X, y, rf)]

    for l2 in (0.0, 1.0):
        xgb = ModelConfig.for_family(
            "xgb", rounds=2, l2=l2, max_depth=max_depth or 3, min_samples_leaf=min_leaf
        )
        model = fit_model(X, y, xgb).model
        base, trees = _oracle_gbt(X, y, xgb)
        assert model.base_score == base
        assert [_nodes(t) for t in model.trees] == [_nodes(t) for t in trees]


def _saturated_problem(seed, l2):
    """(X, y, cfg) of a small boosted fit whose large learning rate drives
    sigmoid(raw) to exactly 0 or 1 within a few rounds."""
    rng = np.random.default_rng(seed)
    n, d = rng.integers(5, 40), rng.integers(1, 4)
    X = rng.choice([0.0, 1.0, 2.0], size=(n, d))
    y = rng.integers(0, 2, n).astype(float)
    cfg = ModelConfig.for_family(
        "xgb",
        rounds=int(rng.integers(2, 7)),
        l2=l2,
        learning_rate=float(rng.choice([2.0, 5.0, 10.0, 20.0])),
        max_depth=3,
        min_samples_leaf=int(rng.integers(1, 3)),
    )
    return X, y, cfg


def _fit_checking_leaves(X, y, cfg):
    """fit_model(X, y, cfg) of an xgb cfg, checking after every round that the
    leaf the grower recorded for each training row is a leaf and scores the
    row as `tree_predict` does; the fitted model."""
    rounds = []

    def checked(codes, rows, criterion, max_depth, leaf):
        tree = grow(codes, rows, criterion, max_depth, leaf=leaf)
        assert np.all(tree.feature[leaf] < 0)
        assert np.array_equal(tree.score[leaf], tree_predict(tree, X))
        rounds.append(tree)
        return tree

    with mock.patch.object(boosting, "grow", checked):
        model = fit_model(X, y, cfg).model
    assert rounds == model.trees
    return model


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 48, 51, 113, 176, 461])
def test_saturated_boosting_matches_oracle(seed):
    # With l2 = 0, saturated rows have h = 0, so some nodes and candidate
    # sides have H + l2 = 0; as in XGBoost, their leaf values and gain terms
    # are 0. Before that rule, such terms were x/0 = inf or 0/0 = NaN: seeds
    # 0, 1, 2 and 5 scored a leaf -G/0 and raised NonFiniteScore, seeds 4, 51
    # and 113 grew other trees, and seeds 48, 176 and 461 had NaN gains that
    # did not change their trees.
    X, y, cfg = _saturated_problem(seed, 0.0)
    model = _fit_checking_leaves(X, y, cfg)
    _, trees = _oracle_gbt(X, y, cfg)
    assert [_nodes(t) for t in model.trees] == [_nodes(t) for t in trees]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), l2=st.sampled_from([0.0, 1e-308]))
@example(seed=0, l2=1e-308)  # a gain term overflows: NonFiniteScore
@example(seed=3, l2=1e-308)  # finishes
def test_saturated_boosting_finishes_or_raises_only_on_overflow(seed, l2):
    # l2 = 0 always finishes. Near 1e-308 a gain term G^2/(H + l2) can
    # overflow, and then the raw scores may too; no fit warns.
    X, y, cfg = _saturated_problem(seed, l2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = fit_model(X, y, cfg).model
        except NonFiniteScore:
            assert l2 > 0.0
            return
    assert all(np.isfinite(t.score).all() for t in model.trees)
    with np.errstate(over="ignore", invalid="ignore"):
        _, trees = _oracle_gbt(X, y, cfg)
    assert [_nodes(t) for t in model.trees] == [_nodes(t) for t in trees]


# --- the two-valued path of best_split ---------------------------------------


@st.composite
def _two_valued_problem(draw, values=_LEVELS):
    """8-12 two-valued columns and 0-3 columns of up to 4 values, in a drawn
    column order. Rows 0 and 1 differ in every two-valued column."""
    n = draw(st.integers(2, 60))
    values = st.sampled_from(values)
    columns = []
    for _ in range(draw(st.integers(_BLOCK, 12))):
        low, high = sorted(draw(st.lists(values, min_size=2, max_size=2, unique=True)))
        high_rows = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
        columns.append(np.where([False, True, *high_rows], high, low))
    for _ in range(draw(st.integers(0, 3))):
        levels = draw(st.lists(values, min_size=1, max_size=4))
        columns.append(np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))))
    order = draw(st.permutations(range(len(columns))))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.column_stack([columns[c] for c in order]), np.array(y, dtype=np.float64)


@settings(max_examples=100, deadline=None)
@given(
    problem=st.one_of(_two_valued_problem(), _repeated(_two_valued_problem())),
    max_depth=st.sampled_from([1, 2, 4, None]),
    min_leaf=st.integers(1, 8),
    seed=st.integers(0, 5),
    subset=st.integers(_BLOCK, 15),
)
def test_two_valued_search_matches_argsort_oracle(problem, max_depth, min_leaf, seed, subset):
    X, y = problem
    assert fit_codes(X, X.shape[1]).low is not None  # DT and XGB take the two-valued path
    dt = ModelConfig.for_family("dt", max_depth=max_depth, min_samples_leaf=min_leaf)
    tree = fit_model(X, y, dt).model
    assert _nodes(tree) == _nodes(_oracle_grow(X, y, 0, dt, np.random.default_rng(0), None))

    for bootstrap in (True, False):
        rf = ModelConfig.for_family(
            "rf", n_trees=2, bootstrap=bootstrap, max_depth=max_depth,
            min_samples_leaf=min_leaf, feature_subset_size=subset, seed=seed,
        )
        trees = fit_model(X, y, rf).model.trees
        assert [_nodes(t) for t in trees] == [_nodes(t) for t in _oracle_forest(X, y, rf)]

    for l2 in (0.0, 1.0):
        xgb = ModelConfig.for_family(
            "xgb", rounds=2, l2=l2, max_depth=max_depth or 3, min_samples_leaf=min_leaf
        )
        model = _fit_checking_leaves(X, y, xgb)
        base, trees = _oracle_gbt(X, y, xgb)
        assert model.base_score == base
        assert [_nodes(t) for t in model.trees] == [_nodes(t) for t in trees]


# values where routing a node by its codes could drift from `X <= threshold`:
# both zeros, adjacent doubles whose midpoint rounds onto the upper one, and
# magnitudes near the float limit (of opposite signs, so no midpoint overflows)
_A = np.nextafter(1.0, 2.0)
_EDGE_VALUES = [-0.0, 0.0, _A, np.nextafter(_A, 2.0), -1e308, 1e308, -2.0, 3.0]


@settings(max_examples=100, deadline=None)
@given(problem=_tied_problem(_EDGE_VALUES))
def test_fit_codes_keep_each_columns_sorted_values(problem):
    X, _ = problem
    X = np.vstack([X, np.full_like(X[:1], -0.0), np.zeros_like(X[:1])])  # both zeros in each column
    codes = fit_codes(X, X.shape[1])
    for f in range(X.shape[1]):
        assert np.all(codes.values[f][1:] > codes.values[f][:-1])
        assert np.array_equal(codes.values[f][codes.rank[f]], X[:, f])


@settings(max_examples=100, deadline=None)
@given(
    problem=st.one_of(_tied_problem(_EDGE_VALUES), _two_valued_problem(_EDGE_VALUES)),
    max_depth=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 5),
)
def test_edge_values_match_argsort_oracle(problem, max_depth, seed):
    # no depth limit is left out: there an empty split repeats without end
    X, y = problem
    dt = ModelConfig.for_family("dt", max_depth=max_depth, min_samples_leaf=1)
    tree = fit_model(X, y, dt).model
    oracle = _oracle_grow(X, y, 0, dt, np.random.default_rng(0), None)
    assert _nodes(tree) == _nodes(oracle)
    assert np.array_equal(tree_predict(tree, X), _oracle_predict(oracle, X))

    rf = ModelConfig.for_family("rf", n_trees=2, max_depth=max_depth, min_samples_leaf=1, seed=seed)
    trees = fit_model(X, y, rf).model.trees
    assert [_nodes(t) for t in trees] == [_nodes(t) for t in _oracle_forest(X, y, rf)]

    for l2 in (0.0, 1.0):
        xgb = ModelConfig.for_family("xgb", rounds=2, l2=l2, max_depth=max_depth, min_samples_leaf=1)
        model = fit_model(X, y, xgb).model
        base, trees = _oracle_gbt(X, y, xgb)
        assert model.base_score == base
        assert [_nodes(t) for t in model.trees] == [_nodes(t) for t in trees]


# 1e16 + 1 rounds back to 1e16, so a sum of these depends on its order:
# added one at a time, each 4-value group leaves 1; a pairwise sum does not
_ORDERED = np.array([1e16, 1.0, -1e16, 1.0] * 8)


def _recorded_left_sums(X, rows, feats, s):
    """Every (left row count, left sum) that best_split hands its loss, over
    the codes of X, searching feats; and the search's result."""
    seen = []

    def loss(left, n_left):
        seen.extend(zip(n_left.tolist(), left[0].tolist()))
        return -left[0]

    found = best_split(fit_codes(X, X.shape[1]), rows, feats, (s[rows],), loss)
    return sorted(seen), found


def _cumsum_left_sums(X, rows, feats, s):
    """The same pairs from a stable argsort and cumsum of each feature."""
    pairs = []
    for f in feats:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        left = np.cumsum(s[rows][order])
        for at in np.flatnonzero(col[order][1:] != col[order][:-1]):
            pairs.append((int(at) + 1, float(left[at])))
    return sorted(pairs)


@pytest.mark.parametrize("kept", [[7], [4, 6, 9], [5, 6, 7, 8, 9]])
def test_two_valued_left_sums_add_rows_in_order(kept):
    # 10 two-valued columns over 41 rows; on the node (rows 0-32) only the
    # kept ones take both values, so the others have no candidate
    rng = np.random.default_rng(len(kept))
    X = np.zeros((41, 10))
    X[33:] = 1.0
    for f in kept:
        X[1:32, f] = rng.integers(0, 2, 31)
        X[32, f] = 1.0
    s = np.concatenate([_ORDERED, np.zeros(9)])
    rows, feats = np.arange(33), np.arange(10)
    assert fit_codes(X, 10).low is not None
    seen, _ = _recorded_left_sums(X, rows, feats, s)
    expected = _cumsum_left_sums(X, rows, feats, s)
    assert len(seen) == len(kept)
    assert seen == expected
    if kept == [7]:
        # rows 0-31 on the left: added in order they sum to 1, where numpy's
        # pairwise sum of the node's 33 masked values gives 0
        X[:32, 7] = 0.0
        seen, found = _recorded_left_sums(X, rows, feats, s)
        assert seen == [(32, 1.0)] == _cumsum_left_sums(X, rows, feats, s)
        assert found == (-1.0, 7, 0.5)
        assert np.sum(s[rows]) == 0.0


def test_two_valued_left_sums_over_a_feature_subset():
    # the node searches 8 of 10 two-valued columns and a multi-valued one
    rng = np.random.default_rng(3)
    X = rng.integers(0, 2, (32, 11)).astype(np.float64)
    X[:, 10] = rng.integers(0, 5, 32)
    X[0, :10], X[1, :10] = 0.0, 1.0
    feats = np.array([1, 2, 4, 5, 6, 7, 8, 9, 10])
    rows = np.arange(32)
    seen, _ = _recorded_left_sums(X, rows, feats, _ORDERED)
    assert seen == _cumsum_left_sums(X, rows, feats, _ORDERED)
    assert len(seen) >= 8 + 2


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 20_480),
    width=st.integers(_BLOCK, 40),
    searched=st.sampled_from(["all", "subset"]),
    node=st.sampled_from(["all", "subset", "bootstrap"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=20_480, width=40, searched="all", node="all", seed=0)
@example(n=20_000, width=40, searched="subset", node="bootstrap", seed=1)
@example(n=8_193, width=_BLOCK, searched="all", node="subset", seed=2)
def test_two_valued_left_sums_add_rows_in_order_past_the_buffer(n, width, searched, node, seed):
    # numpy's einsum runs through an iterator whose buffer holds 8192
    # elements; nodes of up to 20480 rows by up to 40 flags span many such
    # buffers, and every left sum must still add its rows one at a time
    rng = np.random.default_rng(seed)
    X = (rng.random((n, width)) < rng.uniform(0.05, 0.95, width)).astype(np.float64)
    X[0], X[1] = 0.0, 1.0  # every column two-valued over the fit
    s = rng.choice(_ORDERED[:4], n) * rng.choice([1.0, 3.0], n)
    if node == "all":
        rows = np.arange(n)
    elif node == "subset":
        rows = np.flatnonzero(rng.random(n) < 0.7)
        rows = rows if len(rows) >= 2 else np.arange(n)
    else:
        rows = rng.integers(n, size=n)  # a bootstrap sample: repeats, out of order
    feats = np.arange(width)
    if searched == "subset":  # np.take picks the searched columns of the flags
        feats = np.sort(rng.choice(width, size=int(rng.integers(_BLOCK, width + 1)), replace=False))
    seen, _ = _recorded_left_sums(X, rows, feats, s)
    assert seen == _cumsum_left_sums(X, rows, feats, s)


def test_a_one_hot_pair_ties_with_a_lower_multi_valued_column():
    # y is a, so splitting column 0 at 0.5, column 1 (a) or column 2 (1 - a)
    # gives Gini 0; the lowest feature wins. Columns 3-8 are noise flags.
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, 60)
    a[:2] = 0, 1
    X = np.column_stack(
        [np.where(a == 0, 0.0, rng.choice([1.0, 5.0], 60)), a, 1 - a, rng.integers(0, 2, (60, 6))]
    ).astype(np.float64)
    X[:2, 3:] = [[0.0] * 6, [1.0] * 6]
    y = a.astype(np.float64)
    assert fit_codes(X, X.shape[1]).low is not None
    cfg = ModelConfig.for_family("dt", max_depth=1)
    tree = fit_model(X, y, cfg).model
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
    assert _nodes(tree) == _nodes(_oracle_grow(X, y, 0, cfg, np.random.default_rng(0), None))
    # without column 0, the pair ties and column 1 wins
    X1 = X[:, 1:]
    tree = fit_model(X1, y, cfg).model
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
    assert _nodes(tree) == _nodes(_oracle_grow(X1, y, 0, cfg, np.random.default_rng(0), None))


@pytest.mark.parametrize("subset, built", [(None, False), (_BLOCK - 1, False), (_BLOCK, True)])
def test_forest_builds_the_two_valued_matrix_only_for_wide_subsets(subset, built):
    # 13 two-valued columns: a node searching fewer than _BLOCK features
    # never takes the two-valued path, so its plan holds no matrix for it
    X, y = _onehot_data()
    cfg = ModelConfig.for_family("rf", n_trees=1, feature_subset_size=subset)
    codes = plan_forest(X, y, cfg).codes
    assert (codes.low is not None) == built
    if built:
        assert codes.low.flags.c_contiguous and codes.low.shape == (len(X), 13)


# --- rows counted once per group ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(problem=st.one_of(_repeated(_tied_problem(_EDGE_VALUES)), _repeated(_two_valued_problem())))
def test_rows_share_a_group_iff_their_codes_and_label_are_equal(problem):
    X, y = problem
    codes = fit_codes(X, X.shape[1])
    first = {}
    keys = [(*codes.rank[:, i].tolist(), y[i]) for i in range(len(y))]
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    assert row_groups(codes, y).tolist() == [first[key] for key in keys]


def test_a_fractional_label_leaves_every_row_alone():
    X = np.zeros((4, 2))
    codes = fit_codes(X, 2)
    assert row_groups(codes, np.array([0.0, 0.0, 1.0, 1.0])).tolist() == [0, 0, 2, 2]
    assert row_groups(codes, np.array([0.0, 0.0, 1.0, 0.5])) is None


def test_row_groups_renumber_keys_before_they_overflow():
    # the label, a two-valued column and four columns of 65536 values each:
    # a key built in full would be y * 2**65 + c * 2**64 + ..., so with 64
    # bits rows that differ only in the label or c would share it
    rng = np.random.default_rng(1)
    n = 1 << 16
    wide = np.column_stack([rng.permutation(n) for _ in range(4)]).astype(np.float64)
    X = np.column_stack([np.zeros(n + 3), np.vstack([wide, wide[[0, 0, 0]]])])
    X[n, 0] = 1.0  # row n differs from row 0 in column 0 only
    y = np.zeros(n + 3)
    y[n + 1] = 1.0  # row n + 1 differs from row 0 in the label only
    codes = fit_codes(X, X.shape[1])  # row n + 2 equals row 0
    assert [len(v) for v in codes.values] == [2] + [n] * 4
    assert row_groups(codes, y).tolist() == [*range(n + 2), 0]


def test_a_tree_counts_every_copy_of_a_row():
    # Tree.n counts copies, repeated rows and bootstrap draws, not the
    # distinct rows the tree is grown over
    X, y = _tied_data()
    X, y = X[np.arange(len(y)) % 50], y[np.arange(len(y)) % 50]  # 50 rows, 8 copies each
    dt = fit_model(X, y, ModelConfig.for_family("dt")).model
    assert dt.n[0] == len(y) and dt.n[dt.feature < 0].sum() == len(y)
    rf = fit_model(X, y, ModelConfig.for_family("rf", n_trees=3, seed=2)).model
    for tree in rf.trees:
        assert tree.n[0] == len(y) and tree.n[tree.feature < 0].sum() == len(y)
