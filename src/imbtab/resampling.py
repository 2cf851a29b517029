"""Class rebalancing: SMOTE oversampling and NearMiss undersampling.

Every neighbour query goes through one exact brute-force Euclidean search,
which takes the queries a block at a time, sized so that a block's
(query, point) distance matrix fits in _BLOCK_BYTES. It filters, then refines:

- filter: one matrix product gives approximate squared distances
  ||q||^2 + ||p||^2 - 2 q.p, off from the exact ones by at most a per-query
  margin (_margin). A pair stays a candidate when its approximate value is
  within two margins of the row's k-th, so every pair whose exact distance
  can be at or inside the k-th is kept. A row whose margin overflows keeps
  every pair.
- refine: the candidates' exact distances come from point minus query and an
  einsum, bit-equal to a one-query search.

Each query then takes its k from its candidates alone, by one lexsort of
their exact distances, ties to the lower index. Since the approximate values
only choose which pairs get exact distances, no output depends on how the
matrix product rounds. `_k_nearest` runs this search and returns each query's
k indices and squared distances; SMOTE, NearMiss-1/2/3 and
`nearest_neighbors` all call it; `nearest_neighbors` makes one query, for one
neighbour more when it may have to skip a point at distance zero. At the row
counts this toolkit targets (tens of thousands) a spatial index buys nothing.
Every random draw comes from one seeded generator consumed in a fixed order,
so a seed fully determines the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import FeatureMatrix
from .errors import (
    DimensionMismatch,
    EmptyMinority,
    KTooLarge,
    LabelOutOfRange,
    StrategyUnknown,
    TooFewMinoritySamples,
    ValidationError,
    check_choice,
    check_features,
    check_integer,
)

STRATEGIES = ("none", "smote", "nearmiss1", "nearmiss2", "nearmiss3", "random_over", "random_under")
SMOTE_MODES = ("canonical", "paper_literal")

# amount value meaning "pick the count that equalizes the classes"
BALANCE = "balance"

# Bytes one block of (query, point) distances may take, and one chunk of
# refined query-minus-point differences. It bounds the neighbour search's
# working memory whatever the number of queries.
_BLOCK_BYTES = 1 << 18

# The filter margin's terms: the relative rounding unit, the absolute error of
# an underflowing product, and the squared-norm sum past which the matrix
# product could overflow.
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
_SIZE_CEILING = np.finfo(np.float64).max / 8


@dataclass(frozen=True)
class ResampleConfig:
    strategy: str = "none"
    k: int = 5
    amount: object = BALANCE  # int, or BALANCE
    seed: int = 0
    smote_mode: str = "canonical"

    def __post_init__(self):
        check_choice(self.strategy, "strategy", STRATEGIES, StrategyUnknown)
        check_integer(self.k, "k", minimum=1)
        if self.amount != BALANCE:
            check_integer(self.amount, "amount", minimum=0, alternative=f" or {BALANCE!r}")
        check_integer(self.seed, "seed", minimum=0)  # numpy's generators take no negative seeds
        check_choice(self.smote_mode, "smote_mode", SMOTE_MODES)


@dataclass(frozen=True)
class NeighborIndex:
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", check_features(self.points))


@dataclass(frozen=True)
class SyntheticProvenance:
    """Audit record of the synthetic rows, one array entry per row: synthetic
    row r is base + u[r] * (neighbor - base), where base and neighbor are the
    rows base_index[r] and neighbor_index[r]."""

    base_index: np.ndarray
    neighbor_index: np.ndarray
    u: np.ndarray

    def __len__(self):
        return len(self.u)


@dataclass(frozen=True)
class RebalanceResult:
    features: FeatureMatrix
    labels: np.ndarray
    original_mask: np.ndarray  # True where the row existed before resampling
    provenance: SyntheticProvenance = None  # SMOTE only


def _approx_sq_distances(block, points_t, sq_block, sq_points):
    """||q||^2 + ||p||^2 - 2 q.p for every (query, point) pair, from one matrix product.

    points_t is the points matrix transposed and C-contiguous: with
    single-threaded OpenBLAS 0.3.31 on a 2-vCPU Xeon, the product ran 1.5-2x
    faster in that layout than over points.T. Only the filter reads these
    values: they round differently from the exact distances, by at most
    _margin per query row.
    """
    approx = block @ points_t
    approx *= -2.0
    approx += sq_block[:, None]
    approx += sq_points
    return approx


def _margin(sq_block, sq_points_max, n_features):
    """Per query row, a bound on how far an approximate squared distance is from the exact one.

    Each side sums m = n_features products, and such a sum is off by at most
    gamma_m * sum|a_i b_i| (Higham 2002, section 3.1) plus half the smallest
    subnormal per product that underflows. Over both sides that is about
    2(m + 2) eps (||q||^2 + ||p||^2) plus 2m half-subnormals; the margin,
    4(m + 4) (eps (||q||^2 + max ||p||^2) + smallest subnormal), is about
    twice that. It is infinite where the squared norms leave the matrix
    product too little headroom below overflow for the bound to hold.
    """
    size = sq_block + sq_points_max
    margin = 4 * (n_features + 4) * (_EPS * size + _TINY)
    margin[~(size <= _SIZE_CEILING)] = np.inf
    return margin


def _candidate_blocks(points, queries, k, farthest=False, exclude=None):
    """Yield (start, rows, r, c, d2) per block of query rows: the block's candidate pairs.

    The pairs (queries[start + r], points[c]) are in row-major order, and
    they include, for each row, every pair whose distance may be at or inside
    its k-th smallest (with farthest, largest), but never exclude[r]. d2
    holds their squared Euclidean distances, each bit-equal to the per-query
    einsum over points - query, whatever the block. A block holds
    _BLOCK_BYTES of (query, point) pairs, or one query when a single query's
    row exceeds it.
    """
    n_points, n_features = points.shape
    sq_points = np.einsum("ij,ij->i", points, points)
    sq_points_max = sq_points.max(initial=0.0)
    points_t = np.ascontiguousarray(points.T)
    step = max(1, _BLOCK_BYTES // max(1, n_points * points.itemsize))
    chunk = max(1, _BLOCK_BYTES // max(1, n_features * points.itemsize))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        rows = np.arange(len(block))
        sq_block = np.einsum("ij,ij->i", block, block)
        # Only rows with an infinite margin can overflow here, and those are
        # computed in full.
        with np.errstate(over="ignore", invalid="ignore"):
            key = _approx_sq_distances(block, points_t, sq_block, sq_points)
            if farthest:
                np.negative(key, out=key)
            if exclude is not None:
                key[rows, exclude[start : start + step]] = np.nan
            # A pair whose exact distance is at or inside the row's k-th has
            # its key within 2 margins of the k-th smallest key.
            kth = np.partition(key, k - 1, axis=1)[:, k - 1]
            limit = kth + 2 * _margin(sq_block, sq_points_max, n_features)
            candidates = key <= limit[:, None]
            candidates[~np.isfinite(limit)] = True
        if exclude is not None:
            candidates[rows, exclude[start : start + step]] = False
        r, c = np.divmod(np.flatnonzero(candidates), n_points)
        d2 = np.empty(len(r))
        for lo in range(0, len(r), chunk):
            diff = points[c[lo : lo + chunk]]
            diff -= block[r[lo : lo + chunk]]
            d2[lo : lo + chunk] = np.einsum("ij,ij->i", diff, diff)
        yield start, len(block), r, c, d2


def _select_k(r, c, key, rows, k):
    """(rows, k) positions into the candidate arrays: each row's k smallest keys,
    ascending, ties to the lower column. Every row must have k candidates."""
    order = np.lexsort((c, key, r))
    counts = np.bincount(r, minlength=rows)
    first = np.cumsum(counts) - counts
    return order[first[:, None] + np.arange(k)]


def _k_nearest(points, queries, k, exclude=None, farthest=False):
    """(indices, squared distances), two (len(queries), k) arrays: each query's
    k nearest points, nearest first, or with farthest its k farthest, farthest
    first; ties go to the lower index."""
    indices = np.empty((len(queries), k), dtype=np.intp)
    distances = np.empty((len(queries), k))
    blocks = _candidate_blocks(points, queries, k, farthest=farthest, exclude=exclude)
    for start, rows, r, c, d2 in blocks:
        picked = _select_k(r, c, -d2 if farthest else d2, rows, k)
        indices[start : start + rows] = c[picked]
        distances[start : start + rows] = d2[picked]
    return indices, distances


def nearest_neighbors(index, query, k, exclude_self=False, self_index=None):
    """Indices of the k Euclidean-nearest points, ascending distance, ties by index.

    With exclude_self, the query's own entry is skipped: self_index when given,
    otherwise the lowest-index point at distance zero.
    """
    points = index.points
    check_integer(k, "k", minimum=0)
    if self_index is not None:
        check_integer(self_index, "self_index", minimum=0)
        if self_index >= len(points):
            raise ValidationError("self_index", f"must be < {len(points)}, the number of points")
    queries = check_features([query], points.shape[1])
    if k == 0:  # nothing to search for
        return []
    exclude = np.array([self_index]) if exclude_self and self_index is not None else None
    n_eligible = len(points) - (exclude is not None)
    # Without self_index, one more is searched: nearest first, ties to the
    # lower index, so the first is the point to skip if it is at distance zero.
    extra = int(exclude_self and exclude is None)
    nearest = d2 = ()
    if n_eligible:  # an empty index has no k-th key
        (nearest,), (d2,) = _k_nearest(points, queries, min(k + extra, n_eligible), exclude)
    skip = int(extra and len(d2) > 0 and d2[0] == 0.0)
    if k > n_eligible - skip:
        raise KTooLarge(f"k={k} but only {n_eligible - skip} eligible points")
    return [int(i) for i in nearest[skip : skip + k]]


def smote(minority, k, n_new, seed=0, mode="canonical"):
    """Generate n_new synthetic rows per minority point by neighbor interpolation.

    canonical: s = x + u * (neighbor - x), one u per synthetic row.
    paper_literal: s_j = x_j + u * |x_j - neighbor_j| per coordinate (never
    moves a coordinate downward); kept as a documented alternative geometry.
    Neighbor draws are with replacement, so n_new may exceed k. The minority
    is checked by `check_features` before its row count.

    Returns (synthetic rows array, SyntheticProvenance over minority rows).
    """
    check_integer(k, "k", minimum=1)
    check_integer(n_new, "n_new", minimum=0)
    check_choice(mode, "mode", SMOTE_MODES)
    pts = check_features(minority)
    if len(pts) < 2:
        raise TooFewMinoritySamples(f"need >= 2 minority rows, got {len(pts)}")
    if k > len(pts) - 1:
        raise KTooLarge(f"k={k} but only {len(pts) - 1} candidate neighbors")
    neighbors = _k_nearest(pts, pts, k, exclude=np.arange(len(pts)))[0]
    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(len(pts)), n_new)
    nb = np.empty(len(base), dtype=np.intp)
    u = np.empty(len(base))
    # one neighbor draw then one u per synthetic row, in row order
    for row, i in enumerate(base):
        nb[row] = neighbors[i, rng.integers(k)]
        u[row] = rng.random()
    # s = base + u * step, computed in place to hold two row arrays, not four
    synthetic = pts[base]
    if mode == "canonical":
        step = pts[nb]
        step -= synthetic
    else:
        step = synthetic - pts[nb]
        np.abs(step, out=step)
    step *= u[:, None]
    synthetic += step
    return synthetic, SyntheticProvenance(base, nb, u)


def nearmiss(majority, minority, variant, k, n=None):
    """Kept majority row indices under NearMiss-1/2/3.

    1: n majority points with smallest mean distance to their k nearest
       minority points. 2: same but against the k farthest minority points.
    3: union of each minority point's k nearest majority points (n ignored).
    Ties always resolve to the lower index. `check_features` checks the
    majority, then the minority at its width, before an empty minority.
    """
    check_integer(variant, "variant", minimum=1)
    if variant > 3:
        raise ValidationError("variant", "must be 1, 2 or 3")
    check_integer(k, "k", minimum=1)
    if n is not None:
        check_integer(n, "n", minimum=0)
    majority = check_features(majority)
    minority = check_features(minority, majority.shape[1])
    if len(minority) == 0:
        raise EmptyMinority("nearmiss requires at least one minority row")

    searched, name = (majority, "majority") if variant == 3 else (minority, "minority")
    if k > len(searched):
        raise KTooLarge(f"k={k} but {name} has {len(searched)} points")
    if variant == 3:
        return [int(i) for i in np.unique(_k_nearest(majority, minority, k)[0])]

    # Summing nearest (farthest) first, as a one-query search does, keeps
    # each mean bit-equal to it.
    _, d2 = _k_nearest(minority, majority, k, farthest=(variant == 2))
    scores = np.sqrt(d2).mean(axis=1)
    order = np.lexsort((np.arange(len(scores)), scores))
    n_keep = len(majority) if n is None else min(n, len(majority))
    return sorted(int(i) for i in order[:n_keep])


def _split_by_label(labels):
    minority_label = 1 if (labels == 1).sum() <= (labels == 0).sum() else 0
    min_idx = np.flatnonzero(labels == minority_label)
    maj_idx = np.flatnonzero(labels != minority_label)
    return minority_label, min_idx, maj_idx


def rebalance(features, labels, config):
    """Apply the configured strategy to a training feature matrix.

    labels must be one per row (else DimensionMismatch), each 0 or 1 (else
    LabelOutOfRange); bool and float labels are read as ints. Returns a
    RebalanceResult carrying the resampled matrix, labels, an
    original-vs-synthetic row mask, and SMOTE provenance when applicable.
    Only training data should ever pass through here.
    """
    X = features.values
    labels = np.asarray(labels)
    if labels.shape != (len(X),):
        raise DimensionMismatch(f"rebalance needs a label per row: {X.shape}, {labels.shape}")
    if not np.all((labels == 0) | (labels == 1)):
        raise LabelOutOfRange("rebalance needs every label 0 or 1")
    labels = labels.astype(int, copy=False)
    if config.strategy == "none":
        return RebalanceResult(features, labels, np.ones(len(labels), dtype=bool))

    minority_label, min_idx, maj_idx = _split_by_label(labels)
    if config.strategy in ("random_over", "random_under") and not len(min_idx):
        raise EmptyMinority(f"{config.strategy} requires at least one minority row")
    balance = config.amount == BALANCE

    provenance = None
    if config.strategy == "smote":
        n_new = round(len(maj_idx) / max(len(min_idx), 1)) - 1 if balance else int(config.amount)
        added, provenance = smote(
            X[min_idx], config.k, max(0, n_new), seed=config.seed, mode=config.smote_mode
        )
        # provenance base/neighbor indices refer to minority rows; lift to matrix rows
        provenance = SyntheticProvenance(
            min_idx[provenance.base_index], min_idx[provenance.neighbor_index], provenance.u
        )
    elif config.strategy == "random_over":
        n_dup = max(0, (len(maj_idx) if balance else int(config.amount)) - len(min_idx))
        rng = np.random.default_rng(config.seed)
        added = X[min_idx[rng.integers(len(min_idx), size=n_dup)]]
    else:  # random_under, nearmiss1, nearmiss2 or nearmiss3: keep some majority rows
        target = min(len(min_idx) if balance else int(config.amount), len(maj_idx))
        if config.strategy == "random_under":
            rng = np.random.default_rng(config.seed)
            kept_maj = np.sort(rng.choice(maj_idx, size=target, replace=False))
        else:
            kept = nearmiss(X[maj_idx], X[min_idx], int(config.strategy[-1]), config.k, n=target)
            kept_maj = maj_idx[np.asarray(kept, dtype=int)]
        kept_rows = np.sort(np.concatenate([min_idx, kept_maj]))
        out = FeatureMatrix(features.column_names, X[kept_rows])
        return RebalanceResult(out, labels[kept_rows], np.ones(len(kept_rows), dtype=bool))

    out = FeatureMatrix(features.column_names, np.vstack([X, added]) if len(added) else X)
    out_labels = np.concatenate([labels, np.full(len(added), minority_label, dtype=int)])
    mask = np.arange(len(out_labels)) < len(labels)
    return RebalanceResult(out, out_labels, mask, provenance)
