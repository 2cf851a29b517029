"""Class rebalancing: SMOTE oversampling and NearMiss undersampling.

Every neighbour query goes through one exact brute-force Euclidean search,
which takes the queries a block at a time. A block's squared distances come
from one subtraction and one einsum, and the block is sized so that its
query-minus-point differences fit in _BLOCK_BYTES. Each query then keeps its
k nearest by a partition and a sort of the few candidates at or below its
k-th distance, ties to the lower index. SMOTE, NearMiss-1/2/3 and
`nearest_neighbors` (a one-query block) all use this search. At the row
counts this toolkit targets (tens of thousands) a spatial index buys nothing.
Every random draw comes from one seeded generator consumed in a fixed order,
so a seed fully determines the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import FeatureMatrix
from .errors import (
    EmptyMinority,
    KTooLarge,
    NonFiniteFeature,
    StrategyUnknown,
    TooFewMinoritySamples,
    check_choice,
    check_integer,
)

STRATEGIES = ("none", "smote", "nearmiss1", "nearmiss2", "nearmiss3", "random_over", "random_under")
SMOTE_MODES = ("canonical", "paper_literal")

# amount value meaning "pick the count that equalizes the classes"
BALANCE = "balance"

# Bytes one block of query-minus-point differences may take. It bounds the
# neighbour search's working memory whatever the number of queries, and at
# 1 MiB a block stays within one core's 2 MiB L2 cache on the Xeon the
# search was tuned on (2 MiB blocks ran about 8% slower there).
_BLOCK_BYTES = 1 << 20


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
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if pts.size and not np.all(np.isfinite(pts)):
            raise NonFiniteFeature("points must be finite")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class SyntheticProvenance:
    """Audit record for one synthetic row: s = base + u * (neighbor - base)."""

    base_index: int
    neighbor_index: int
    u: float


@dataclass(frozen=True)
class RebalanceResult:
    features: FeatureMatrix
    labels: np.ndarray
    original_mask: np.ndarray  # True where the row existed before resampling
    provenance: tuple = ()  # SyntheticProvenance per synthetic row (SMOTE only)


def _distance_blocks(points, queries):
    """Yield (start, d2) over blocks of query rows.

    d2[r, j] is the squared Euclidean distance from queries[start + r] to
    points[j]. einsum sums each (r, j) pair's feature row on its own, so a row
    is bit-equal whatever the block size. The difference block holds at most
    _BLOCK_BYTES (one query's differences when a single query exceeds it).
    """
    step = max(1, _BLOCK_BYTES // max(1, points.size * points.itemsize))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        # Repeating each query once per point lets the subtraction run over
        # whole contiguous blocks, not one feature row at a time.
        diff = np.repeat(block, len(points), axis=0).reshape(len(block), *points.shape)
        np.subtract(points, diff, out=diff)
        d2 = np.einsum("bij,bij->bi", diff, diff)
        del diff  # free this block before the next one is allocated
        yield start, d2


def _k_smallest(d2, k, exclude=None):
    """Per row of d2, the columns of its k smallest entries: ascending, ties to the lower column.

    exclude[r], when given, is a column that row r may not pick; d2 is
    overwritten there. Only entries <= the row's k-th smallest value are
    sorted, so a row costs a partition plus a sort of about k candidates.
    """
    if k == 0:
        return np.empty((len(d2), 0), dtype=np.intp)
    if exclude is not None:
        # NaN, not inf: it partitions after every distance, inf included, and
        # fails every <= test, so it can never be a candidate
        d2[np.arange(len(d2)), exclude] = np.nan
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    flat = np.flatnonzero(d2 <= kth)
    r, c = np.divmod(flat, d2.shape[1])
    order = np.lexsort((c, d2.ravel()[flat], r))
    counts = np.bincount(r, minlength=len(d2))
    first = np.cumsum(counts) - counts
    return c[order][first[:, None] + np.arange(k)]


def _k_nearest(points, queries, k, exclude=None):
    """(len(queries), k) array: each query's k nearest points, ordered as by `nearest_neighbors`."""
    out = np.empty((len(queries), k), dtype=np.intp)
    for start, d2 in _distance_blocks(points, queries):
        block = slice(start, start + len(d2))
        out[block] = _k_smallest(d2, k, None if exclude is None else exclude[block])
    return out


def nearest_neighbors(index, query, k, exclude_self=False, self_index=None):
    """Indices of the k Euclidean-nearest points, ascending distance, ties by index.

    With exclude_self, the query's own entry is skipped: self_index when given,
    otherwise the lowest-index point at distance zero.
    """
    query = np.asarray(query, dtype=np.float64)
    if not np.all(np.isfinite(query)):
        raise NonFiniteFeature("query must be finite")
    ((_, d2),) = _distance_blocks(index.points, query[None])
    exclude = None
    if exclude_self:
        exclude = np.flatnonzero(d2[0] == 0.0)[:1] if self_index is None else [self_index]
    n_eligible = len(index.points) - (0 if exclude is None else len(exclude))
    if k > n_eligible:
        raise KTooLarge(f"k={k} but only {n_eligible} eligible points")
    return [int(i) for i in _k_smallest(d2, k, exclude)[0]]


def smote(minority, k, n_new, seed=0, mode="canonical"):
    """Generate n_new synthetic rows per minority point by neighbor interpolation.

    canonical: s = x + u * (neighbor - x), one u per synthetic row.
    paper_literal: s_j = x_j + u * |x_j - neighbor_j| per coordinate (never
    moves a coordinate downward); kept as a documented alternative geometry.
    Neighbor draws are with replacement, so n_new may exceed k.

    Returns (synthetic rows array, provenance list).
    """
    pts = np.asarray(minority, dtype=np.float64)
    if pts.ndim != 2 or len(pts) < 2:
        raise TooFewMinoritySamples(f"need >= 2 minority rows, got {len(pts)}")
    if k > len(pts) - 1:
        raise KTooLarge(f"k={k} but only {len(pts) - 1} candidate neighbors")
    if mode not in SMOTE_MODES:
        raise ValueError(f"mode must be one of {SMOTE_MODES}")

    if not np.all(np.isfinite(pts)):
        raise NonFiniteFeature("smote features must be finite")
    neighbors = _k_nearest(pts, pts, k, exclude=np.arange(len(pts)))
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
    provenance = [
        SyntheticProvenance(int(i), int(j), float(v)) for i, j, v in zip(base, nb, u)
    ]
    return synthetic, provenance


def _mean_knn_distance(majority, minority, k, farthest=False):
    """Per-majority-point mean distance to its k nearest (or farthest) minority points."""
    if k > len(minority):
        raise KTooLarge(f"k={k} but minority has {len(minority)} points")
    scores = np.empty(len(majority))
    for start, d2 in _distance_blocks(minority, majority):
        # The mean runs over the k selected distances, nearest (farthest)
        # first. That sequence depends only on their values, so no index
        # tie-break is needed; negating picks and orders the farthest.
        key = -d2 if farthest else d2
        picked = np.sort(np.partition(key, k - 1, axis=1)[:, :k], axis=1)
        scores[start : start + len(d2)] = np.sqrt(-picked if farthest else picked).mean(axis=1)
    return scores


def nearmiss(majority, minority, variant, k, n=None):
    """Kept majority row indices under NearMiss-1/2/3.

    1: n majority points with smallest mean distance to their k nearest
       minority points. 2: same but against the k farthest minority points.
    3: union of each minority point's k nearest majority points (n ignored).
    Ties always resolve to the lower index.
    """
    majority = np.asarray(majority, dtype=np.float64)
    minority = np.asarray(minority, dtype=np.float64)
    if len(minority) == 0:
        raise EmptyMinority("nearmiss requires at least one minority row")
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    if not (np.all(np.isfinite(majority)) and np.all(np.isfinite(minority))):
        raise NonFiniteFeature("nearmiss features must be finite")

    if variant in (1, 2):
        scores = _mean_knn_distance(majority, minority, k, farthest=(variant == 2))
        order = np.lexsort((np.arange(len(scores)), scores))
        n_keep = len(majority) if n is None else min(int(n), len(majority))
        return sorted(int(i) for i in order[:n_keep])

    if k > len(majority):
        raise KTooLarge(f"k={k} but majority has {len(majority)} points")
    return [int(i) for i in np.unique(_k_nearest(majority, minority, k))]


def _split_by_label(features, labels):
    labels = np.asarray(labels, dtype=int)
    counts = {0: int((labels == 0).sum()), 1: int((labels == 1).sum())}
    minority_label = 1 if counts[1] <= counts[0] else 0
    min_idx = np.flatnonzero(labels == minority_label)
    maj_idx = np.flatnonzero(labels != minority_label)
    return minority_label, min_idx, maj_idx


def rebalance(features, labels, config):
    """Apply the configured strategy to a training feature matrix.

    Returns a RebalanceResult carrying the resampled matrix, labels, an
    original-vs-synthetic row mask, and SMOTE provenance when applicable.
    Only training data should ever pass through here.
    """
    X = features.values
    labels = np.asarray(labels, dtype=int)
    if config.strategy == "none":
        return RebalanceResult(features, labels, np.ones(len(labels), dtype=bool))

    minority_label, min_idx, maj_idx = _split_by_label(features, labels)
    majority_label = 1 - minority_label

    if config.strategy == "smote":
        if config.amount == BALANCE:
            n_new = max(0, round(len(maj_idx) / max(len(min_idx), 1)) - 1)
        else:
            n_new = int(config.amount)
        synthetic, provenance = smote(
            X[min_idx], config.k, n_new, seed=config.seed, mode=config.smote_mode
        )
        out = np.vstack([X, synthetic]) if len(synthetic) else X
        out_labels = np.concatenate([labels, np.full(len(synthetic), minority_label, dtype=int)])
        mask = np.concatenate([np.ones(len(labels), dtype=bool), np.zeros(len(synthetic), dtype=bool)])
        # provenance base/neighbor indices refer to minority rows; lift to matrix rows
        lifted = tuple(
            SyntheticProvenance(int(min_idx[p.base_index]), int(min_idx[p.neighbor_index]), p.u)
            for p in provenance
        )
        return RebalanceResult(FeatureMatrix(features.column_names, out), out_labels, mask, lifted)

    if config.strategy == "random_over":
        target = len(maj_idx) if config.amount == BALANCE else int(config.amount)
        n_dup = max(0, target - len(min_idx))
        rng = np.random.default_rng(config.seed)
        picks = min_idx[rng.integers(len(min_idx), size=n_dup)] if n_dup else np.array([], dtype=int)
        out = np.vstack([X, X[picks]]) if n_dup else X
        out_labels = np.concatenate([labels, np.full(n_dup, minority_label, dtype=int)])
        mask = np.concatenate([np.ones(len(labels), dtype=bool), np.zeros(n_dup, dtype=bool)])
        return RebalanceResult(FeatureMatrix(features.column_names, out), out_labels, mask)

    if config.strategy == "random_under":
        target = len(min_idx) if config.amount == BALANCE else int(config.amount)
        target = min(target, len(maj_idx))
        rng = np.random.default_rng(config.seed)
        kept_maj = np.sort(rng.choice(maj_idx, size=target, replace=False))
    else:  # nearmiss1, nearmiss2 or nearmiss3
        variant = int(config.strategy[-1])
        target = len(min_idx) if config.amount == BALANCE else int(config.amount)
        kept = nearmiss(X[maj_idx], X[min_idx], variant, config.k, n=target)
        kept_maj = maj_idx[np.asarray(kept, dtype=int)]

    kept_rows = np.sort(np.concatenate([min_idx, kept_maj]))
    out = X[kept_rows]
    out_labels = labels[kept_rows]
    mask = np.ones(len(kept_rows), dtype=bool)
    return RebalanceResult(FeatureMatrix(features.column_names, out), out_labels, mask)
