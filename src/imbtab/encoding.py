"""Categorical-to-numeric feature transforms.

One-hot indicators with a frozen vocabulary, rare-category merging, manual
grouping, and impact encoding (per-category deviation of the conditional
target mean from the global target mean). Impact maps are fitted on training
data only and applied unchanged elsewhere.
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, Column, target_labels
from .errors import (
    EmptyCategoryList,
    EmptyDataset,
    NotCategorical,
    ReservedCategory,
    UnmappedCategory,
    UnseenCategory,
)

OTHER_TOKEN = "__OTHER__"


@dataclass(frozen=True)
class FeatureMatrix:
    column_names: tuple
    values: np.ndarray  # row-major float64, all finite

    def __post_init__(self):
        object.__setattr__(self, "column_names", tuple(self.column_names))
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if vals.shape[1] != len(self.column_names):
            raise ValueError("column_names length does not match matrix width")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class CategoryMap:
    """Fitted impact-encoding statistics for one categorical column."""

    column: str
    global_mean: float
    per_category: OrderedDict  # category -> (count, cond_mean, impact)
    fallback_impact: float = 0.0

    def impact(self, category):
        entry = self.per_category.get(category)
        return entry[2] if entry is not None else self.fallback_impact

    def to_json(self):
        return json.dumps(
            {
                "column": self.column,
                "global_mean": self.global_mean,
                "categories": [
                    {"value": v, "count": n, "cond_mean": m, "impact": imp}
                    for v, (n, m, imp) in self.per_category.items()
                ],
                "fallback_impact": self.fallback_impact,
            }
        )

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        per = OrderedDict(
            (c["value"], (c["count"], c["cond_mean"], c["impact"])) for c in doc["categories"]
        )
        return CategoryMap(doc["column"], doc["global_mean"], per, doc["fallback_impact"])


def _require_categorical(d, column):
    if d.column_kind(column) != CATEGORICAL:
        raise NotCategorical(f"column {column!r} has kind {d.column_kind(column)!r}")


def _tally(codes, size, weights=None):
    """Per-entry counts (or sums of `weights`) of codes into `size` entries; code -1 is the last."""
    return np.bincount(np.where(codes < 0, size - 1, codes), weights, minlength=size)


def fit_categories(d, column):
    """Sorted distinct category vocabulary of a column (MISSING excluded)."""
    _require_categorical(d, column)
    codes, cells = d.column_data(column).coded()
    seen = _tally(codes, len(cells))
    return sorted({v for v, n in zip(cells[:-1], seen) if n})


def one_hot_names(column, categories):
    """Names of the indicator columns of one_hot_encode: ``column=category``."""
    return tuple(f"{column}={c}" for c in categories)


def one_hot_positions(d, column, categories, mode="lenient"):
    """Per row, the index in categories of the row's value, or -1 for a value
    the lenient mode lets through as all zeros; one_hot_encode's checks apply."""
    _require_categorical(d, column)
    categories = list(categories)
    if not categories:
        raise EmptyCategoryList(column)
    if len(set(categories)) != len(categories):
        raise ValueError(f"duplicate categories for {column!r}")
    pos = {c: j for j, c in enumerate(categories)}
    codes, cells = d.column_data(column).coded()
    where = np.array([pos.get(v, -1) for v in cells], dtype=np.intp)[codes]
    if mode == "strict":
        unseen = np.flatnonzero(where < 0)
        if unseen.size:
            v = cells[codes[unseen[0]]]
            raise UnseenCategory(f"{column!r}: {v!r} not in fitted vocabulary")
    return where


def one_hot_encode(d, column, categories, mode="lenient"):
    """K indicator columns named ``column=category``.

    Unseen values raise in strict mode; in lenient mode the row is all zeros.
    """
    categories = list(categories)
    where = one_hot_positions(d, column, categories, mode)
    out = np.zeros((len(where), len(categories)))
    rows = np.flatnonzero(where >= 0)
    out[rows, where[rows]] = 1.0
    return FeatureMatrix(one_hot_names(column, categories), out)


def impact_name(column):
    """Name of the column of impact_encode_apply."""
    return f"{column}~impact"


def category_counts(d, column):
    _require_categorical(d, column)
    codes, cells = d.column_data(column).coded()
    counts = Counter()
    for v, n in zip(cells[:-1], _tally(codes, len(cells)).tolist()):
        if n:
            counts[v] += n
    return counts


def rare_category_mapping(d, column, min_count):
    """{category: __OTHER__} for each category observed fewer than min_count times."""
    counts = category_counts(d, column)
    if OTHER_TOKEN in counts:
        raise ReservedCategory(f"{OTHER_TOKEN!r} occurs as a raw category in {column!r}")
    return {c: OTHER_TOKEN for c, n in counts.items() if n < min_count}


def merge_rare_categories(d, column, min_count):
    """Replace categories observed fewer than min_count times by __OTHER__."""
    return group_categories(d, column, rare_category_mapping(d, column, min_count))


def group_categories(d, column, mapping, mode="lenient"):
    """Replace mapped categories by their group token; unmapped pass through (lenient)."""
    _require_categorical(d, column)
    codes, cells = d.column_data(column).coded()
    vocab = cells[:-1]
    if mode == "strict":
        unmapped = np.array([v not in mapping for v in vocab] + [False])[codes]
        if unmapped.any():
            v = cells[codes[np.argmax(unmapped)]]
            raise UnmappedCategory(f"{column!r}: {v!r} has no group")
    grouped = [mapping[v] if v in mapping else v for v in vocab]
    return d.replace_column(column, Column.from_codes(codes, grouped))


def impact_encode_fit(d, column):
    """Fit per-category impact values against the {0,1} target.

    impact(category) = mean(y | category) - mean(y). Unseen categories fall
    back to impact 0, i.e. the global mean. Counts and label sums come from
    one bincount each, exact for 0/1 labels.
    """
    _require_categorical(d, column)
    if d.row_count == 0:
        raise EmptyDataset(f"cannot fit impact encoding for {column!r} on an empty dataset")
    y = target_labels(d).astype(np.float64)
    codes, cells = d.column_data(column).coded()
    global_mean = float(y.mean())
    counts, sums = {}, {}
    for v, n, total in zip(cells, _tally(codes, len(cells)), _tally(codes, len(cells), y)):
        if n:
            counts[v] = counts.get(v, 0) + int(n)
            sums[v] = sums.get(v, 0.0) + total
    per = OrderedDict()
    for cat in sorted(counts):
        cond = sums[cat] / counts[cat]
        per[cat] = (counts[cat], cond, cond - global_mean)
    return CategoryMap(column, global_mean, per, fallback_impact=0.0)


def impact_encode_apply(d, cmap):
    """Single numeric column of impact values (fallback for unseen categories)."""
    _require_categorical(d, cmap.column)
    codes, cells = d.column_data(cmap.column).coded()
    table = np.array([cmap.impact(v) for v in cells], dtype=np.float64)
    return FeatureMatrix((impact_name(cmap.column),), table[codes].reshape(-1, 1))
