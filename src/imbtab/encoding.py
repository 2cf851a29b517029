"""The encode stage: categorical-to-numeric feature transforms.

One-hot indicators with a frozen vocabulary, rare-category merging, manual
grouping, and impact encoding (Micci-Barreca's target statistic: per category,
the conditional target mean minus the global target mean). `EncoderSpec` is
the stage's config; `FittedColumnEncoder` is fitted on training rows only and
writes a column's block, working on its int32 codes and vocabulary without
rebuilding a Dataset; `build_features` is the one place a feature matrix is
built. The Dataset-level functions wrap the same helpers and the same writer.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .data import CATEGORICAL, MISSING, NUMERIC, TARGET, Column, ColumnSchema, target_labels
from .errors import (
    EmptyCategoryList,
    EmptyDataset,
    NotCategorical,
    ReservedCategory,
    UnmappedCategory,
    UnseenCategory,
    ValidationError,
    check_choice,
    check_integer,
)

OTHER_TOKEN = "__OTHER__"
ENCODER_METHODS = ("onehot", "impact")
ENCODER_MODES = ("lenient", "strict")


@dataclass(frozen=True)
class EncoderSpec:
    column: str
    method: str = "onehot"
    min_count: int = 0  # 0 disables rare-category merging
    grouping: dict = field(default_factory=dict)  # category -> group
    mode: str = "lenient"

    def __post_init__(self):
        if not isinstance(self.column, str):
            raise ValidationError("column", "must be a string")
        check_choice(self.method, "method", ENCODER_METHODS)
        check_integer(self.min_count, "min_count", minimum=0)
        if not isinstance(self.grouping, dict) or not all(
            isinstance(s, str) for pair in self.grouping.items() for s in pair
        ):
            raise ValidationError("grouping", "must be an object of string to string")
        check_choice(self.mode, "mode", ENCODER_MODES)


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


def _categorical(d, column):
    """The stored Column of `column`; NotCategorical unless it is categorical."""
    if d.column_kind(column) != CATEGORICAL:
        raise NotCategorical(f"column {column!r} has kind {d.column_kind(column)!r}")
    return d.column_data(column)


def _regroup(col, mapping, column, mode="lenient"):
    """`col` with each vocabulary entry in `mapping` replaced by its group.

    Unmapped entries pass through in lenient mode; in strict mode the first
    row (in row order) with an unmapped value raises UnmappedCategory.
    """
    codes, vocab = col.values, col.vocab
    if mode == "strict":
        unmapped = np.array([v not in mapping for v in vocab] + [False])[codes]
        if unmapped.any():
            v = vocab[codes[np.argmax(unmapped)]]
            raise UnmappedCategory(f"{column!r}: {v!r} has no group")
    grouped = [mapping.get(v, v) for v in vocab]
    for v, g in zip(vocab, grouped):
        if not isinstance(g, str):
            raise TypeError(f"{column!r}: group {g!r} of category {v!r} is not a string")
    return Column.from_codes(codes, grouped)


def _tallies(col, weights=None):
    """Per vocabulary entry, its row count (or sum of `weights`); MISSING left out."""
    return np.bincount(col.values + 1, weights, minlength=len(col.vocab) + 1)[1:]


def _rare_mapping(col, min_count, column):
    """{category: __OTHER__} for each category observed fewer than min_count times."""
    pairs = [(v, n) for v, n in zip(col.vocab, _tallies(col).tolist()) if n]
    if any(v == OTHER_TOKEN for v, _ in pairs):
        raise ReservedCategory(f"{OTHER_TOKEN!r} occurs as a raw category in {column!r}")
    return {v: OTHER_TOKEN for v, n in pairs if n < min_count}


def _observed(col):
    """Sorted vocabulary entries that occur in `col`."""
    return sorted(v for v, n in zip(col.vocab, _tallies(col)) if n)


def _impact_map(col, labels, column):
    """CategoryMap of `col` against the {0,1} `labels` of its rows.

    Counts and label sums come from one bincount each, exact for 0/1 labels.
    MISSING cells count towards the global mean only.
    """
    if len(col) == 0:
        raise EmptyDataset(f"cannot fit impact encoding for {column!r} on an empty dataset")
    y = labels.astype(np.float64)
    global_mean = float(y.mean())
    counts, sums = _tallies(col).tolist(), _tallies(col, y).tolist()
    per = OrderedDict()
    for j in sorted((j for j, n in enumerate(counts) if n), key=col.vocab.__getitem__):
        cond = sums[j] / counts[j]
        per[col.vocab[j]] = (counts[j], cond, cond - global_mean)
    return CategoryMap(column, global_mean, per, fallback_impact=0.0)


@dataclass
class FittedColumnEncoder:
    """Train-fitted transform for one categorical column."""

    spec: EncoderSpec
    rare_mapping: dict = field(default_factory=dict)  # rare category -> __OTHER__
    categories: tuple = ()  # one-hot vocabulary
    category_map: object = None  # impact CategoryMap

    def _column(self, d):
        """d's column after the spec's grouping and the fitted rare merge."""
        col = _categorical(d, self.spec.column)
        if self.spec.grouping:
            col = _regroup(col, self.spec.grouping, self.spec.column, self.spec.mode)
        if self.rare_mapping:
            col = _regroup(col, self.rare_mapping, self.spec.column)
        return col

    def fit(self, train):
        self.rare_mapping = {}
        col = self._column(train)
        if self.spec.min_count > 0:
            self.rare_mapping = _rare_mapping(col, self.spec.min_count, self.spec.column)
            col = _regroup(col, self.rare_mapping, self.spec.column)
        if self.spec.method == "onehot":
            self.categories = tuple(_observed(col))
        else:
            self.category_map = _impact_map(col, target_labels(train), self.spec.column)
        return self

    @property
    def column_names(self):
        """Names of the columns `write` fills: ``column=category`` each, or ``column~impact``."""
        if self.spec.method == "onehot":
            return tuple(f"{self.spec.column}={c}" for c in self.categories)
        return (f"{self.spec.column}~impact",)

    def write(self, d, out, start):
        """Encode d's column into out[:, start : start + len(column_names)] of
        the zeroed row-major `out`. A value outside the fitted vocabulary gets an
        all-zero one-hot row (UnseenCategory in strict mode) or, like MISSING,
        the fallback impact."""
        col, column = self._column(d), self.spec.column
        if self.spec.method == "impact":
            cmap = self.category_map
            table = [cmap.impact(v) for v in col.vocab] + [cmap.fallback_impact]
            out[:, start] = np.array(table, dtype=np.float64)[col.values]
            return
        if not self.categories:
            raise EmptyCategoryList(column)
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"duplicate categories for {column!r}")
        pos = {c: j for j, c in enumerate(self.categories)}
        where = np.array([pos.get(v, -1) for v in col.vocab] + [-1], dtype=np.intp)[col.values]
        rows = np.flatnonzero(where >= 0)
        if self.spec.mode == "strict" and len(rows) < len(where):
            code = col.values[np.argmax(where < 0)]
            v = (col.vocab + (MISSING,))[code]
            raise UnseenCategory(f"{column!r}: {v!r} not in fitted vocabulary")
        out.reshape(-1)[rows * out.shape[1] + start + where[rows]] = 1.0

    def fingerprint(self):
        """Stable digest of every fitted parameter (leakage audits)."""
        if self.spec.method == "onehot":
            payload = {"categories": list(self.categories), "rare": sorted(self.rare_mapping)}
        else:
            payload = {"map": self.category_map.to_json(), "rare": sorted(self.rare_mapping)}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def build_features(d, schema, fitted_encoders):
    """Schema-ordered feature matrix: numeric passthrough + encoded categoricals,
    each written into its own block of one preallocated matrix."""
    columns = [col for col in schema if col.kind != TARGET]
    names = [
        (col.name,) if col.kind == NUMERIC else fitted_encoders[col.name].column_names
        for col in columns
    ]
    out = np.zeros((d.row_count, sum(map(len, names))))
    start = 0
    for col, block_names in zip(columns, names):
        if col.kind == NUMERIC:
            out[:, start] = d.column_data(col.name).values
        else:
            fitted_encoders[col.name].write(d, out, start)
        start += len(block_names)
    return FeatureMatrix(tuple(n for block_names in names for n in block_names), out)


def fit_categories(d, column):
    """Sorted distinct category vocabulary of a column (MISSING excluded)."""
    return _observed(_categorical(d, column))


def one_hot_encode(d, column, categories, mode="lenient"):
    """K indicator columns named ``column=category``.

    Unseen values raise in strict mode; in lenient mode the row is all zeros.
    """
    enc = FittedColumnEncoder(EncoderSpec(column, mode=mode), categories=tuple(categories))
    return build_features(d, (ColumnSchema(column, CATEGORICAL),), {column: enc})


def rare_category_mapping(d, column, min_count):
    """{category: __OTHER__} for each category observed fewer than min_count times."""
    return _rare_mapping(_categorical(d, column), min_count, column)


def merge_rare_categories(d, column, min_count):
    """Replace categories observed fewer than min_count times by __OTHER__."""
    return group_categories(d, column, rare_category_mapping(d, column, min_count))


def group_categories(d, column, mapping, mode="lenient"):
    """Replace mapped categories by their group token; unmapped pass through (lenient)."""
    return d.replace_column(column, _regroup(_categorical(d, column), mapping, column, mode))


def impact_encode_fit(d, column):
    """Fit per-category impact values against the {0,1} target.

    impact(category) = mean(y | category) - mean(y). Unseen categories and
    MISSING cells fall back to impact 0, i.e. the global mean, which is taken
    over all rows.
    """
    return _impact_map(_categorical(d, column), target_labels(d), column)


def impact_encode_apply(d, cmap):
    """Single numeric column of impact values (fallback for unseen categories)."""
    enc = FittedColumnEncoder(EncoderSpec(cmap.column, method="impact"), category_map=cmap)
    return build_features(d, (ColumnSchema(cmap.column, CATEGORICAL),), {cmap.column: enc})
