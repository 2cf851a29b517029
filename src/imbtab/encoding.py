"""The encode stage: categorical-to-numeric feature transforms.

One-hot indicators with a frozen vocabulary, rare-category merging, manual
grouping, and impact encoding (Micci-Barreca's target statistic: per category,
the conditional target mean minus the global target mean). `EncoderSpec` is
the stage's config; `FittedColumnEncoder` is fitted on training rows only and
writes a column's block. It maps the column's vocabulary entries, not its
rows: each entry to the category it is encoded as (grouping, then the rare
merge), in one method. The int32 codes are read only to count them when
fitting and to index one lookup table when writing, and no Dataset or Column
is built. `build_features` is the one place a feature matrix is built, and
the only way the library encodes a column.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .data import CATEGORICAL, MISSING, NUMERIC, TARGET, target_labels
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


def _categorical(d, column):
    """The stored Column of `column`; NotCategorical unless it is categorical."""
    if d.column_kind(column) != CATEGORICAL:
        raise NotCategorical(f"column {column!r} has kind {d.column_kind(column)!r}")
    return d.column_data(column)


def _totals(categories, tallies):
    """{category: the sum of its entries' tallies}, given one category and one
    tally per vocabulary entry; categories whose tallies are all zero are left out."""
    totals = {}
    for c, n in zip(categories, tallies):
        if n:
            totals[c] = totals.get(c, 0) + n
    return totals


@dataclass
class FittedColumnEncoder:
    """Train-fitted transform for one categorical column."""

    spec: EncoderSpec
    rare_mapping: dict = field(default_factory=dict)  # rare category -> __OTHER__
    categories: tuple = ()  # one-hot vocabulary
    category_map: object = None  # impact CategoryMap

    def _merged(self, col):
        """Per vocabulary entry of `col`, the category it is encoded as: the
        spec's grouping, then the fitted rare merge. In strict mode the first
        row, in row order, whose value has no group raises UnmappedCategory."""
        grouping, rare = self.spec.grouping, self.rare_mapping
        if grouping and self.spec.mode == "strict":
            unmapped = np.array([v not in grouping for v in col.vocab] + [False])[col.values]
            if unmapped.any():
                v = col.vocab[col.values[np.argmax(unmapped)]]
                raise UnmappedCategory(f"{self.spec.column!r}: {v!r} has no group")
        return [rare.get(g, g) for g in (grouping.get(v, v) for v in col.vocab)]

    def fit(self, train):
        """Fit on `train`'s column. Its codes are counted once; the counts, and
        the label sums for impact (exact in float64), add up per category."""
        spec, self.rare_mapping = self.spec, {}
        col = _categorical(train, spec.column)
        codes = col.values + 1  # MISSING at 0
        counts = np.bincount(codes, minlength=len(col.vocab) + 1)[1:].tolist()
        if spec.min_count > 0:
            totals = _totals(self._merged(col), counts)
            if OTHER_TOKEN in totals:
                raise ReservedCategory(f"{OTHER_TOKEN!r} occurs as a raw category in {spec.column!r}")
            self.rare_mapping = {c: OTHER_TOKEN for c, n in totals.items() if n < spec.min_count}
        merged = self._merged(col)
        totals = _totals(merged, counts)
        if spec.method == "onehot":
            self.categories = tuple(sorted(totals))
            return self
        labels = target_labels(train)
        if len(col) == 0:
            raise EmptyDataset(f"cannot fit impact encoding for {spec.column!r} on an empty dataset")
        global_mean = float(labels.mean())  # MISSING cells count towards it only
        sums = _totals(merged, np.bincount(codes, labels, len(col.vocab) + 1)[1:].tolist())
        per = OrderedDict()
        for c in sorted(totals):
            cond = sums.get(c, 0.0) / totals[c]
            per[c] = (totals[c], cond, cond - global_mean)
        self.category_map = CategoryMap(spec.column, global_mean, per, fallback_impact=0.0)
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
        col, column = _categorical(d, self.spec.column), self.spec.column
        merged = self._merged(col)
        if self.spec.method == "impact":
            cmap = self.category_map
            table = [cmap.impact(c) for c in merged] + [cmap.fallback_impact]
            out[:, start] = np.array(table, dtype=np.float64)[col.values]
            return
        if not self.categories:
            raise EmptyCategoryList(
                f"{column!r}: no category was fitted: the training split has no rows,"
                " or none with a value in this column"
            )
        pos = {c: j for j, c in enumerate(self.categories)}
        where = np.array([pos.get(c, -1) for c in merged] + [-1], dtype=np.intp)[col.values]
        rows = np.flatnonzero(where >= 0)
        if self.spec.mode == "strict" and len(rows) < len(where):
            v = (merged + [MISSING])[col.values[np.argmax(where < 0)]]
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

