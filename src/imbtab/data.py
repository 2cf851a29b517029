"""Tabular data model: schema-typed datasets, CSV ingestion, cleaning, splitting.

Cells are plain Python values: float for numeric columns, str for categorical
columns, int 0/1 for the target column, or the MISSING sentinel. Datasets are
treated as immutable; every operation returns a new Dataset.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

from .errors import (
    EmptyDataset,
    HeaderMismatch,
    MalformedRow,
    UncastTarget,
    UnknownColumn,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
TARGET = "binary-target"

_KINDS = (NUMERIC, CATEGORICAL, TARGET)


class _Missing:
    """Singleton marker for an absent or unparseable cell."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _Missing()

# CSV tokens read as MISSING
_MISSING_TOKENS = {"", "NaN"}


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}, expected one of {_KINDS}")


def validate_schema(schema):
    """Check uniqueness and that exactly one column is the binary target."""
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate column names in schema: {names}")
    targets = [c.name for c in schema if c.kind == TARGET]
    if len(targets) != 1:
        raise ValueError(f"schema must have exactly one {TARGET} column, got {targets}")


@dataclass(frozen=True)
class Dataset:
    schema: tuple
    rows: tuple  # tuple of row tuples, one cell per schema column

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        validate_schema(self.schema)
        for i, row in enumerate(self.rows):
            if len(row) != len(self.schema):
                raise MalformedRow(i, f"expected {len(self.schema)} cells, got {len(row)}")

    @property
    def row_count(self):
        return len(self.rows)

    @property
    def column_names(self):
        return [c.name for c in self.schema]

    @property
    def target_name(self):
        return next(c.name for c in self.schema if c.kind == TARGET)

    def column_index(self, name):
        for i, c in enumerate(self.schema):
            if c.name == name:
                return i
        raise UnknownColumn(name)

    def column_kind(self, name):
        return self.schema[self.column_index(name)].kind

    def column(self, name):
        j = self.column_index(name)
        return [row[j] for row in self.rows]

    def replace_column(self, name, values):
        """New Dataset with one column's cells replaced (same schema)."""
        if len(values) != self.row_count:
            raise ValueError("replacement column has wrong length")
        j = self.column_index(name)
        rows = tuple(row[:j] + (v,) + row[j + 1 :] for row, v in zip(self.rows, values))
        return Dataset(self.schema, rows)

    def take(self, indices):
        return Dataset(self.schema, tuple(self.rows[i] for i in indices))


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ValueError(f"test_fraction must be in [0,1], got {self.test_fraction}")


def _parse_cell(token, kind):
    token = token.strip()
    if token in _MISSING_TOKENS:
        return MISSING
    if kind == NUMERIC:
        try:
            v = float(token)
        except ValueError:
            return MISSING
        return v if math.isfinite(v) else MISSING
    if kind == TARGET:
        try:
            v = float(token)
        except ValueError:
            return MISSING
        return int(v) if v in (0.0, 1.0) else MISSING
    return token


def load_csv(path, schema):
    """Read an RFC-4180-style CSV into a Dataset, parsing cells per column kind.

    The header must contain exactly the schema's column names (any order).
    Unparseable or empty cells become MISSING.
    """
    schema = tuple(schema)
    validate_schema(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMismatch(missing=[c.name for c in schema], extra=[])
        header = [h.strip() for h in header]
        wanted = {c.name for c in schema}
        got = set(header)
        if wanted != got:
            raise HeaderMismatch(missing=wanted - got, extra=got - wanted)
        order = [header.index(c.name) for c in schema]
        rows = []
        for i, raw in enumerate(reader):
            if len(raw) != len(header):
                raise MalformedRow(i, f"expected {len(header)} cells, got {len(raw)}")
            rows.append(tuple(_parse_cell(raw[j], c.kind) for j, c in zip(order, schema)))
    return Dataset(schema, tuple(rows))


def drop_missing(d):
    """Keep exactly the rows with no MISSING cell; order preserved. Idempotent."""
    kept = tuple(row for row in d.rows if not any(cell is MISSING for cell in row))
    return Dataset(d.schema, kept)


def cast_columns(d, schema):
    """Re-cast cells of a dataset built in memory per schema kind; failures become MISSING."""
    known = set(d.column_names)
    for col in schema:
        if col.name not in known:
            raise UnknownColumn(col.name)
    new_rows = []
    casters = {c.name: c.kind for c in schema}
    for row in d.rows:
        cells = []
        for cell, col in zip(row, d.schema):
            kind = casters.get(col.name)
            if kind is None or cell is MISSING:
                cells.append(cell)
            else:
                cells.append(_parse_cell(str(cell), kind))
        new_rows.append(tuple(cells))
    return Dataset(d.schema, tuple(new_rows))


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def _fisher_yates(n, rng):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def train_test_split(d, spec):
    """Deterministic seeded partition; |test| = round-half-up(test_fraction * n).

    Stratified mode allocates per-label test counts by largest remainder so the
    total still matches and each label is within one row of its proportion.
    Within each side, original row order is preserved.
    """
    n = d.row_count
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    n_test = _round_half_up(spec.test_fraction * n)
    rng = random.Random(spec.seed)

    if not spec.stratified:
        shuffled = _fisher_yates(n, rng)
        test_idx = sorted(shuffled[:n_test])
    else:
        labels = d.column(d.target_name)
        if any(v not in (0, 1) for v in labels):
            raise UncastTarget("stratified split requires a cast {0,1} target")
        groups = {0: [], 1: []}
        for i, v in enumerate(labels):
            groups[v].append(i)
        # largest-remainder apportionment of n_test across labels
        quotas = {lab: spec.test_fraction * len(groups[lab]) for lab in (0, 1)}
        base = {lab: int(math.floor(quotas[lab])) for lab in (0, 1)}
        leftover = n_test - sum(base.values())
        by_remainder = sorted((0, 1), key=lambda lab: (-(quotas[lab] - base[lab]), lab))
        for lab in by_remainder[:leftover]:
            base[lab] += 1
        test_idx = []
        for lab in (0, 1):
            members = groups[lab]
            perm = _fisher_yates(len(members), rng)
            test_idx.extend(members[p] for p in perm[: base[lab]])
        test_idx = sorted(test_idx)

    test_set = set(test_idx)
    train_idx = [i for i in range(n) if i not in test_set]
    return d.take(train_idx), d.take(test_idx)


def class_counts(d):
    """Label counts {0: ..., 1: ...}; requires a cast target column."""
    counts = {0: 0, 1: 0}
    if d.row_count == 0:
        return counts
    for v in d.column(d.target_name):
        if v not in (0, 1):
            raise UncastTarget(f"target cell {v!r} is not in {{0, 1}}")
        counts[v] += 1
    return counts
