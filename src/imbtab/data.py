"""Tabular data model: schema-typed datasets, CSV ingestion, cleaning, splitting.

A Dataset stores one typed array per column (a `Column`): float64 with NaN
for MISSING in numeric columns, int32 codes into a tuple of distinct strings
with -1 for MISSING in categorical columns, and int8 labels with -1 for
MISSING in the target column. Cells become a Column one way only: they are
parsed as CSV tokens by `_ColumnParser`, which `load_csv` feeds the file's
tokens and a Dataset built in memory feeds `str(cell)` ("" for MISSING).
`column()` and `rows` give the cells back as Python values, with the MISSING
sentinel. Datasets are treated as immutable; every operation returns a new
Dataset.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    HeaderMismatch,
    MalformedRow,
    UncastTarget,
    UnknownColumn,
    ValidationError,
    check_choice,
    check_flag,
    check_integer,
    check_number,
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

# Vocabulary of a cast target column, whose codes are therefore the labels.
LABELS = (0, 1)

# dtype of a Column's values, per schema kind
_DTYPES = {NUMERIC: np.float64, TARGET: np.int8, CATEGORICAL: np.int32}

# Rows load_csv parses per block. Blocks bound the raw cell strings held at
# once; on a 2-vCPU Xeon, 32k-row blocks loaded 200k rows about 2x slower.
_CHUNK_ROWS = 1 << 10
# Distinct tokens a column's parse memo keeps before it starts over.
_MEMO_TOKENS = 1 << 16


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("name", "must be a non-empty string")
        check_choice(self.kind, "kind", _KINDS)


def validate_schema(schema):
    """Check uniqueness and that exactly one column is the binary target."""
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise ValidationError("schema", f"duplicate column names: {names}")
    targets = [c.name for c in schema if c.kind == TARGET]
    if len(targets) != 1:
        raise ValidationError("schema", f"exactly one {TARGET} column required, got {targets}")


class Column:
    """One column's cells, in one of three typed layouts.

    - numeric: `values` float64, NaN for MISSING, and `vocab` None;
    - target: `values` int8 labels, -1 for MISSING, and `vocab` LABELS;
    - categorical: `values` int32 codes, -1 for MISSING, into `vocab`, a
      tuple of distinct strings.
    """

    __slots__ = ("values", "vocab")

    def __init__(self, values, vocab=None):
        self.values = values
        self.vocab = vocab

    @staticmethod
    def from_codes(codes, vocab):
        """The categorical Column whose cell i is vocab[codes[i]] (code -1: MISSING).

        `vocab` may repeat cells; the Column's vocabulary holds each once, in
        order of first appearance.
        """
        index = {}
        remap = np.array([index.setdefault(v, len(index)) for v in vocab] + [-1], dtype=np.int32)
        if len(index) == len(vocab):  # no repeats: codes stand
            return Column(codes, tuple(vocab))
        return Column(remap[codes], tuple(index))

    def __len__(self):
        return len(self.values)

    def missing(self):
        """Boolean mask of the MISSING cells."""
        return np.isnan(self.values) if self.vocab is None else self.values < 0

    def take(self, index):
        """The cells at a numpy index (integer array or boolean mask)."""
        return Column(self.values[index], self.vocab)

    def fits(self, kind):
        """Whether the Column has the layout of schema kind `kind`."""
        if getattr(self.values, "dtype", None) != _DTYPES[kind]:
            return False
        if kind == NUMERIC:
            return self.vocab is None
        return self.vocab == LABELS if kind == TARGET else isinstance(self.vocab, tuple)

    def cells(self, missing=MISSING):
        """The cells as a list of Python values, with `missing` for MISSING."""
        if self.vocab is None:
            out = self.values.tolist()
            for i in np.flatnonzero(np.isnan(self.values)).tolist():
                out[i] = missing
            return out
        lookup = self.vocab + (missing,)
        return list(map(lookup.__getitem__, self.values.tolist()))


class Dataset:
    """Rows of cells under a schema, stored column by column.

    `Dataset(schema, rows)` builds the columns from row tuples, parsing each
    cell as the CSV token `str(cell)` ("" for MISSING), so `1` in a numeric
    column is stored as 1.0 and `"yes"` in the target column as MISSING.
    `from_columns` takes typed Columns ready-made. `rows` and `column()`
    rebuild Python cells on demand.
    """

    __slots__ = ("schema", "_columns")

    def __init__(self, schema, rows):
        schema = tuple(schema)
        validate_schema(schema)
        rows = [tuple(r) for r in rows]
        for i, row in enumerate(rows):
            if len(row) != len(schema):
                raise MalformedRow(i, f"expected {len(schema)} cells, got {len(row)}")
        cells = list(zip(*rows)) if rows else [()] * len(schema)
        self.schema = schema
        self._columns = tuple(_parse_cells(c, col.kind) for c, col in zip(cells, schema))

    @classmethod
    def from_columns(cls, schema, columns):
        """Dataset over one Column per schema column, each of its kind's layout, used as it is."""
        d = cls.__new__(cls)
        d.schema = tuple(schema)
        validate_schema(d.schema)
        d._columns = tuple(columns)
        if len(d._columns) != len(d.schema):
            raise ValueError(f"expected {len(d.schema)} columns, got {len(d._columns)}")
        if len({len(c) for c in d._columns}) != 1:
            raise ValueError("columns differ in length")
        for col, column in zip(d.schema, d._columns):
            if not column.fits(col.kind):
                raise ValueError(f"column {col.name!r} lacks the layout of a {col.kind} column")
        return d

    def __repr__(self):
        return f"Dataset({self.row_count} rows, columns={self.column_names})"

    @property
    def rows(self):
        """Tuple of row tuples, one cell per schema column (built on each access)."""
        return tuple(zip(*(c.cells() for c in self._columns)))

    @property
    def row_count(self):
        return len(self._columns[0])

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
        return self._columns[self.column_index(name)].cells()

    def column_data(self, name):
        """The stored Column of `name`."""
        return self._columns[self.column_index(name)]

    def replace_column(self, name, values):
        """New Dataset with one column's cells replaced (same schema).

        `values` is a sequence of cells, parsed as `Dataset(schema, rows)` parses
        them, or a Column, which is used as it is.
        """
        if len(values) != self.row_count:
            raise ValueError("replacement column has wrong length")
        j = self.column_index(name)
        if not isinstance(values, Column):
            values = _parse_cells(values, self.schema[j].kind)
        return Dataset.from_columns(self.schema, self._columns[:j] + (values,) + self._columns[j + 1 :])

    def take(self, indices):
        """Rows at `indices`, in that order (repeats allowed)."""
        return self._select(np.fromiter(indices, dtype=np.intp))

    def _select(self, index):
        return Dataset.from_columns(self.schema, [c.take(index) for c in self._columns])


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.2
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        check_number(self.test_fraction, "test_fraction", 0, 1)
        check_integer(self.seed, "seed")
        check_flag(self.stratified, "stratified")


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


class _ColumnParser(dict):
    """Raw token -> stored value of one column: each distinct token is parsed once.

    Stored values are float64 (NaN for MISSING) for numeric columns, int8
    labels and int32 vocabulary codes (-1 for MISSING) for the others.
    """

    def __init__(self, kind):
        super().__init__()
        self.kind = kind
        self.vocab = {}  # categorical cell -> code
        self.parts = []

    def __missing__(self, token):
        cell = _parse_cell(token, self.kind)
        if cell is MISSING:
            value = math.nan if self.kind == NUMERIC else -1
        elif self.kind == CATEGORICAL:
            value = self.vocab.setdefault(cell, len(self.vocab))
        else:
            value = cell
        self[token] = value
        return value

    def add(self, tokens):
        dtype = _DTYPES[self.kind]
        self.parts.append(np.fromiter(map(self.__getitem__, tokens), dtype, len(tokens)))
        if len(self) > _MEMO_TOKENS:
            self.clear()

    def column(self):
        dtype = _DTYPES[self.kind]
        values = np.concatenate(self.parts) if self.parts else np.empty(0, dtype)
        if self.kind == NUMERIC:
            return Column(values)
        return Column(values, LABELS if self.kind == TARGET else tuple(self.vocab))


def _parse_cells(cells, kind):
    """The Column of `kind` whose cells are `cells` parsed as the CSV tokens
    `str(cell)`, with "" for MISSING."""
    parser = _ColumnParser(kind)
    parser.add(["" if c is MISSING else str(c) for c in cells])
    return parser.column()


def load_csv(path, schema):
    """Read an RFC-4180-style CSV into a Dataset, parsing cells per column kind.

    The header must contain exactly the schema's column names (any order).
    Unparseable or empty cells become MISSING. Rows are read in blocks of
    _CHUNK_ROWS and each block is parsed column by column.
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
        parsers = [_ColumnParser(c.kind) for c in schema]
        start = 0
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {len(header)}:
                i = next(k for k, raw in enumerate(chunk) if len(raw) != len(header))
                raise MalformedRow(start + i, f"expected {len(header)} cells, got {len(chunk[i])}")
            tokens = list(zip(*chunk))
            for parser, j in zip(parsers, order):
                parser.add(tokens[j])
            start += len(chunk)
    return Dataset.from_columns(schema, [p.column() for p in parsers])


def drop_missing(d):
    """Keep exactly the rows with no MISSING cell; order preserved. Idempotent."""
    missing = np.zeros(d.row_count, dtype=bool)
    for c in d._columns:
        missing |= c.missing()
    return d._select(~missing) if missing.any() else d


def cast_columns(d, schema):
    """`d` itself, since every Column is stored typed; raises UnknownColumn for
    a schema column that `d` lacks."""
    for col in schema:
        d.column_index(col.name)
    return d


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def _fisher_yates(n, rng):
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def target_labels(d):
    """The target column as int8 labels 0/1.

    Raises UncastTarget naming the first row whose target is MISSING.
    """
    labels = d.column_data(d.target_name).values
    bad = np.flatnonzero(labels < 0)
    if bad.size:
        raise UncastTarget(f"target cell of row {bad[0]} is MISSING, not in {{0, 1}}")
    return labels


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
    rng = random.Random(int(spec.seed))  # a numpy integer is not a valid seed

    if not spec.stratified:
        shuffled = _fisher_yates(n, rng)
        test_idx = np.sort(np.array(shuffled[:n_test], dtype=np.intp))
    else:
        labels = target_labels(d)
        groups = {lab: np.flatnonzero(labels == lab) for lab in (0, 1)}
        # largest-remainder apportionment of n_test across labels
        quotas = {lab: spec.test_fraction * len(groups[lab]) for lab in (0, 1)}
        base = {lab: int(math.floor(quotas[lab])) for lab in (0, 1)}
        leftover = n_test - sum(base.values())
        by_remainder = sorted((0, 1), key=lambda lab: (-(quotas[lab] - base[lab]), lab))
        for lab in by_remainder[:leftover]:
            base[lab] += 1
        picked = []
        for lab in (0, 1):
            members = groups[lab]
            perm = _fisher_yates(len(members), rng)
            picked.append(members[np.array(perm[: base[lab]], dtype=np.intp)])
        test_idx = np.sort(np.concatenate(picked))

    in_test = np.zeros(n, dtype=bool)
    in_test[test_idx] = True
    return d._select(~in_test), d._select(test_idx)


def class_counts(d):
    """Label counts {0: ..., 1: ...}; requires a cast target column."""
    labels = target_labels(d)
    ones = int(np.count_nonzero(labels))
    return {0: len(labels) - ones, 1: ones}
