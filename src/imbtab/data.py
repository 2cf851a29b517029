"""Tabular data model: schema-typed datasets, CSV ingestion, cleaning, splitting.

A Dataset stores one array per column (a `Column`): float64 with NaN for
MISSING in numeric columns, int32 codes into a vocabulary of distinct cells
with -1 for MISSING in categorical columns, and int8 labels with -1 for
MISSING in the target column. A column built in memory whose cells do not fit
its kind (uncast strings, say) is kept as codes into a vocabulary of the raw
cells. `column()` and `rows` give the cells back as Python values, with the
MISSING sentinel. Datasets are treated as immutable; every operation returns
a new Dataset.
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


def _key(cell):
    """Vocabulary key: cells that differ (1, 1.0, True; 0.0, -0.0) get different keys."""
    return (type(cell), repr(cell)) if isinstance(cell, float) else (type(cell), cell)


def _encode(cells):
    """(codes, vocab) of a sequence of cells: vocab holds each distinct cell once,
    in order of first appearance, and MISSING gets code -1."""
    index, vocab, codes = {}, [], []
    for cell in cells:
        if cell is MISSING:
            codes.append(-1)
            continue
        key = _key(cell)
        code = index.get(key)
        if code is None:
            code = index[key] = len(vocab)
            vocab.append(cell)
        codes.append(code)
    return np.array(codes, dtype=np.int32), tuple(vocab)


class Column:
    """One column's cells.

    When `vocab` is None, `values` is float64 with NaN for MISSING (a numeric
    column; its cells are finite floats). Otherwise `values` holds integer
    codes into the tuple `vocab`, -1 for MISSING; a cast target column has
    int8 codes and the vocabulary LABELS.
    """

    __slots__ = ("values", "vocab")

    def __init__(self, values, vocab=None):
        self.values = values
        self.vocab = vocab

    @staticmethod
    def from_codes(codes, vocab, kind):
        """The Column of `kind` whose cell i is vocab[codes[i]] (code -1: MISSING).

        `vocab` may repeat cells or contain MISSING. Numeric cells that are all
        finite floats become float64 values, target cells that are all the ints
        0 and 1 become int8 labels; other cells stay codes into a vocabulary
        holding each distinct cell once.
        """
        entries = tuple(vocab) + (MISSING,)
        if kind == NUMERIC and all(
            v is MISSING or (type(v) is float and math.isfinite(v)) for v in entries
        ):
            table = np.array([math.nan if v is MISSING else v for v in entries], dtype=np.float64)
            return Column(table[codes])
        if kind == TARGET and all(v is MISSING or (type(v) is int and v in LABELS) for v in entries):
            table = np.array([-1 if v is MISSING else v for v in entries], dtype=np.int8)
            return Column(table[codes], LABELS)
        remap, distinct = _encode(entries)
        if len(distinct) == len(entries) - 1:  # no repeats, no MISSING: codes stand
            return Column(codes, distinct)
        return Column(remap[codes], distinct)

    @staticmethod
    def from_cells(cells, kind):
        return Column.from_codes(*_encode(cells), kind)

    def __len__(self):
        return len(self.values)

    def missing(self):
        """Boolean mask of the MISSING cells."""
        return np.isnan(self.values) if self.vocab is None else self.values < 0

    def take(self, index):
        """The cells at a numpy index (integer array or boolean mask)."""
        return Column(self.values[index], self.vocab)

    def coded(self):
        """(codes, cells) with cell i equal to cells[codes[i]]: code -1 picks the
        trailing MISSING entry of `cells`. Numeric columns are coded on the fly."""
        if self.vocab is None:
            codes, vocab = _encode(self.cells())
            return codes, vocab + (MISSING,)
        return self.values, self.vocab + (MISSING,)

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

    `Dataset(schema, rows)` builds the columns from row tuples; `from_columns`
    takes them ready-made. `rows` and `column()` rebuild Python cells on demand.
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
        self._columns = tuple(Column.from_cells(c, col.kind) for c, col in zip(cells, schema))

    @classmethod
    def from_columns(cls, schema, columns):
        """Dataset over one Column per schema column, used as they are."""
        d = cls.__new__(cls)
        d.schema = tuple(schema)
        validate_schema(d.schema)
        d._columns = tuple(columns)
        if len(d._columns) != len(d.schema):
            raise ValueError(f"expected {len(d.schema)} columns, got {len(d._columns)}")
        if len({len(c) for c in d._columns}) != 1:
            raise ValueError("columns differ in length")
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

        `values` is a sequence of cells, or a Column, which is used as it is.
        """
        if len(values) != self.row_count:
            raise ValueError("replacement column has wrong length")
        j = self.column_index(name)
        if not isinstance(values, Column):
            values = Column.from_cells(values, self.schema[j].kind)
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

    _DTYPES = {NUMERIC: np.float64, TARGET: np.int8, CATEGORICAL: np.int32}

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
        dtype = self._DTYPES[self.kind]
        self.parts.append(np.fromiter(map(self.__getitem__, tokens), dtype, len(tokens)))
        if len(self) > _MEMO_TOKENS:
            self.clear()

    def column(self):
        dtype = self._DTYPES[self.kind]
        values = np.concatenate(self.parts) if self.parts else np.empty(0, dtype)
        if self.kind == NUMERIC:
            return Column(values)
        return Column(values, LABELS if self.kind == TARGET else tuple(self.vocab))


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
    """Re-cast cells of a dataset built in memory per schema kind; failures become MISSING.

    A column already stored as the kind's array (float64 for numeric, int8
    labels for the target) is returned unchanged, since each of its cells
    parses back to itself; any other column is parsed once per distinct cell.
    """
    known = set(d.column_names)
    for col in schema:
        if col.name not in known:
            raise UnknownColumn(col.name)
    columns = list(d._columns)
    for name, kind in {c.name: c.kind for c in schema}.items():
        j = d.column_index(name)
        column = columns[j]
        if (column.vocab is None and kind == NUMERIC) or (column.vocab is LABELS and kind == TARGET):
            continue
        codes, cells = column.coded()
        parsed = [_parse_cell(str(v), kind) for v in cells[:-1]]
        columns[j] = Column.from_codes(codes, parsed, d.schema[j].kind)
    return Dataset.from_columns(d.schema, columns)


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

    Raises UncastTarget naming the first cell, in row order, that is not 0 or 1.
    """
    column = d.column_data(d.target_name)
    codes, cells = column.coded()
    if column.vocab is LABELS:
        labels = codes
    else:
        labels = np.array([int(v) if v in LABELS else -1 for v in cells], dtype=np.int8)[codes]
    bad = np.flatnonzero(labels < 0)
    if bad.size:
        raise UncastTarget(f"target cell {cells[codes[bad[0]]]!r} is not in {{0, 1}}")
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
