"""Tabular data model: schema-typed datasets, CSV ingestion, cleaning, splitting.

A Dataset stores one typed array per column (a `Column`): float64 with NaN
for MISSING in numeric columns, int32 codes into a tuple of distinct strings
with -1 for MISSING in categorical columns, and int8 labels with -1 for
MISSING in the target column. Cells become a Column one way only: they are
parsed as CSV tokens by `_ColumnParser`, which `load_csv` feeds the file's
tokens and a Dataset built in memory feeds `str(cell)` ("" for MISSING).
`column()` and `rows` give the cells back as Python values, with the MISSING
sentinel. Datasets are treated as immutable; every operation returns a new
Dataset. `train_test_split` puts in the test split the rows that shuffling
each label group's row numbers, held in an `array.array`, with one seeded
`random.Random` would put at the head of the group; each group makes only the
swaps that fix its training rows, and the last only their draws.

`load_csv` reads the header with `csv.reader`; if that reads past the first
line end (a quoted line break or a lone CR), the same reader reads the rest.
Otherwise the body is read in byte blocks cut at line ends. A UTF-8 block
with no `"` byte, no NUL byte and no CR outside CRLF is split into cells with
numpy, and each distinct token of a column is decoded and parsed once per
block. The distinct tokens are found with one sort per column and block
(`_token_ids`): each token's 8-byte words fold into one mixed uint64 key; a
key of one word is exact, and longer tokens are checked word for word
against the first token with their key, falling back to one sort per word
when two distinct tokens share one. From the first block that fails any of
those, `csv.reader`, the only path that handles quoting, reads the rest of
the same block stream, decoding one line and checking one row's width at a
time. Both paths give the cells that `csv.reader` gives, and raise the
first fault in file order: a malformed row, with its index, or bytes that
are not UTF-8.
"""

from __future__ import annotations

import array
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

# Bytes load_csv splits with numpy per block. Blocks bound the index arrays
# held at once: loading a 200k-row, 12 MB CSV peaked at 19.0 MB of tracemalloc
# with 1 MiB blocks (the csv.reader loop: 18.6 MB) and at 83.5 MB with 16 MiB
# blocks; 64 KiB blocks loaded it about 40% slower (2-vCPU Xeon).
_BLOCK_BYTES = 1 << 20
# Rows csv.reader parses per block, from the first byte block it must read
# on. Blocks bound the raw cell strings held at once; on a 2-vCPU Xeon,
# 32k-row blocks loaded 200k rows about 2x slower.
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
    rebuild Python cells on demand. `take`, `drop_missing` and
    `train_test_split` only select rows; no operation replaces a column's
    cells, and the encoders read the stored Columns through `column_data`.
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
        check_integer(self.seed, "seed", minimum=0)
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

    def lookup(self, tokens):
        """The stored values of `tokens`, as an array."""
        values = np.fromiter(map(self.__getitem__, tokens), _DTYPES[self.kind], len(tokens))
        if len(self) > _MEMO_TOKENS:
            self.clear()
        return values

    def add(self, tokens):
        self.parts.append(self.lookup(tokens))

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


def _line_blocks(fh, size):
    """The rest of `fh` in blocks of about `size` bytes, each ending at a line
    end; the last one gets a LF when the file lacks a final line end."""
    rest = b""
    while data := fh.read(size):
        data = rest + data
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        rest = data[cut:]
    if rest:
        yield rest + b"\n"


# words[p] & _MASKS[n] keeps the n bytes of the little-endian word at byte p
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# The odd multiplier that mixes a token's words into one key (the 64-bit
# golden ratio, as in Fibonacci hashing). Mixed keys also sort faster than raw
# words: numpy's argsort of a low-cardinality column of raw words is slow.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _first_seen(key):
    """(first, ids): `ids` numbers the distinct values of `key` in order of
    first appearance, and `first[i]` is the index where value i first appears."""
    order = np.argsort(key)
    ordered = key[order]
    head = np.empty(len(key), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    ids = np.empty(len(key), dtype=np.intp)
    ids[order] = rank[np.cumsum(head) - 1]
    return first[by_first], ids


def _token_words(words, starts, lengths):
    """The tokens of `lengths` bytes at `starts` as 8-byte words masked to
    their length: a list of (tokens,) uint64 arrays, first word first; a
    token shorter than the longest has zero words past its end."""
    token_words = []
    low = np.zeros_like(lengths)  # where the next word starts, or the token's end
    for k in range(8, max(int(lengths.max()), 1) + 8, 8):
        high = np.minimum(lengths, k)
        # a word past the token's end reads at its end, which is in the block
        token_words.append(words[starts + low] & _MASKS[high - low])
        low = high
    return token_words


def _token_ids(words, starts, lengths):
    """`_first_seen` of the tokens of `lengths` bytes at `starts`: equal ids
    for equal bytes. With no NUL byte in the block, equal masked words
    (`_token_words`) mean equal lengths too.

    The words fold into one key, `key = (key ^ word) * _MIX` mod 2**64,
    numbered by one `_first_seen`. A one-word token's key is its word times
    an odd number, a bijection mod 2**64, so those ids are exact. Longer
    tokens are checked: every word of every token must equal that word of
    its id's first token. If one differs, two distinct tokens share a key,
    and the ids are found again one word at a time, each word's ids combined
    with those of the words before it."""
    token_words = _token_words(words, starts, lengths)
    key = token_words[0] * _MIX  # wraps mod 2**64
    for word in token_words[1:]:
        key ^= word
        key *= _MIX
    first, ids = _first_seen(key)
    if len(token_words) == 1:
        return first, ids
    head = first[ids]
    if all(np.array_equal(word[head], word) for word in token_words):
        return first, ids
    first, ids = _first_seen(token_words[0])
    for word in token_words[1:]:
        word_first, word_ids = _first_seen(word)
        first, ids = _first_seen(ids * len(word_first) + word_ids)
    return first, ids


def _block_cells(block, width, start):
    """Start and length of each cell of `block`, a run of whole lines, as two
    (width, rows) arrays, so that each column's cells are contiguous; None if
    csv.reader must read it (it holds a `"`, a NUL byte, bytes that are not
    UTF-8, a CR outside CRLF or a cell over csv's field limit). Raises
    MalformedRow, whose row index counts the `start` rows before the block."""
    a = np.frombuffer(block, dtype=np.uint8)
    if (a == ord('"')).any() or not a.all():
        return None
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return None
    cr = np.flatnonzero(a == ord("\r"))
    if (a[cr + 1] != ord("\n")).any():
        return None
    ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
    line_ends = np.flatnonzero(a[ends] == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends[np.searchsorted(ends, cr + 1)] -= 1  # a CRLF line's last cell ends before the CR
    lengths = ends - starts
    del ends  # so that the copies below never hold more than three index arrays
    if lengths.max() > csv.field_size_limit():
        return None
    widths = np.diff(line_ends, prepend=-1)
    widths[(widths == 1) & (lengths[line_ends] == 0)] = 0  # csv.reader gives [] for a blank line
    bad = np.flatnonzero(widths != width)
    if bad.size:
        i = int(bad[0])
        raise MalformedRow(start + i, f"expected {width} cells, got {widths[i]}")
    starts = starts.reshape(-1, width).T.copy()
    lengths = lengths.reshape(-1, width).T.copy()
    return starts, lengths


def _read_blocks(blocks, width, parsers, order):
    """Feed `parsers` the cells of `blocks`, split with numpy, up to the first
    block csv.reader must read; returns the row count and the blocks from
    that one on."""
    rows = 0
    for block in blocks:
        cells = _block_cells(block, width, rows)
        if cells is None:
            return rows, itertools.chain([block], blocks)
        words = np.ndarray(len(block), "<u8", block + bytes(7), 0, (1,))
        for parser, j in zip(parsers, order):
            starts, lengths = cells[0][j], cells[1][j]
            first, ids = _token_ids(words, starts, lengths)
            spans = zip(starts[first].tolist(), lengths[first].tolist())
            tokens = [block[s : s + n].decode("utf-8") for s, n in spans]
            parser.parts.append(parser.lookup(tokens)[ids])
        rows += cells[0].shape[1]
    return rows, ()


def _csv_reader(blocks):
    """csv.reader over the lines of `blocks`, split after CR, LF or CRLF as
    `newline=""` splits them, each decoded as it is read."""
    lines = itertools.chain.from_iterable(block.splitlines(keepends=True) for block in blocks)
    return csv.reader(map(bytes.decode, lines))  # UTF-8


def _rows_of_width(reader, width, start):
    """The rows of `reader`, each checked for `width` cells as it is read;
    MalformedRow's row index counts the `start` rows before them."""
    for i, row in enumerate(reader, start):
        if len(row) != width:
            raise MalformedRow(i, f"expected {width} cells, got {len(row)}")
        yield row


def load_csv(path, schema):
    """Read an RFC-4180-style CSV into a Dataset, parsing cells per column kind.

    The header must contain exactly the schema's column names (any order),
    each once. Unparseable or empty cells become MISSING. The body is read in
    blocks, each parsed column by column (see the module docstring), and the
    cells are those csv.reader gives.
    """
    schema = tuple(schema)
    validate_schema(schema)
    with open(path, "rb") as fh:
        first = fh.readline()
        blocks = _line_blocks(fh, _BLOCK_BYTES)
        reader = _csv_reader(itertools.chain([first], blocks))
        header = [h.strip() for h in next(reader, [])]
        wanted = {c.name for c in schema}
        got = set(header)
        repeated = {h for h in got if header.count(h) > 1}
        if wanted != got or repeated:
            raise HeaderMismatch(missing=wanted - got, extra=got - wanted, repeated=repeated)
        order = [header.index(c.name) for c in schema]
        parsers = [_ColumnParser(c.kind) for c in schema]
        start = 0
        if reader.line_num <= 1 and len(first.splitlines()) == 1:  # the header read no block
            start, blocks = _read_blocks(blocks, len(header), parsers, order)
            reader = _csv_reader(blocks)
        rows = _rows_of_width(reader, len(header), start)
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            tokens = list(zip(*chunk))
            for parser, j in zip(parsers, order):
                parser.add(tokens[j])
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

    The test rows are those that `random.Random(spec.seed).shuffle` of each
    label group's row numbers in turn (all rows unless stratified) puts at the
    head of the group, up to its quota. A shuffle fixes position i at its step
    i, from the last position down, and no later step moves it; so once the
    steps down to the quota have run, the rows behind the quota are the
    training rows, and the rows in front of it the test rows as a set. Each
    group makes only those steps. Every group but the last then makes the
    rest of its shuffle's draws, without their swaps, since the next group's
    draws start from the state its whole shuffle leaves.
    """
    n = d.row_count
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    n_test = _round_half_up(spec.test_fraction * n)
    rng = random.Random(int(spec.seed))  # a numpy integer is not a valid seed

    if not spec.stratified:
        groups, quotas = [np.arange(n)], [n_test]
    else:
        labels = target_labels(d)
        groups = [np.flatnonzero(labels == lab) for lab in (0, 1)]
        # largest-remainder apportionment of n_test across labels
        shares = [spec.test_fraction * len(members) for members in groups]
        quotas = [math.floor(share) for share in shares]
        by_remainder = sorted((0, 1), key=lambda lab: (-(shares[lab] - quotas[lab]), lab))
        for lab in by_remainder[: n_test - sum(quotas)]:
            quotas[lab] += 1
    # each group's row numbers as an array.array (8 bytes a row, where a list
    # holds an int object per row), copied from the numpy array's bytes
    groups = [array.array("q", rows.astype(np.int64).tobytes()) for rows in groups]
    in_test = np.zeros(n, dtype=bool)
    randbelow = rng._randbelow  # what rng.shuffle draws with
    for members, quota in zip(groups, quotas):
        if quota:
            # the steps of rng.shuffle(members) from its last position down to `quota`
            for i in range(len(members) - 1, quota - 1, -1):
                j = randbelow(i + 1)
                members[i], members[j] = members[j], members[i]
            in_test[np.frombuffer(members, np.int64)[:quota]] = True
        if members is not groups[-1]:
            # the rest of the shuffle's draws, which the next group's start from
            for bound in range(quota or len(members), 1, -1):
                randbelow(bound)
    return d._select(~in_test), d._select(in_test)


def class_counts(d):
    """Label counts {0: ..., 1: ...}; requires a cast target column."""
    labels = target_labels(d)
    ones = int(np.count_nonzero(labels))
    return {0: len(labels) - ones, 1: ones}
