"""Behaviour of the data layer, pinned against a row-wise reference.

Three kinds of check hold any rework of how a `Dataset` stores its cells to
the same results:

- golden digests of `prepare`'s training matrix and test rows (encoded with
  its fitted encoders), labels, column names and encoder fingerprints on a
  CSV full of awkward cells, and of the bytes
  `write_csv` writes for a seeded synthetic dataset;
- a property test of `load_csv(...).rows` against `_reference_load`, a copy
  of the row-at-a-time parser kept here as the reference, malformed-row
  indices included;
- round trips of `take` and `drop_missing` through `.rows`, where a Dataset
  built in memory casts each cell as the reference parser casts the token
  `str(cell)` ("" for MISSING), and a property test that every such Column
  has one of the three typed layouts and that a grouping encoder fitted on it
  gets a vocabulary of sorted, distinct strings.

Cells are compared by type and repr, so `1`, `1.0` and `True`, or `0.0` and
`-0.0`, count as different cells.
"""

import csv
import hashlib
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imbtab.data
from imbtab import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    TARGET,
    ColumnSchema,
    Dataset,
    cast_columns,
    drop_missing,
    load_csv,
    parse_config,
)
from imbtab.data import LABELS, target_labels
from imbtab.encoding import EncoderSpec, FittedColumnEncoder, build_features
from imbtab.errors import MalformedRow
from imbtab.pipeline import prepare
from imbtab.synth import DEFAULT_SCHEMA, generate_dataset, write_csv

# --- reference: the row-at-a-time parser --------------------------------------


def _reference_cell(token, kind):
    token = token.strip()
    if token in ("", "NaN"):
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


def _reference_load(path, schema):
    """Rows of `path` as tuples of parsed cells, schema order; MalformedRow(i) as before."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        order = [header.index(c.name) for c in schema]
        rows = []
        for i, raw in enumerate(reader):
            if len(raw) != len(header):
                raise MalformedRow(i, f"expected {len(header)} cells, got {len(raw)}")
            rows.append(tuple(_reference_cell(raw[j], c.kind) for j, c in zip(order, schema)))
    return tuple(rows)


def typed(rows):
    """Rows with each cell as (type, repr): tells 1 from 1.0 and 0.0 from -0.0."""
    return [tuple((type(c).__name__, repr(c)) for c in row) for row in rows]


# --- golden digests -----------------------------------------------------------

AWKWARD_SCHEMA = [
    {"name": "score", "kind": "numeric"},
    {"name": "city", "kind": "categorical"},
    {"name": "size", "kind": "categorical"},
    {"name": "gender", "kind": "categorical"},
    {"name": "years", "kind": "numeric"},
    {"name": "edu", "kind": "categorical"},
    {"name": "flag", "kind": "categorical"},
    {"name": "target", "kind": "binary-target"},
]

NUMERIC_SPECIALS = ["NaN", "", "inf", "-inf", "1e400", "-0.0", "0.0", " 2.5 ", "abc", "1_0"]
CITIES = ["Paris, FR", " Lyon ", "Nice", "St. Malo, FR", "Metz"]
SIZES = ["<10", "10-49", "50-99", "100+", "1000+"]
GENDERS = ["male", "female", "other", "x", "NaN"]
RARE = {"size": ["tiny", "huge"], "gender": ["unknown"], "city": ["Brest"]}  # below min_count
EDU = ["primary", "high_school", "graduate", "masters", " phd "]
FLAGS = ["on", "off", "1", "1.0"]
TARGETS = ["0", "1", " 1 ", "yes", "2", "1.0", "-0.0", "", "0.0"]


def _quote(token, rng):
    if "," in token or rng.random() < 0.1:
        return '"' + token.replace('"', '""') + '"'
    return token


def _awkward_token(rng, name):
    if name in ("score", "years"):
        if rng.random() < 0.04:
            return rng.choice(NUMERIC_SPECIALS)
        return repr(round(rng.uniform(-5, 40), rng.choice((0, 1, 3))))
    if name == "target":
        return rng.choice(TARGETS) if rng.random() < 0.08 else rng.choice(["0", "0", "0", "1"])
    pool = {"city": CITIES, "size": SIZES, "gender": GENDERS, "edu": EDU, "flag": FLAGS}[name]
    u = rng.random()
    if u < 0.01:
        return rng.choice(["", "NaN", "  "])
    if u < 0.02 and name in RARE:
        return rng.choice(RARE[name])
    return rng.choice(pool)


def write_awkward_csv(path, rows=3000, seed=11):
    rng = random.Random(seed)
    names = [c["name"] for c in AWKWARD_SCHEMA]
    header = list(reversed(names))  # header order differs from schema order
    lines = [",".join(header)]
    for _ in range(rows):
        lines.append(",".join(_quote(_awkward_token(rng, n), rng) for n in header))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


AWKWARD_ENCODERS = [
    {"column": "size", "method": "impact", "min_count": 30},
    {"column": "gender", "method": "onehot", "min_count": 40},
    {
        "column": "edu",
        "mode": "strict",
        "grouping": {
            "primary": "school",
            "high_school": "school",
            "graduate": "graduate",
            "masters": "postgrad",
            "phd": "postgrad",
        },
    },
    {"column": "flag", "method": "onehot", "mode": "strict"},
]

GOLDEN_PREPARE = {
    False: "13d86554c851359a6b1d6dbf85eee49df77c4eecc4aefa1b8a8e775476fece91",
    True: "c5cb8ee82fab750d77e9287cc5e6af0cd6dd9de5f207f475a86f9b88b56bd5cf",
}
GOLDEN_SYNTH_CSV = "8b353a7ecd231fd40fc21d417ff8a7a29bccfa6ef1504f273a1cce7f6e2079e7"


def _prepare_digest(data, schema):
    X_test = build_features(data.test, schema, data.encoders)
    h = hashlib.sha256()
    for part in (
        data.X_train.values.tobytes(),
        X_test.values.tobytes(),
        np.asarray(data.y_train, dtype=np.int64).tobytes(),
        np.asarray(target_labels(data.test), dtype=np.int64).tobytes(),
        json.dumps([data.X_train.column_names, X_test.column_names]).encode(),
        json.dumps({c: e.fingerprint() for c, e in sorted(data.encoders.items())}).encode(),
        json.dumps([data.rows_loaded, data.rows_after_clean]).encode(),
    ):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


@pytest.mark.parametrize("stratified", [False, True])
def test_prepare_digest_on_awkward_csv(tmp_path, stratified):
    path = tmp_path / "awkward.csv"
    write_awkward_csv(path)
    doc = {
        "dataset": str(path),
        "schema": AWKWARD_SCHEMA,
        "target": "target",
        "split": {"test_fraction": 0.3, "seed": 5, "stratified": stratified},
        "encoders": AWKWARD_ENCODERS,
        "models": [{"family": "lr"}],
    }
    cfg = parse_config(json.dumps(doc))
    assert _prepare_digest(prepare(cfg), cfg.schema) == GOLDEN_PREPARE[stratified]


def test_write_csv_digest(tmp_path):
    path = tmp_path / "synth.csv"
    write_csv(generate_dataset(2000, seed=3, missing_rate=0.05), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SYNTH_CSV


def test_awkward_csv_loads_like_the_reference(tmp_path):
    path = tmp_path / "awkward.csv"
    write_awkward_csv(path, rows=800, seed=3)
    schema = [ColumnSchema(c["name"], c["kind"]) for c in AWKWARD_SCHEMA]
    assert typed(load_csv(path, schema).rows) == typed(_reference_load(path, schema))


def test_cast_of_a_loaded_dataset_changes_no_cell(tmp_path):
    path = tmp_path / "synth.csv"
    write_csv(generate_dataset(20_000, seed=8, missing_rate=0.02), path)
    raw = load_csv(path, DEFAULT_SCHEMA)
    cast = cast_columns(raw, DEFAULT_SCHEMA)
    assert typed(cast.rows) == typed(raw.rows)


# --- property test: load_csv against the reference ----------------------------

PROP_SCHEMA = (
    ColumnSchema("x", NUMERIC),
    ColumnSchema("c", CATEGORICAL),
    ColumnSchema("t", TARGET),
)

TOKENS = st.sampled_from(
    ["", " ", "NaN", " NaN ", "nan", "inf", "-inf", "1e400", "-0.0", "0.0", "0", "1", "1.0",
     " 1 ", "2", "yes", "a", " a", "a,b", 'say "hi"', "1e-3", "-7.25", "x y", "1_0", "0x1",
     # NUL bytes: csv.reader keeps them, so "a" and "a\0" are different tokens
     "a\x00", "\x00", "1\x00", "abcdefgh\x00",
     # non-ASCII, and lengths around the tokenizer's 8-byte words
     "é", " naïve ", "日本語", "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq",
     "0.12345678901234567", "Zürich-Ünterstraß, 12", " 12345678.125 "]
)
EOLS = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3)


def _csv_line(cells, quote_all=False):
    out = []
    for c in cells:
        needs = quote_all or any(ch in c for ch in ',"')
        out.append('"' + c.replace('"', '""') + '"' if needs else c)
    return ",".join(out)


def _unquoted(cells):
    return [c.replace(",", ";").replace('"', "'") for c in cells]


@settings(max_examples=400, deadline=None)
@given(
    header=st.permutations(["x", "c", "t"]),
    rows=st.lists(
        st.lists(TOKENS, min_size=2, max_size=4).map(tuple), min_size=0, max_size=25
    ),
    widths_ok=st.booleans(),
    quote_from=st.none() | st.integers(0, 25),
    blank_at=st.none() | st.integers(0, 25),
    eols=EOLS,
    final_eol=st.booleans(),
    block_bytes=st.sampled_from([1, 9, 64, 1 << 20]),
)
def test_load_csv_matches_the_reference_parser(
    tmp_path_factory, header, rows, widths_ok, quote_from, blank_at, eols, final_eol, block_bytes
):
    """Rows before `quote_from` have no `"` byte, so the numpy tokenizer reads
    them; csv.reader reads from the block of the first quoted row on."""
    if widths_ok:
        rows = [tuple((list(r) + ["0"] * 3)[:3]) for r in rows]
    lines = [
        _csv_line(r, quote_all=i == quote_from)
        if quote_from is not None and i >= quote_from
        else ",".join(_unquoted(r))
        for i, r in enumerate(rows)
    ]
    if blank_at is not None and blank_at <= len(lines):
        lines.insert(blank_at, "")
    lines.insert(0, ",".join(header))
    text = "".join(line + eols[i % len(eols)] for i, line in enumerate(lines))
    if not final_eol:
        text = text.removesuffix(eols[(len(lines) - 1) % len(eols)])
    path = tmp_path_factory.mktemp("prop") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(imbtab.data, "_BLOCK_BYTES", block_bytes):
        try:
            expected = _reference_load(path, PROP_SCHEMA)
        except MalformedRow as exc:
            with pytest.raises(MalformedRow) as got:
                load_csv(path, PROP_SCHEMA)
            assert got.value.row_index == exc.row_index
            return
        assert typed(load_csv(path, PROP_SCHEMA).rows) == typed(expected)


@pytest.mark.parametrize("alphabet", ["abé ", "a\x00"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), block_bytes=st.sampled_from([32, 1 << 20]))
def test_every_distinct_token_stays_distinct(tmp_path_factory, alphabet, data, block_bytes):
    """Tokens that differ in any byte or only in length get different cells,
    and equal tokens the same cell: "a" and "a\0" too, so a block with a NUL
    byte must not go to the numpy tokenizer."""
    cells = data.draw(st.lists(st.text(alphabet, max_size=23), min_size=1, max_size=40))
    path = tmp_path_factory.mktemp("tokens") / "d.csv"
    path.write_bytes("".join(["c,t\r\n"] + [f"{c},0\r\n" for c in cells]).encode("utf-8"))
    schema = (ColumnSchema("c", CATEGORICAL), ColumnSchema("t", TARGET))
    with mock.patch.object(imbtab.data, "_BLOCK_BYTES", block_bytes):
        column = load_csv(path, schema).column_data("c")
    assert column.cells() == [c.strip() or MISSING for c in cells]
    assert column.vocab == tuple(dict.fromkeys(c.strip() for c in cells if c.strip()))


def test_tokens_that_differ_in_one_byte_stay_distinct(tmp_path):
    tokens = ["a" * n for n in range(1, 26)]
    tokens += ["a" * i + "b" + "a" * (n - i - 1) for n in range(1, 26) for i in range(n)]
    path = tmp_path / "d.csv"
    path.write_text("".join(["c,t\n"] + [f"{c},0\n" for c in tokens + tokens[::-1]]))
    schema = (ColumnSchema("c", CATEGORICAL), ColumnSchema("t", TARGET))
    column = load_csv(path, schema).column_data("c")
    assert column.vocab == tuple(tokens)
    assert column.cells() == tokens + tokens[::-1]


@pytest.mark.parametrize("block_bytes", [4096, 1 << 20])
def test_a_write_csv_file_loads_like_the_reference(tmp_path, monkeypatch, block_bytes):
    """`write_csv` ends lines with CRLF and quotes nothing: the benchmark's CSVs."""
    path = tmp_path / "synth.csv"
    write_csv(generate_dataset(3000, seed=4, missing_rate=0.05), path)
    assert b'"' not in path.read_bytes() and path.read_bytes().count(b"\r\n") == 3001
    monkeypatch.setattr(imbtab.data, "_BLOCK_BYTES", block_bytes)
    assert typed(load_csv(path, DEFAULT_SCHEMA).rows) == typed(_reference_load(path, DEFAULT_SCHEMA))


# --- round trips through .rows --------------------------------------------------

MIXED_SCHEMA = (
    ColumnSchema("x", NUMERIC),
    ColumnSchema("c", CATEGORICAL),
    ColumnSchema("t", TARGET),
)

CELLS = st.sampled_from(
    [MISSING, 0.0, -0.0, 1.0, 2.5, 1, 0, True, False, "a", "b", " a", "1", "1.0", "0", float("inf")]
)
ROWS = st.lists(st.tuples(CELLS, CELLS, CELLS), min_size=0, max_size=30)


def _cast(cell, kind):
    return _reference_cell("" if cell is MISSING else str(cell), kind)


def cast(rows):
    """Rows as a Dataset built in memory stores them: each cell parsed as a CSV token."""
    return [tuple(_cast(c, col.kind) for c, col in zip(row, MIXED_SCHEMA)) for row in rows]


def assert_typed(d):
    """Every Column of `d` has the typed layout of its schema kind."""
    for col in d.schema:
        column = d.column_data(col.name)
        if col.kind == NUMERIC:
            assert column.values.dtype == np.float64 and column.vocab is None
            assert np.all(np.isfinite(column.values) | np.isnan(column.values))
        elif col.kind == TARGET:
            assert column.values.dtype == np.int8 and column.vocab is LABELS
            assert set(column.values.tolist()) <= {-1, 0, 1}
        else:
            assert column.values.dtype == np.int32 and isinstance(column.vocab, tuple)
            assert all(type(v) is str for v in column.vocab)
            assert len(set(column.vocab)) == len(column.vocab)
            assert np.all((column.values >= -1) & (column.values < len(column.vocab)))


@settings(max_examples=150, deadline=None)
@given(rows=ROWS)
def test_rows_round_trip(rows):
    assert typed(Dataset(MIXED_SCHEMA, rows).rows) == typed(cast(rows))


@settings(max_examples=150, deadline=None)
@given(rows=ROWS, data=st.data())
def test_take_round_trip(rows, data):
    d = Dataset(MIXED_SCHEMA, rows)
    idx = data.draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=40)) if rows else []
    assert typed(d.take(idx).rows) == typed([cast(rows)[i] for i in idx])


@settings(max_examples=150, deadline=None)
@given(rows=ROWS)
def test_drop_missing_round_trip(rows):
    kept = [r for r in cast(rows) if not any(c is MISSING for c in r)]
    assert typed(drop_missing(Dataset(MIXED_SCHEMA, rows)).rows) == typed(kept)


@settings(max_examples=150, deadline=None)
@given(rows=ROWS, data=st.data())
def test_every_column_built_in_memory_is_typed(rows, data):
    d = Dataset(MIXED_SCHEMA, rows)
    assert_typed(d)
    assert_typed(drop_missing(d))
    groups = st.dictionaries(st.sampled_from(["a", "b", "1"]), st.sampled_from(["a", "g"]))
    grouping = data.draw(groups)
    enc = FittedColumnEncoder(EncoderSpec("c", grouping=grouping)).fit(d)
    groups_seen = {grouping.get(v, v) for v in d.column("c") if v is not MISSING}
    assert enc.categories == tuple(sorted(groups_seen))
    assert all(type(v) is str for v in enc.categories)
