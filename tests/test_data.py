import csv
import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import imbtab.data
from imbtab import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    TARGET,
    Column,
    ColumnSchema,
    Dataset,
    SplitSpec,
    cast_columns,
    class_counts,
    drop_missing,
    load_csv,
    train_test_split,
)
from imbtab.data import LABELS
from imbtab.errors import (
    EmptyDataset,
    HeaderMismatch,
    MalformedRow,
    UncastTarget,
    UnknownColumn,
    ValidationError,
)
from imbtab.synth import DEFAULT_SCHEMA, _calibrate_intercept, generate_dataset, write_csv

SCHEMA2 = (ColumnSchema("gender", CATEGORICAL), ColumnSchema("target", TARGET))
SCHEMA_ID = (ColumnSchema("id", NUMERIC), ColumnSchema("target", TARGET))
SCHEMA3 = (
    ColumnSchema("x", NUMERIC),
    ColumnSchema("gender", CATEGORICAL),
    ColumnSchema("target", TARGET),
)


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "gender,target\nm,1\nf,0\nm,1\n")
        d = load_csv(path, SCHEMA2)
        assert d.row_count == 3
        assert d.column("gender") == ["m", "f", "m"]
        assert d.column("target") == [1, 0, 1]

    def test_header_order_insensitive(self, tmp_path):
        path = write(tmp_path, "target,gender\n1,m\n")
        d = load_csv(path, SCHEMA2)
        assert d.rows[0] == ("m", 1)

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "gender,label\nm,1\n")
        with pytest.raises(HeaderMismatch) as exc:
            load_csv(path, SCHEMA2)
        assert exc.value.missing == ["target"]
        assert exc.value.extra == ["label"]

    @pytest.mark.parametrize("body", ["1,2,0\n", '"1",2,0\n'], ids=["unquoted", "quoted"])
    def test_a_repeated_header_name_raises(self, tmp_path, body):
        path = write(tmp_path, "x,x,target\n" + body)
        schema = (ColumnSchema("x", NUMERIC), ColumnSchema("target", TARGET))
        with pytest.raises(HeaderMismatch, match="repeated") as exc:
            load_csv(path, schema)
        assert exc.value.repeated == ["x"]

    def test_empty_numeric_cell_is_missing(self, tmp_path):
        path = write(tmp_path, "x,gender,target\n,m,1\n0.92,f,0\n")
        d = load_csv(path, SCHEMA3)
        assert d.rows[0][0] is MISSING
        assert d.rows[1][0] == 0.92

    def test_nan_token_is_missing(self, tmp_path):
        path = write(tmp_path, "x,gender,target\nNaN,m,1\n")
        d = load_csv(path, SCHEMA3)
        assert d.rows[0][0] is MISSING

    def test_bad_target_is_missing(self, tmp_path):
        path = write(tmp_path, "gender,target\nm,yes\n")
        d = load_csv(path, SCHEMA2)
        assert d.rows[0][1] is MISSING

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/file.csv", SCHEMA2)

    @pytest.mark.parametrize(
        "setting,size,quoted_row",
        [pytest.param("_CHUNK_ROWS", n, 0, id=str(n)) for n in (1, 3, 4, 64)]
        + [
            pytest.param("_BLOCK_BYTES", n, q, id=f"bytes{n}-quoted{q}")
            for n in (1, 16, 100)
            for q in (None, 11)
        ],
    )
    def test_blocks_and_memo_resets_give_the_same_cells(
        self, tmp_path, monkeypatch, setting, size, quoted_row
    ):
        """csv.reader reads from the block of `quoted_row` on, the numpy tokenizer before it."""
        lines = ["x,gender,target"]
        for i in range(23):
            gender = f'"{"abc"[i % 3]} "' if i == quoted_row else f"{'abc'[i % 3]} "
            lines.append(f"{i % 7 * 0.5},{gender},{i % 2}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        expected = load_csv(path, SCHEMA3).rows
        monkeypatch.setattr(imbtab.data, setting, size)
        monkeypatch.setattr(imbtab.data, "_MEMO_TOKENS", 2)
        d = load_csv(path, SCHEMA3)
        assert d.rows == expected
        assert d.column("gender")[:4] == ["a", "b", "c", "a"]
        assert d.column("target")[9:12] == [1, 0, 1]

    @pytest.mark.parametrize(
        "setting,size,quoted,tail",
        [pytest.param("_CHUNK_ROWS", n, True, b"", id=str(n)) for n in (1, 4, 1024)]
        + [pytest.param("_BLOCK_BYTES", n, False, b"", id=f"bytes{n}") for n in (1, 8, 1 << 20)]
        + [
            pytest.param(setting, 1 << 20, quoted, b"\xff,1\n", id=f"{setting}-non-utf8-after")
            for setting, quoted in (("_CHUNK_ROWS", True), ("_BLOCK_BYTES", False))
        ],
    )
    def test_malformed_row_index_counts_across_blocks(
        self, tmp_path, monkeypatch, setting, size, quoted, tail
    ):
        lines = ["gender,target"] + ['"m",1' if quoted else "m,1"] * 9 + ["m,1,extra"] + ["m"]
        path = tmp_path / "d.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode() + tail)
        monkeypatch.setattr(imbtab.data, setting, size)
        with pytest.raises(MalformedRow) as exc:
            load_csv(path, SCHEMA2)
        assert exc.value.row_index == 9

    @pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
    @pytest.mark.parametrize("malformed_first", [True, False], ids=["malformed-first", "non-utf8-first"])
    def test_the_first_fault_in_file_order_raises(self, tmp_path, quoted, malformed_first):
        # one quoted cell hands the file to csv.reader; the error must not depend on it
        faults = [b"m,1,extra\n", b"\xff,1\n"]
        body = [b'"m",1\n' if quoted else b"m,1\n"] + faults[:: 1 if malformed_first else -1]
        path = tmp_path / "d.csv"
        path.write_bytes(b"gender,target\n" + b"".join(body))
        if malformed_first:
            with pytest.raises(MalformedRow) as exc:
                load_csv(str(path), SCHEMA2)
            assert exc.value.row_index == 1
        else:
            with pytest.raises(UnicodeDecodeError):
                load_csv(str(path), SCHEMA2)

    def test_a_cell_over_the_csv_field_limit_raises_as_csv_reader_does(self, tmp_path):
        path = write(tmp_path, "gender,target\n" + "m" * (csv.field_size_limit() + 1) + ",1\n")
        with pytest.raises(csv.Error, match="field limit"):
            load_csv(path, SCHEMA2)

    def test_a_quoted_header_leaves_an_unquoted_body_to_the_blocks(self, tmp_path, monkeypatch):
        path = write(tmp_path, '"x y","gen,der",target\n0.5,m,1\n,f,0\n2,m,\n')
        schema = (
            ColumnSchema("x y", NUMERIC),
            ColumnSchema("gen,der", CATEGORICAL),
            ColumnSchema("target", TARGET),
        )
        read, rows_read = imbtab.data._read_blocks, []

        def spy(*args):
            rows, rest = read(*args)
            rows_read.append(rows)
            return rows, rest

        monkeypatch.setattr(imbtab.data, "_read_blocks", spy)
        d = load_csv(path, schema)
        assert rows_read == [3]
        with open(path, newline="") as fh:
            assert d.rows == Dataset(schema, list(csv.reader(fh))[1:]).rows

    @pytest.mark.parametrize(
        "text, first_name",
        [('"x\ny",gender,target\n0.5,m,1\n,f,0\n', "x\ny"), ("x,gender,target\r0.5,m,1\n,f,0\n", "x")],
        ids=["quoted-line-break", "lone-cr"],
    )
    def test_a_header_past_the_first_line_leaves_the_body_to_csv_reader(
        self, tmp_path, monkeypatch, text, first_name
    ):
        # reading the header takes csv.reader past the first line end, so that
        # reader reads the body too; the numpy blocks never run
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        schema = (ColumnSchema(first_name, NUMERIC),) + SCHEMA3[1:]
        monkeypatch.setattr(imbtab.data, "_read_blocks", None)
        d = load_csv(str(path), schema)
        with open(path, newline="") as fh:
            assert d.rows == Dataset(schema, list(csv.reader(fh))[1:]).rows
        assert d.rows == ((0.5, "m", 1), (MISSING, "f", 0))

    @pytest.mark.parametrize(
        "text, error",
        [
            ("x,gen\rder,target\n0.5,m,1\n", HeaderMismatch),
            ('"x\ny",gender,target\n0.5,m,1,extra\n', MalformedRow),
        ],
        ids=["lone-cr", "quoted-line-break"],
    )
    def test_a_header_past_the_first_line_raises_as_csv_reader_reads(self, tmp_path, text, error):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        schema = (ColumnSchema("x\ny", NUMERIC),) + SCHEMA3[1:]
        with pytest.raises(error) as exc:
            load_csv(str(path), schema)
        if error is HeaderMismatch:  # csv.reader ends the header at the CR
            assert (exc.value.missing, exc.value.extra) == (["gender", "target", "x\ny"], ["gen", "x"])
        else:
            assert exc.value.row_index == 0

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_a_blank_line_is_a_malformed_row(self, tmp_path, eol):
        path = write(tmp_path, eol.join(["target", "1", "0", "", "1"]) + eol)
        with pytest.raises(MalformedRow, match="got 0") as exc:
            load_csv(path, (ColumnSchema("target", TARGET),))
        assert exc.value.row_index == 2


class TestDropMissing:
    def test_drops_rows_with_any_missing(self):
        d = Dataset(SCHEMA2, [("m", 1), (MISSING, 0), ("f", 0)])
        out = drop_missing(d)
        assert out.rows == (("m", 1), ("f", 0))

    def test_identity_when_complete(self):
        d = Dataset(SCHEMA2, [("m", 1), ("f", 0)])
        assert drop_missing(d).rows == d.rows

    def test_all_missing_gives_empty(self):
        d = Dataset(SCHEMA2, [(MISSING, 1), ("f", MISSING)])
        assert drop_missing(d).row_count == 0

    def test_idempotent(self):
        d = Dataset(SCHEMA2, [("m", 1), (MISSING, 0)])
        once = drop_missing(d)
        assert drop_missing(once).rows == once.rows


class TestCastColumns:
    def test_target_strings_to_ints(self):
        d = Dataset(SCHEMA2, [("m", "0"), ("f", "1")])
        out = cast_columns(d, SCHEMA2)
        assert out.column("target") == [0, 1]

    def test_uncastable_target_becomes_missing(self):
        d = Dataset(SCHEMA2, [("m", "yes")])
        out = cast_columns(d, SCHEMA2)
        assert out.rows[0][1] is MISSING
        assert drop_missing(out).row_count == 0

    def test_numeric_string(self):
        d = Dataset(SCHEMA3, [("0.92", "m", "1")])
        out = cast_columns(d, SCHEMA3)
        assert out.rows[0][0] == 0.92

    def test_unknown_column(self):
        d = Dataset(SCHEMA2, [("m", 1)])
        with pytest.raises(UnknownColumn):
            cast_columns(d, (ColumnSchema("nope", NUMERIC),))

    def test_each_distinct_cell_is_parsed_once(self, monkeypatch):
        calls = []
        parse = imbtab.data._parse_cell
        monkeypatch.setattr(imbtab.data, "_parse_cell", lambda t, k: calls.append(t) or parse(t, k))
        d = Dataset(SCHEMA3, [("0.5", " m", "1"), ("0.5", "m", "1"), ("x", " m", 0)])
        out = cast_columns(d, SCHEMA3)
        assert sorted(calls) == sorted(["0.5", "x", " m", "m", "1", "0"])
        assert out.rows == ((0.5, "m", 1), (0.5, "m", 1), (MISSING, "m", 0))

    def test_typed_columns_of_a_loaded_dataset_are_not_parsed(self, tmp_path, monkeypatch):
        # shaped like the 200k-row scoring benchmark: 10 columns, 2% of cells blank
        path = tmp_path / "hr.csv"
        write_csv(generate_dataset(200_000, seed=4, missing_rate=0.02), path)
        raw = load_csv(path, DEFAULT_SCHEMA)
        calls = []
        parse = imbtab.data._parse_cell
        monkeypatch.setattr(imbtab.data, "_parse_cell", lambda t, k: calls.append(t) or parse(t, k))
        assert cast_columns(raw, DEFAULT_SCHEMA) is raw
        assert calls == []


def make_labeled(n_pos, n_neg):
    rows = [("a", 1)] * n_pos + [("b", 0)] * n_neg
    return Dataset(SCHEMA2, rows)


def _fisher_yates(n, rng):
    """The split's earlier draw routine: a permutation of range(n) from one
    `rng.randint(0, i)` per position i, from the last position down."""
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def _groups_and_quotas(labels, fraction, stratified):
    """Each label group's row numbers (one group of all rows unless
    stratified) and its test quota, by largest remainder."""
    n = len(labels)
    n_test = int(np.floor(fraction * n + 0.5))
    if not stratified:
        return [list(range(n))], [n_test]
    groups = [[i for i, lab in enumerate(labels) if lab == g] for g in (0, 1)]
    shares = [fraction * len(g) for g in groups]
    quotas = [int(np.floor(share)) for share in shares]
    ranked = sorted((0, 1), key=lambda g: (quotas[g] - shares[g], g))
    for g in ranked[: n_test - sum(quotas)]:
        quotas[g] += 1
    return groups, quotas


class _Recording(random.Random):
    """A `random.Random` that keeps the bound of each bounded draw and its
    state from before the draw."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def _randbelow(self, n):
        self.draws.append((n, self.getstate()))
        return super()._randbelow(n)


class TestTrainTestSplit:
    def test_reference_split_sizes(self):
        d = make_labeled(1400, 7555)  # 8955 rows
        train, test = train_test_split(d, SplitSpec(0.2, seed=0))
        assert (train.row_count, test.row_count) == (7164, 1791)

    def test_zero_fraction(self):
        d = make_labeled(2, 3)
        train, test = train_test_split(d, SplitSpec(0.0))
        assert test.row_count == 0
        assert train.rows == d.rows

    def test_stratified_balanced(self):
        d = make_labeled(50, 50)
        _, test = train_test_split(d, SplitSpec(0.2, seed=1, stratified=True))
        assert class_counts(test) == {0: 10, 1: 10}

    def test_exact_partition(self):
        d = make_labeled(13, 29)
        train, test = train_test_split(d, SplitSpec(0.3, seed=9))
        merged = sorted(train.rows + test.rows)
        assert merged == sorted(d.rows)
        assert train.row_count + test.row_count == d.row_count

    def test_seed_determinism(self):
        d = make_labeled(40, 60)
        a = train_test_split(d, SplitSpec(0.25, seed=7))
        b = train_test_split(d, SplitSpec(0.25, seed=7))
        assert a[0].rows == b[0].rows and a[1].rows == b[1].rows

    def test_counts_additive(self):
        d = make_labeled(33, 67)
        train, test = train_test_split(d, SplitSpec(0.4, seed=2))
        total = {k: class_counts(train)[k] + class_counts(test)[k] for k in (0, 1)}
        assert total == class_counts(d)

    def test_empty_dataset(self):
        d = Dataset(SCHEMA2, [])
        with pytest.raises(EmptyDataset):
            train_test_split(d, SplitSpec(0.2))

    @settings(max_examples=150, deadline=None)
    @given(
        labels=st.lists(st.sampled_from((0, 1)), min_size=1, max_size=60),
        fraction=st.floats(0, 1),
        seed=st.integers(0, 2**70),
        stratified=st.booleans(),
    )
    @example(labels=[0, 0, 1, 0, 0, 0, 1] * 8, fraction=0.2, seed=7, stratified=True)
    @example(labels=[0, 0, 1, 0, 0, 0, 1] * 8, fraction=0.9, seed=7, stratified=True)
    def test_rows_match_fisher_yates_per_label_group(self, labels, fraction, seed, stratified):
        d = Dataset(SCHEMA_ID, [(i, lab) for i, lab in enumerate(labels)])
        made = []

        def recording(x):
            made.append(_Recording(x))
            return made[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(imbtab.data, "random", types.SimpleNamespace(Random=recording))
            _, test = train_test_split(d, SplitSpec(fraction, seed=seed, stratified=stratified))

        # the reference: the same quotas, each label group's rows in turn
        groups, quotas = _groups_and_quotas(labels, fraction, stratified)
        ref = _Recording(seed)
        expected, after_group = [], []
        for group, quota in zip(groups, quotas):
            expected += [group[j] for j in _fisher_yates(len(group), ref)[:quota]]
            after_group.append(ref.getstate())
        assert sorted(int(i) for i in test.column("id")) == sorted(expected)

        # each group but the last makes every draw of its whole shuffle; the
        # last makes one draw per position from its end down to its quota,
        # and none at quota 0
        *earlier, last = groups
        last_quota = quotas[-1]
        bounds = [i + 1 for g in earlier for i in range(len(g) - 1, 0, -1)]
        if last_quota:
            bounds += [i + 1 for i in range(len(last) - 1, last_quota - 1, -1)]
        (rng,) = made
        assert [bound for bound, _ in rng.draws] == bounds
        # every draw starts from the reference's state before the same draw
        assert rng.draws == ref.draws[: len(bounds)]
        # and nothing else is drawn: the split ends where the reference stood
        # after those draws
        end = ref.draws[len(bounds)][1] if len(ref.draws) > len(bounds) else ref.getstate()
        assert rng.getstate() == end
        if stratified:  # where the second group's shuffle starts
            first_draws = max(len(groups[0]) - 1, 0)
            after_first = rng.draws[first_draws][1] if len(rng.draws) > first_draws else rng.getstate()
            assert after_first == after_group[0]

    @pytest.mark.parametrize("n", [2, 3, 4097, 20_000])
    @pytest.mark.parametrize("stratified", [False, True])
    def test_rows_match_a_whole_shuffle_at_every_quota(self, n, stratified):
        # the hypothesis test stops at 60 rows; here the quota also comes
        # within one row of a large group's either end
        labels = (np.random.default_rng(n).random(n) < 0.3).astype(np.int8)
        labels[:2] = (0, 1)
        columns = [Column(np.arange(n, dtype=np.float64)), Column(labels, LABELS)]
        d = Dataset.from_columns(SCHEMA_ID, columns)
        for fraction in (0.0, 1 / n, 0.2, 0.9, 1 - 1 / n, 1.0):
            groups, quotas = _groups_and_quotas(labels.tolist(), fraction, stratified)
            for seed in (0, 12345):
                # the split as a whole shuffle of each group, its head the test rows
                rng, expected = random.Random(seed), []
                for group, quota in zip(groups, quotas):
                    order = list(group)
                    rng.shuffle(order)
                    expected += order[:quota]
                _, test = train_test_split(d, SplitSpec(fraction, seed=seed, stratified=stratified))
                assert test.column_data("id").values.tolist() == sorted(expected)


class TestClassCounts:
    def test_counts(self):
        d = Dataset(SCHEMA2, [("a", 1), ("b", 0), ("c", 1)])
        assert class_counts(d) == {0: 1, 1: 2}

    def test_empty(self):
        assert class_counts(Dataset(SCHEMA2, [])) == {0: 0, 1: 0}

    def test_uncast_target(self):
        d = Dataset(SCHEMA2, [("a", "1"), ("b", MISSING)])
        assert d.column("target") == [1, MISSING]
        with pytest.raises(UncastTarget, match="row 1"):
            class_counts(d)


class TestDatasetRows:
    def test_a_row_of_the_wrong_width_raises_with_its_index(self):
        with pytest.raises(MalformedRow, match="expected 2 cells, got 3") as exc:
            Dataset(SCHEMA2, [("m", "1"), ("f", "0"), ("m", "1", "x")])
        assert exc.value.row_index == 2


class TestFromColumns:
    def test_typed_columns_are_used_as_they_are(self):
        x = Column(np.array([1.5, np.nan]))
        gender = Column(np.array([1, -1], dtype=np.int32), ("f", "m"))
        target = Column(np.array([0, 1], dtype=np.int8), LABELS)
        d = Dataset.from_columns(SCHEMA3, [x, gender, target])
        assert d.column_data("gender") is gender
        assert d.rows == ((1.5, "m", 0), (MISSING, MISSING, 1))

    @pytest.mark.parametrize(
        "name, column",
        [
            ("target", Column(np.array([0, 1], dtype=np.int32), ("x", "y"))),
            ("target", Column(np.array([0, 1], dtype=np.int8))),
            ("x", Column(np.array([0, 1], dtype=np.int32), ("x", "y"))),
            ("x", Column(np.array([0, 1]))),
            ("gender", Column(np.array([0.0, 1.0]))),
            ("gender", Column(np.array([0, 1], dtype=np.int8), LABELS)),
            ("gender", Column(np.array([0, 1], dtype=np.int32), ["x", "y"])),
        ],
    )
    def test_a_layout_that_does_not_fit_the_kind_is_rejected(self, name, column):
        columns = {
            "x": Column(np.array([1.0, 2.0])),
            "gender": Column(np.array([0, 0], dtype=np.int32), ("f",)),
            "target": Column(np.array([0, 1], dtype=np.int8), LABELS),
            name: column,
        }
        with pytest.raises(ValueError, match=repr(name)):
            Dataset.from_columns(SCHEMA3, [columns[c.name] for c in SCHEMA3])

    def test_a_wrong_column_count_is_rejected(self):
        x = Column(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="expected 2 columns, got 1"):
            Dataset.from_columns(SCHEMA_ID, [x])

    def test_columns_of_unequal_length_are_rejected(self):
        x = Column(np.array([1.0, 2.0]))
        target = Column(np.array([0, 1, 1], dtype=np.int8), LABELS)
        with pytest.raises(ValueError, match="differ in length"):
            Dataset.from_columns(SCHEMA_ID, [x, target])


def _bisect_200_steps(scores, rate):
    """The generator's intercept bisection, run for all of its 200 steps."""
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.mean(1.0 / (1.0 + np.exp(-(scores + mid)))) < rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestGenerateDataset:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n=st.integers(1, 400),
        scale=st.sampled_from((0.0, 1e-3, 1.0, 5.0)),
        rate=st.one_of(st.floats(1e-9, 0.99), st.sampled_from((1e-9, 0.156, 0.5, 0.99))),
    )
    @example(seed=0, n=5, scale=0.0, rate=0.5)
    def test_the_intercept_is_the_200_step_bisection(self, seed, n, scale, rate):
        # all-zero scores at rate 0.5: the root is exactly 0
        scores = scale * np.random.default_rng(seed).normal(size=n)
        assert _calibrate_intercept(scores, rate) == _bisect_200_steps(scores, rate)

    @pytest.mark.parametrize(
        "kwargs, path",
        [
            (dict(rows=0), "rows"),
            (dict(rows=2.5), "rows"),
            (dict(rows=10, positive_rate=1.5), "positive_rate"),
            (dict(rows=10, positive_rate=0), "positive_rate"),
            (dict(rows=10, missing_rate=2), "missing_rate"),
            (dict(rows=10, missing_rate=-1), "missing_rate"),
            (dict(rows=10, missing_rate=float("nan")), "missing_rate"),
            (dict(rows=10, seed=-1), "seed"),
            (dict(rows=10, seed=1.5), "seed"),
        ],
    )
    def test_a_bad_argument_is_named(self, kwargs, path):
        with pytest.raises(ValidationError) as exc:
            generate_dataset(**kwargs)
        assert exc.value.path == path

    def test_missing_rate_one_blanks_every_feature_cell(self):
        d = generate_dataset(20, seed=np.int64(1), missing_rate=1)
        assert drop_missing(d).row_count == 0
        assert class_counts(d) == class_counts(generate_dataset(20, seed=1))
