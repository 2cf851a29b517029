from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbtab import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    TARGET,
    ColumnSchema,
    Dataset,
    FeatureMatrix,
    drop_missing,
)
from imbtab.encoding import ENCODER_METHODS, ENCODER_MODES, OTHER_TOKEN
from imbtab.errors import (
    DimensionMismatch,
    EmptyCategoryList,
    EmptyDataset,
    NonFiniteFeature,
    NotCategorical,
    ReservedCategory,
    UnmappedCategory,
    UnseenCategory,
    ValidationError,
)
from imbtab.pipeline import EncoderSpec, FittedColumnEncoder, build_features
from imbtab.synth import DEFAULT_SCHEMA, generate_dataset

SCHEMA = (ColumnSchema("cat", CATEGORICAL), ColumnSchema("target", TARGET))
NUMERIC_DS = Dataset((ColumnSchema("x", NUMERIC), ColumnSchema("target", TARGET)), [(1.0, 0)])


def ds(cats, ys=None):
    ys = ys if ys is not None else [0] * len(cats)
    return Dataset(SCHEMA, list(zip(cats, ys)))


def fitted(train, column="cat", **spec):
    """The encoder of `EncoderSpec(column, **spec)` fitted on the Dataset `train`."""
    return FittedColumnEncoder(EncoderSpec(column, **spec)).fit(train)


def encode(enc, d):
    """The FeatureMatrix `build_features` writes for d's "cat" column with `enc`."""
    return build_features(d, SCHEMA, {"cat": enc})


def impacts(cats, ys):
    """The CategoryMap of an impact encoder fitted on `cats` with labels `ys`."""
    return fitted(ds(cats, ys), method="impact").category_map


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "names, values, error",
        [
            (("a",), np.array([1.0, 2.0]), DimensionMismatch),
            (("a", "b"), np.ones((2, 3)), DimensionMismatch),
            (("a",), np.array([[1.0], [np.nan]]), NonFiniteFeature),
            (("a",), np.array([[np.inf]]), NonFiniteFeature),
        ],
        ids=["1-D", "wrong-width", "nan", "inf"],
    )
    def test_a_malformed_matrix_is_rejected(self, names, values, error):
        with pytest.raises(error):
            FeatureMatrix(names, values)


class TestOneHot:
    def test_indicator_columns(self):
        d = ds(["a", "b", "a"])
        fm = encode(fitted(d), d)
        assert fm.column_names == ("cat=a", "cat=b")
        assert fm.values.tolist() == [[1, 0], [0, 1], [1, 0]]

    def test_partition_of_unity(self):
        d = ds(["a", "b", "c", "b"])
        fm = encode(fitted(d), d)
        assert np.all(fm.values.sum(axis=1) == 1.0)

    def test_lenient_unseen_is_zero_row(self):
        fm = encode(fitted(ds(["a", "b"])), ds(["c"]))
        assert fm.values.tolist() == [[0, 0]]

    def test_strict_unseen_raises(self):
        enc = fitted(ds(["a", "b"]), mode="strict")
        with pytest.raises(UnseenCategory):
            encode(enc, ds(["c"]))

    def test_strict_names_the_first_unseen_value_in_row_order(self):
        enc = fitted(ds(["a"]), mode="strict")
        d = ds(["d", "c", "a", "c"]).take([1, 0, 2])  # vocabulary order d, c, a; rows c, d, a
        with pytest.raises(UnseenCategory, match="'c'"):
            encode(enc, d)
        with pytest.raises(UnseenCategory, match="MISSING"):
            encode(enc, ds([MISSING, "z"]))

    def test_not_categorical(self):
        with pytest.raises(NotCategorical):
            fitted(NUMERIC_DS, "x")

    def test_empty_category_list(self):
        enc = fitted(ds([MISSING]))  # no category observed
        assert enc.categories == ()
        with pytest.raises(EmptyCategoryList):
            encode(enc, ds(["a"]))


class TestMergeRare:
    def test_below_threshold_merged(self):
        d = ds(["a"] * 10 + ["b", "c"])
        enc = fitted(d, min_count=2)
        assert enc.rare_mapping == {"b": OTHER_TOKEN, "c": OTHER_TOKEN}
        assert enc.categories == (OTHER_TOKEN, "a")
        assert encode(enc, d).values.tolist() == [[0, 1]] * 10 + [[1, 0]] * 2

    def test_min_count_one_is_identity(self):
        d = ds(["a", "b", "b"])
        enc = fitted(d, min_count=1)
        assert enc.rare_mapping == {}
        assert np.array_equal(encode(enc, d).values, encode(fitted(d), d).values)

    def test_degenerate_collapse(self):
        d = ds(["a", "b", "c"])
        enc = fitted(d, min_count=5)
        assert enc.categories == (OTHER_TOKEN,)
        assert encode(enc, d).values.tolist() == [[1], [1], [1]]

    def test_reserved_token_rejected(self):
        with pytest.raises(ReservedCategory):
            fitted(ds([OTHER_TOKEN, "a"]), min_count=1)

    def test_never_increases_distinct(self):
        d = ds(["a", "a", "b", "c", "c", "d"])
        for mc in range(1, 5):
            assert len(fitted(d, min_count=mc).categories) <= len(set(d.column("cat")))

    def test_not_categorical(self):
        with pytest.raises(NotCategorical):
            fitted(NUMERIC_DS, "x", min_count=1)


class TestGroupCategories:
    def test_substitution(self):
        d = ds(["d1", "d2", "d3"])
        enc = fitted(d, grouping={"d1": "north", "d2": "north"})
        assert enc.categories == ("d3", "north")
        assert encode(enc, d).values.tolist() == [[0, 1], [0, 1], [1, 0]]

    def test_empty_mapping_is_identity(self):
        d = ds(["d1", "d2"])
        enc = fitted(d, grouping={})
        assert enc.categories == ("d1", "d2")
        assert encode(enc, d).values.tolist() == [[1, 0], [0, 1]]

    def test_strict_unmapped_raises(self):
        with pytest.raises(UnmappedCategory):
            fitted(ds(["d3"]), grouping={"d1": "north"}, mode="strict")

    def test_strict_names_the_first_unmapped_value_in_row_order(self):
        d = ds(["d", "c", MISSING, "a"]).take([2, 1, 0, 3])  # rows MISSING, c, d, a
        with pytest.raises(UnmappedCategory, match="'c'"):
            fitted(d, grouping={"a": "g"}, mode="strict")

    @pytest.mark.parametrize("mode", ["Strict", "", None])
    def test_an_unknown_mode_raises(self, mode):
        with pytest.raises(ValidationError, match="mode"):
            EncoderSpec("cat", grouping={"a": "g"}, mode=mode)

    def test_groups_merge_in_the_vocabulary(self):
        d = ds(["a", "b", MISSING, "c"])
        enc = fitted(d, grouping={"a": "c", "b": "c"})
        assert enc.categories == ("c",)
        assert encode(enc, d).values.tolist() == [[1], [1], [0], [1]]

    def test_injective_identity_roundtrip(self):
        d = ds(["a", "b", "c"])
        enc = fitted(d, grouping={"a": "a", "b": "b", "c": "c"})
        assert enc.categories == ("a", "b", "c")
        assert np.array_equal(encode(enc, d).values, encode(fitted(d), d).values)


class TestImpactEncoding:
    def test_constant_target_zero_impacts(self):
        cmap = impacts(["a", "b", "a"], [1, 1, 1])
        assert all(entry[2] == 0.0 for entry in cmap.per_category.values())

    def test_hand_computed_example(self):
        cmap = impacts(["a", "a", "b"], [1, 0, 1])
        assert cmap.global_mean == pytest.approx(2 / 3)
        assert cmap.impact("a") == pytest.approx(1 / 2 - 2 / 3)
        assert cmap.impact("b") == pytest.approx(1 / 3)

    def test_antisymmetric_pair(self):
        cmap = impacts(["a", "b"], [1, 0])
        assert cmap.impact("a") == pytest.approx(0.5)
        assert cmap.impact("b") == pytest.approx(-0.5)

    def test_impact_is_cond_minus_global(self):
        cmap = impacts(list("aabbcc"), [1, 0, 1, 1, 0, 0])
        for n, cond, imp in cmap.per_category.values():
            assert imp == cond - cmap.global_mean  # exact, same floats

    def test_weighted_impacts_cancel(self):
        cmap = impacts(list("aababcb"), [1, 0, 1, 1, 0, 0, 1])
        total = sum(n * imp for n, _, imp in cmap.per_category.values())
        assert abs(total) < 1e-9

    def test_counts_and_means_recombine(self):
        cmap = impacts(list("xxyzzz"), [1, 1, 0, 1, 0, 0])
        n_total = sum(n for n, _, _ in cmap.per_category.values())
        assert n_total == 6
        weighted = sum(n * m for n, m, _ in cmap.per_category.values())
        assert abs(weighted - n_total * cmap.global_mean) < 1e-9

    def test_row_order_invariance(self):
        cats, ys = list("abcabca"), [1, 0, 0, 1, 1, 0, 0]
        a = impacts(cats, ys)
        perm = [3, 0, 6, 2, 5, 1, 4]
        b = impacts([cats[i] for i in perm], [ys[i] for i in perm])
        assert a.per_category == b.per_category
        assert a.global_mean == b.global_mean

    def test_apply_lookup(self):
        enc = fitted(ds(["a", "a", "b"], [1, 0, 1]), method="impact")
        fm = encode(enc, ds(["b", "a"]))
        assert fm.column_names == ("cat~impact",)
        assert fm.values[:, 0] == pytest.approx([1 / 3, -1 / 6])

    def test_apply_unseen_gets_fallback_zero(self):
        enc = fitted(ds(["a", "b"], [1, 0]), method="impact")
        assert encode(enc, ds(["c"])).values[0, 0] == 0.0

    def test_missing_cells_get_the_fallback(self):
        d = ds(["a", MISSING, "b", "a"], [1, 0, 1, 0])
        enc = fitted(d, method="impact")
        cmap = enc.category_map
        assert list(cmap.per_category) == ["a", "b"]
        assert cmap.global_mean == 0.5
        assert cmap.per_category["a"] == (2, 0.5, 0.0)
        assert cmap.per_category["b"] == (1, 1.0, 0.5)
        assert encode(enc, d).values[:, 0].tolist() == [0.0, 0.0, 0.5, 0.0]

    def test_apply_empty(self):
        enc = fitted(ds(["a", "b"], [1, 0]), method="impact")
        assert encode(enc, Dataset(SCHEMA, [])).n_rows == 0

    def test_apply_not_categorical(self):
        schema = (ColumnSchema("x", CATEGORICAL), ColumnSchema("target", TARGET))
        enc = fitted(Dataset(schema, [("a", 1)]), "x", method="impact")
        with pytest.raises(NotCategorical):
            build_features(NUMERIC_DS, schema, {"x": enc})

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            fitted(Dataset(SCHEMA, []), method="impact")

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.integers(0, 1)), min_size=1, max_size=60
        )
    )
    def test_property_weighted_impacts_cancel(self, pairs):
        cmap = impacts([c for c, _ in pairs], [y for _, y in pairs])
        total = sum(n * imp for n, _, imp in cmap.per_category.values())
        assert abs(total) < 1e-9


# The perfbench workloads' encoders; strict grouping needs every level mapped.
SCHOOL = {"primary": "school", "high_school": "school", "masters": "postgrad", "phd": "postgrad"}
PERFBENCH_SPECS = [
    EncoderSpec("company_size", method="impact"),
    EncoderSpec("gender", min_count=5),
    EncoderSpec("education_level", grouping=SCHOOL),
    EncoderSpec("education_level", grouping={**SCHOOL, "graduate": "graduate"}, mode="strict"),
    EncoderSpec("major_discipline"),
]


def outcome(build):
    """What `build()` returns, or the type and message of the error it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def reference_block(train, d, method, mode, min_count, grouping):
    """The "cat" block an encoder of these settings, fitted on `train`, writes
    for `d`, and the fitted state `fitted_state` reads: ([column names], rows,
    state), computed cell by cell in plain Python."""

    def regroup(cells):
        if not grouping:
            return cells
        if mode == "strict":
            unmapped = [v for v in cells if v is not MISSING and v not in grouping]
            if unmapped:
                raise UnmappedCategory(f"'cat': {unmapped[0]!r} has no group")
        return [grouping.get(v, v) for v in cells]

    fit_cells, labels = regroup(train.column("cat")), list(train.column("target"))
    rare = {}
    if min_count:
        counts = Counter(v for v in fit_cells if v is not MISSING)
        if OTHER_TOKEN in counts:
            raise ReservedCategory(f"{OTHER_TOKEN!r} occurs as a raw category in 'cat'")
        rare = {v: OTHER_TOKEN for v, n in counts.items() if n < min_count}
    fit_cells = [rare.get(v, v) for v in fit_cells]
    cells = [rare.get(v, v) for v in regroup(d.column("cat"))]
    observed = sorted({v for v in fit_cells if v is not MISSING})
    if method == "onehot":
        if not observed:
            raise EmptyCategoryList(
                "'cat': no category was fitted: the training split has no rows,"
                " or none with a value in this column"
            )
        unseen = [v for v in cells if v not in observed]
        if mode == "strict" and unseen:
            raise UnseenCategory(f"'cat': {unseen[0]!r} not in fitted vocabulary")
        state = (rare, tuple(observed))
        rows = [[float(v == c) for c in observed] for v in cells]
        return [f"cat={c}" for c in observed], rows, state
    global_mean = sum(labels) / len(labels)
    per_category = []
    for c in observed:
        ys = [y for v, y in zip(fit_cells, labels) if v == c]
        per_category.append((c, (len(ys), sum(ys) / len(ys), sum(ys) / len(ys) - global_mean)))
    impact = {c: entry[2] for c, entry in per_category}
    state = (rare, per_category)
    return ["cat~impact"], [[impact.get(v, 0.0)] for v in cells], state


def fitted_state(enc):
    """The fitted fields `fingerprint()` hashes: the rare mapping, and the
    one-hot categories or the impact map's (category, (count, cond_mean,
    impact)) pairs in their order."""
    if enc.spec.method == "onehot":
        return enc.rare_mapping, enc.categories
    return enc.rare_mapping, list(enc.category_map.per_category.items())


class TestFittedColumnEncoder:
    @pytest.mark.parametrize("spec", PERFBENCH_SPECS, ids=lambda s: f"{s.column}-{s.mode}")
    def test_fit_and_write_build_no_dataset(self, spec, monkeypatch):
        data = drop_missing(generate_dataset(400, seed=3, missing_rate=0.02))
        train, test = data.take(range(300)), data.take(range(300, data.row_count))
        schema = [c for c in DEFAULT_SCHEMA if c.kind != CATEGORICAL or c.name == spec.column]
        expected = [
            build_features(d, schema, {spec.column: FittedColumnEncoder(spec).fit(train)})
            for d in (train, test)
        ]

        def no_dataset(*args):
            raise AssertionError("Dataset.from_columns called")

        monkeypatch.setattr(Dataset, "from_columns", no_dataset)
        encoders = {spec.column: FittedColumnEncoder(spec).fit(train)}
        for d, fm in zip((train, test), expected):
            out = build_features(d, schema, encoders)
            assert out.column_names == fm.column_names
            assert np.array_equal(out.values, fm.values)

    @settings(max_examples=200, deadline=None)
    @given(
        train=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d", MISSING]), st.integers(0, 1)),
            min_size=1,
            max_size=30,
        ),
        test=st.lists(st.sampled_from(["a", "b", "c", "e", MISSING]), max_size=20),
        method=st.sampled_from(ENCODER_METHODS),
        mode=st.sampled_from(ENCODER_MODES),
        min_count=st.integers(0, 3),
        grouping=st.dictionaries(st.sampled_from("abcd"), st.sampled_from(["a", "g", OTHER_TOKEN])),
    )
    def test_block_matches_a_pure_python_reference(
        self, train, test, method, mode, min_count, grouping
    ):
        train_d = ds([c for c, _ in train], [y for _, y in train])
        spec = EncoderSpec("cat", method, min_count, grouping, mode)

        def block(d):
            enc = FittedColumnEncoder(spec).fit(train_d)
            fm = encode(enc, d)
            return list(fm.column_names), fm.values.tolist(), fitted_state(enc)

        def reference(d):
            return reference_block(train_d, d, method, mode, min_count, grouping)

        for d in (train_d, ds(test)):
            assert outcome(lambda: block(d)) == outcome(lambda: reference(d))
