from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbtab import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    TARGET,
    CategoryMap,
    ColumnSchema,
    Dataset,
    drop_missing,
    fit_categories,
    group_categories,
    impact_encode_apply,
    impact_encode_fit,
    merge_rare_categories,
    one_hot_encode,
)
from imbtab.encoding import ENCODER_METHODS, ENCODER_MODES, OTHER_TOKEN, rare_category_mapping
from imbtab.errors import (
    EmptyCategoryList,
    EmptyDataset,
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


class TestOneHot:
    def test_indicator_columns(self):
        fm = one_hot_encode(ds(["a", "b", "a"]), "cat", ["a", "b"])
        assert fm.column_names == ("cat=a", "cat=b")
        assert fm.values.tolist() == [[1, 0], [0, 1], [1, 0]]

    def test_partition_of_unity(self):
        d = ds(["a", "b", "c", "b"])
        fm = one_hot_encode(d, "cat", fit_categories(d, "cat"))
        assert np.all(fm.values.sum(axis=1) == 1.0)

    def test_lenient_unseen_is_zero_row(self):
        fm = one_hot_encode(ds(["c"]), "cat", ["a", "b"])
        assert fm.values.tolist() == [[0, 0]]

    def test_strict_unseen_raises(self):
        with pytest.raises(UnseenCategory):
            one_hot_encode(ds(["c"]), "cat", ["a", "b"], mode="strict")

    def test_strict_names_the_first_unseen_value_in_row_order(self):
        d = ds(["d", "c", "a", "c"]).take([1, 0, 2])  # vocabulary order d, c, a; rows c, d, a
        with pytest.raises(UnseenCategory, match="'c'"):
            one_hot_encode(d, "cat", ["a"], mode="strict")
        with pytest.raises(UnseenCategory, match="MISSING"):
            one_hot_encode(ds([MISSING, "z"]), "cat", ["a"], mode="strict")

    def test_not_categorical(self):
        with pytest.raises(NotCategorical):
            one_hot_encode(NUMERIC_DS, "x", ["1.0"])

    def test_empty_category_list(self):
        with pytest.raises(EmptyCategoryList):
            one_hot_encode(ds(["a"]), "cat", [])


class TestMergeRare:
    def test_below_threshold_merged(self):
        d = ds(["a"] * 10 + ["b", "c"])
        out = merge_rare_categories(d, "cat", min_count=2)
        col = out.column("cat")
        assert col[:10] == ["a"] * 10
        assert col[10:] == [OTHER_TOKEN, OTHER_TOKEN]

    def test_min_count_one_is_identity(self):
        d = ds(["a", "b", "b"])
        assert merge_rare_categories(d, "cat", 1).column("cat") == ["a", "b", "b"]

    def test_degenerate_collapse(self):
        d = ds(["a", "b", "c"])
        assert set(merge_rare_categories(d, "cat", 5).column("cat")) == {OTHER_TOKEN}

    def test_reserved_token_rejected(self):
        with pytest.raises(ReservedCategory):
            merge_rare_categories(ds([OTHER_TOKEN, "a"]), "cat", 1)

    def test_never_increases_distinct(self):
        d = ds(["a", "a", "b", "c", "c", "d"])
        for mc in range(1, 5):
            out = merge_rare_categories(d, "cat", mc)
            assert len(set(out.column("cat"))) <= len(set(d.column("cat")))

    def test_not_categorical(self):
        with pytest.raises(NotCategorical):
            merge_rare_categories(NUMERIC_DS, "x", 1)


class TestGroupCategories:
    def test_substitution(self):
        d = ds(["d1", "d2", "d3"])
        out = group_categories(d, "cat", {"d1": "north", "d2": "north"})
        assert out.column("cat") == ["north", "north", "d3"]

    def test_empty_mapping_is_identity(self):
        d = ds(["d1", "d2"])
        assert group_categories(d, "cat", {}).column("cat") == ["d1", "d2"]

    def test_strict_unmapped_raises(self):
        with pytest.raises(UnmappedCategory):
            group_categories(ds(["d3"]), "cat", {"d1": "north"}, mode="strict")

    def test_strict_names_the_first_unmapped_value_in_row_order(self):
        d = ds(["d", "c", MISSING, "a"]).take([2, 1, 0, 3])  # rows MISSING, c, d, a
        with pytest.raises(UnmappedCategory, match="'c'"):
            group_categories(d, "cat", {"a": "g"}, mode="strict")

    @pytest.mark.parametrize("mode", ["Strict", "", None])
    def test_an_unknown_mode_raises(self, mode):
        with pytest.raises(ValidationError, match="mode"):
            group_categories(ds(["a", "b"]), "cat", {"a": "g"}, mode=mode)

    def test_groups_merge_in_the_vocabulary(self):
        out = group_categories(ds(["a", "b", MISSING, "c"]), "cat", {"a": "c", "b": "c"})
        assert out.column("cat") == ["c", "c", MISSING, "c"]
        assert out.column_data("cat").vocab == ("c",)

    def test_non_string_group_raises_naming_the_category(self):
        with pytest.raises(TypeError, match="'a'"):
            group_categories(ds(["a", "b"]), "cat", {"a": 1})

    def test_injective_identity_roundtrip(self):
        d = ds(["a", "b", "c"])
        out = group_categories(d, "cat", {"a": "a", "b": "b", "c": "c"})
        assert out.column("cat") == d.column("cat")


class TestImpactEncoding:
    def test_constant_target_zero_impacts(self):
        cmap = impact_encode_fit(ds(["a", "b", "a"], [1, 1, 1]), "cat")
        assert all(entry[2] == 0.0 for entry in cmap.per_category.values())

    def test_hand_computed_example(self):
        cmap = impact_encode_fit(ds(["a", "a", "b"], [1, 0, 1]), "cat")
        assert cmap.global_mean == pytest.approx(2 / 3)
        assert cmap.impact("a") == pytest.approx(1 / 2 - 2 / 3)
        assert cmap.impact("b") == pytest.approx(1 / 3)

    def test_antisymmetric_pair(self):
        cmap = impact_encode_fit(ds(["a", "b"], [1, 0]), "cat")
        assert cmap.impact("a") == pytest.approx(0.5)
        assert cmap.impact("b") == pytest.approx(-0.5)

    def test_impact_is_cond_minus_global(self):
        cmap = impact_encode_fit(ds(list("aabbcc"), [1, 0, 1, 1, 0, 0]), "cat")
        for n, cond, imp in cmap.per_category.values():
            assert imp == cond - cmap.global_mean  # exact, same floats

    def test_weighted_impacts_cancel(self):
        cmap = impact_encode_fit(ds(list("aababcb"), [1, 0, 1, 1, 0, 0, 1]), "cat")
        total = sum(n * imp for n, _, imp in cmap.per_category.values())
        assert abs(total) < 1e-9

    def test_counts_and_means_recombine(self):
        cmap = impact_encode_fit(ds(list("xxyzzz"), [1, 1, 0, 1, 0, 0]), "cat")
        n_total = sum(n for n, _, _ in cmap.per_category.values())
        assert n_total == 6
        weighted = sum(n * m for n, m, _ in cmap.per_category.values())
        assert abs(weighted - n_total * cmap.global_mean) < 1e-9

    def test_row_order_invariance(self):
        cats, ys = list("abcabca"), [1, 0, 0, 1, 1, 0, 0]
        a = impact_encode_fit(ds(cats, ys), "cat")
        perm = [3, 0, 6, 2, 5, 1, 4]
        b = impact_encode_fit(ds([cats[i] for i in perm], [ys[i] for i in perm]), "cat")
        assert a.per_category == b.per_category
        assert a.global_mean == b.global_mean

    def test_apply_lookup(self):
        cmap = impact_encode_fit(ds(["a", "a", "b"], [1, 0, 1]), "cat")
        fm = impact_encode_apply(ds(["b", "a"]), cmap)
        assert fm.values[:, 0] == pytest.approx([1 / 3, -1 / 6])

    def test_apply_unseen_gets_fallback_zero(self):
        cmap = impact_encode_fit(ds(["a", "b"], [1, 0]), "cat")
        fm = impact_encode_apply(ds(["c"]), cmap)
        assert fm.values[0, 0] == 0.0

    def test_missing_cells_get_the_fallback(self):
        d = ds(["a", MISSING, "b", "a"], [1, 0, 1, 0])
        cmap = impact_encode_fit(d, "cat")
        assert list(cmap.per_category) == ["a", "b"]
        assert cmap.global_mean == 0.5
        assert cmap.per_category["a"] == (2, 0.5, 0.0)
        assert cmap.per_category["b"] == (1, 1.0, 0.5)
        assert impact_encode_apply(d, cmap).values[:, 0].tolist() == [0.0, 0.0, 0.5, 0.0]

    def test_apply_empty(self):
        cmap = impact_encode_fit(ds(["a", "b"], [1, 0]), "cat")
        fm = impact_encode_apply(Dataset(SCHEMA, []), cmap)
        assert fm.n_rows == 0

    def test_apply_not_categorical(self):
        with pytest.raises(NotCategorical):
            impact_encode_apply(NUMERIC_DS, CategoryMap("x", 0.0, OrderedDict()))

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataset):
            impact_encode_fit(Dataset(SCHEMA, []), "cat")

    def test_json_roundtrip(self):
        cmap = impact_encode_fit(ds(list("aab"), [1, 0, 1]), "cat")
        back = CategoryMap.from_json(cmap.to_json())
        assert back.column == cmap.column
        assert back.global_mean == cmap.global_mean
        assert dict(back.per_category) == dict(cmap.per_category)

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcd"), st.integers(0, 1)), min_size=1, max_size=60
        )
    )
    def test_property_weighted_impacts_cancel(self, pairs):
        cats = [c for c, _ in pairs]
        ys = [y for _, y in pairs]
        cmap = impact_encode_fit(ds(cats, ys), "cat")
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


def outcome(encode):
    """(column names, values) of the FeatureMatrix `encode()` returns, or the
    type of the error it raises."""
    try:
        fm = encode()
    except Exception as exc:
        return type(exc)
    return fm.column_names, fm.values.tolist()


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
        fitted = {spec.column: FittedColumnEncoder(spec).fit(train)}
        for d, fm in zip((train, test), expected):
            out = build_features(d, schema, fitted)
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
    def test_block_is_the_public_functions_composed(
        self, train, test, method, mode, min_count, grouping
    ):
        train_d = ds([c for c, _ in train], [y for _, y in train])
        spec = EncoderSpec("cat", method, min_count, grouping, mode)

        def grouped(d):
            return group_categories(d, "cat", grouping, mode) if grouping else d

        def composed(d):
            fit_on, rare = grouped(train_d), {}
            if min_count:
                rare = rare_category_mapping(fit_on, "cat", min_count)
                fit_on = merge_rare_categories(fit_on, "cat", min_count)
            d = group_categories(grouped(d), "cat", rare)
            if method == "onehot":
                return one_hot_encode(d, "cat", fit_categories(fit_on, "cat"), mode)
            return impact_encode_apply(d, impact_encode_fit(fit_on, "cat"))

        def block(d):
            return build_features(d, SCHEMA, {"cat": FittedColumnEncoder(spec).fit(train_d)})

        for d in (train_d, ds(test)):
            assert outcome(lambda: block(d)) == outcome(lambda: composed(d))
