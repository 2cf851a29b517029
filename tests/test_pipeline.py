import copy
import dataclasses
import functools
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbtab import parse_config, pipeline, run_experiment, emit_report
from imbtab.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, main
from imbtab.data import ColumnSchema, Dataset, SplitSpec, train_test_split
from imbtab.errors import ParseError, PipelineError, StrategyUnknown, ValidationError
from imbtab.models import ModelConfig, fanout, fit_model, forest
from imbtab.pipeline import EncoderSpec, _stage, prepare
from imbtab.resampling import ResampleConfig
from imbtab.synth import DEFAULT_SCHEMA, generate_dataset, write_csv
from test_models import STRAY_KEYS, VALID


def schema_doc():
    return [{"name": c.name, "kind": c.kind} for c in DEFAULT_SCHEMA]


def base_config(csv_path, **overrides):
    doc = {
        "dataset": str(csv_path),
        "schema": schema_doc(),
        "target": "target",
        "split": {"test_fraction": 0.2, "seed": 11},
        "resampler": {"strategy": "none"},
        "models": [{"family": "lr", "name": "LR", "iterations": 50}],
    }
    doc.update(overrides)
    return doc


# the encoders an experiment on DEFAULT_SCHEMA gets when it names none
DEFAULT_ENCODERS = tuple(EncoderSpec(c.name) for c in DEFAULT_SCHEMA if c.kind == "categorical")
TWO_MS = (ModelConfig.for_family("lr", name="M"), ModelConfig.for_family("dt", name="M"))


def assert_field(make, field, **kwargs):
    """make(**kwargs) raises a ValidationError whose path is the bare field."""
    with pytest.raises(ValidationError) as exc:
        make(**kwargs)
    assert exc.value.path == field


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "hr.csv"
    write_csv(generate_dataset(600, seed=5), path)
    return path


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, data_csv):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        assert cfg.split.test_fraction == 0.2
        assert cfg.resampler.strategy == "none"
        assert cfg.formats == ("json", "txt")
        # every categorical column picked up a default one-hot encoder
        encoded = {e.column for e in cfg.encoders}
        assert "gender" in encoded and "company_size" in encoded

    def test_target_is_the_schemas_binary_target_column(self, data_csv):
        schema = [dict(c, name="label") if c["kind"] == "binary-target" else c for c in schema_doc()]
        cfg = parse_config(json.dumps(base_config(data_csv, schema=schema, target="label")))
        assert cfg.target == "label"
        assert "target" not in {f.name for f in dataclasses.fields(cfg)}

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_config("{nope")

    def test_missing_target_field_path(self, data_csv):
        doc = base_config(data_csv)
        del doc["target"]
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "target"

    def test_unknown_strategy_lists_allowed(self, data_csv):
        doc = base_config(data_csv, resampler={"strategy": "smoteX"})
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "resampler.strategy"
        assert "smote" in str(exc.value)
        assert isinstance(exc.value, StrategyUnknown)
        assert_field(ResampleConfig, "strategy", strategy="smoteX")

    def test_unknown_resampler_key_path(self, data_csv):
        doc = base_config(data_csv, resampler={"strategy": "smote", "neighbours": 3})
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "resampler.neighbours"

    @pytest.mark.parametrize("k", ["five", "5", 2.5, None, True, [3], 0])
    def test_bad_resampler_k_path(self, data_csv, k):
        doc = base_config(data_csv, resampler={"strategy": "smote", "k": k})
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "resampler.k"
        assert_field(ResampleConfig, "k", strategy="smote", k=k)

    def test_resampler_must_be_an_object(self, data_csv):
        doc = base_config(data_csv, resampler=["smote"])
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == "resampler"

    def assert_path(self, doc, path):
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == path

    @pytest.mark.parametrize("mode", ["strcit", "Strict", None, 1])
    def test_bad_encoder_mode_path(self, data_csv, mode):
        doc = base_config(data_csv, encoders=[{"column": "gender", "mode": mode}])
        self.assert_path(doc, "encoders[0].mode")
        assert_field(EncoderSpec, "mode", column="gender", mode=mode)

    @pytest.mark.parametrize("grouping", [["male"], "male", None, {"male": 1}, {"male": None}])
    def test_bad_encoder_grouping_path(self, data_csv, grouping):
        doc = base_config(data_csv, encoders=[{"column": "gender", "grouping": grouping}])
        self.assert_path(doc, "encoders[0].grouping")
        assert_field(EncoderSpec, "grouping", column="gender", grouping=grouping)

    @pytest.mark.parametrize("min_count", [-3, 2.5, 5.0, "5", True, None])
    def test_bad_encoder_min_count_path(self, data_csv, min_count):
        doc = base_config(data_csv, encoders=[{"column": "gender", "min_count": min_count}])
        self.assert_path(doc, "encoders[0].min_count")
        assert_field(EncoderSpec, "min_count", column="gender", min_count=min_count)

    def test_encoder_fields_are_kept(self, data_csv):
        enc = {"column": "gender", "method": "impact", "mode": "strict", "min_count": 0}
        enc["grouping"] = {"male": "m", "female": "f"}
        cfg = parse_config(json.dumps(base_config(data_csv, encoders=[enc])))
        spec = next(e for e in cfg.encoders if e.column == "gender")
        assert (spec.method, spec.mode, spec.min_count) == ("impact", "strict", 0)
        assert spec.grouping == {"male": "m", "female": "f"}

    def test_encoder_must_be_an_object(self, data_csv):
        self.assert_path(base_config(data_csv, encoders=["gender"]), "encoders[0]")

    def test_unknown_encoder_key_path(self, data_csv):
        doc = base_config(data_csv, encoders=[{"column": "company_size", "methd": "impact"}])
        self.assert_path(doc, "encoders[0].methd")

    def test_unknown_split_key_path(self, data_csv):
        doc = base_config(data_csv, split={"test_fraction": 0.2, "sed": 3})
        self.assert_path(doc, "split.sed")

    def test_unknown_top_level_key_path(self, data_csv):
        self.assert_path(base_config(data_csv, resamplr={"strategy": "smote"}), "resamplr")

    def test_split_must_be_an_object(self, data_csv):
        self.assert_path(base_config(data_csv, split=0.2), "split")

    @pytest.mark.parametrize("amount", [2.5, 2.0, "2", -1, True, None, "Balance"])
    def test_bad_resampler_amount_path(self, data_csv, amount):
        doc = base_config(data_csv, resampler={"strategy": "smote", "amount": amount})
        self.assert_path(doc, "resampler.amount")
        assert_field(ResampleConfig, "amount", strategy="smote", amount=amount)

    @pytest.mark.parametrize("seed", [3.9, 3.0, "3", -1, True, None])
    def test_bad_resampler_seed_path(self, data_csv, seed):
        doc = base_config(data_csv, resampler={"strategy": "smote", "seed": seed})
        self.assert_path(doc, "resampler.seed")
        assert_field(ResampleConfig, "seed", strategy="smote", seed=seed)

    def test_bad_smote_mode_path(self, data_csv):
        doc = base_config(data_csv, resampler={"strategy": "smote", "smote_mode": "literal"})
        self.assert_path(doc, "resampler.smote_mode")
        assert_field(ResampleConfig, "smote_mode", strategy="smote", smote_mode="literal")

    @pytest.mark.parametrize("seed", [3.9, 3.0, "3", False, None])
    def test_bad_split_seed_path(self, data_csv, seed):
        self.assert_path(base_config(data_csv, split={"seed": seed}), "split.seed")
        assert_field(SplitSpec, "seed", seed=seed)

    @pytest.mark.parametrize("stratified", ["false", "true", 0, 1, None])
    def test_bad_split_stratified_path(self, data_csv, stratified):
        self.assert_path(base_config(data_csv, split={"stratified": stratified}), "split.stratified")
        assert_field(SplitSpec, "stratified", stratified=stratified)

    @pytest.mark.parametrize("fraction", ["0.2", True, None, -0.1, 1.5])
    def test_bad_split_test_fraction_path(self, data_csv, fraction):
        doc = base_config(data_csv, split={"test_fraction": fraction})
        self.assert_path(doc, "split.test_fraction")
        assert_field(SplitSpec, "test_fraction", test_fraction=fraction)

    def test_integer_fields_are_kept(self, data_csv):
        doc = base_config(
            data_csv,
            split={"test_fraction": 1, "seed": -4, "stratified": True},
            resampler={"strategy": "smote", "amount": 0, "seed": 0, "k": 1},
        )
        cfg = parse_config(json.dumps(doc))
        assert (cfg.split.test_fraction, cfg.split.seed, cfg.split.stratified) == (1.0, -4, True)
        assert (cfg.resampler.amount, cfg.resampler.seed, cfg.resampler.k) == (0, 0, 1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("iterations", 2.5),
            ("iterations", "3"),
            ("iterations", True),
            ("iterations", -1),
            ("iterations", None),
            ("rounds", 1.0),
            ("max_depth", -1),
            ("max_depth", "4"),
            ("min_samples_leaf", 0),
            ("n_trees", 0),
            ("n_trees", 2.0),
            ("feature_subset_size", 0),
            ("seed", "3"),
            ("seed", -1),
            ("seed", 3.0),
        ],
    )
    def test_bad_model_integer_path(self, data_csv, key, value):
        doc = base_config(data_csv, models=[{"family": "rf", key: value}])
        self.assert_path(doc, f"models[0].{key}")
        assert_field(ModelConfig.for_family, key, family="rf", **{key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", "0.1"),
            ("learning_rate", True),
            ("learning_rate", -0.1),
            ("l2", None),
            ("tolerance", "1e-6"),
            ("threshold", 0),
            ("threshold", 1.0),
            ("threshold", "0.5"),
            ("threshold", False),
        ],
    )
    def test_bad_model_number_path(self, data_csv, key, value):
        doc = base_config(data_csv, models=[{"family": "lr", key: value}])
        self.assert_path(doc, f"models[0].{key}")
        assert_field(ModelConfig.for_family, key, family="lr", **{key: value})

    @pytest.mark.parametrize("key, value", [("bootstrap", "true"), ("bootstrap", 1), ("name", 3)])
    def test_bad_model_flag_and_name_path(self, data_csv, key, value):
        doc = base_config(data_csv, models=[{"family": "rf", key: value}])
        self.assert_path(doc, f"models[0].{key}")
        assert_field(ModelConfig.for_family, key, family="rf", **{key: value})

    @pytest.mark.parametrize(
        "family, key, value",
        [
            ("lr", "iterations", 2.5),
            ("lr", "learning_rate", True),
            ("lr", "tolerance", "1e-6"),
            ("dt", "max_depth", "4"),
            ("dt", "threshold", 1.0),
            ("dt", "name", 3),
            ("rf", "n_trees", 0),
            ("rf", "feature_subset_size", 0),
            ("rf", "seed", -1),
            ("rf", "bootstrap", 1),
            ("xgb", "rounds", 1.0),
            ("xgb", "l2", None),
            ("xgb", "min_samples_leaf", 0),
        ],
    )
    def test_bad_value_of_a_familys_own_key_path(self, data_csv, family, key, value):
        doc = base_config(data_csv, models=[{"family": family, key: value}])
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.path == f"models[0].{key}"
        assert exc.value.message.startswith("must be")  # the value's check, not the key's

    @pytest.mark.parametrize("family, key", STRAY_KEYS)
    def test_a_key_outside_the_family_path(self, data_csv, family, key):
        models = [{"family": family}, {"family": family, "name": "B", key: VALID[key]}]
        self.assert_path(base_config(data_csv, models=models), f"models[1].{key}")

    def test_unknown_model_key_path(self, data_csv):
        doc = base_config(data_csv, models=[{"family": "lr"}, {"family": "lr", "iteratons": 5}])
        self.assert_path(doc, "models[1].iteratons")

    def test_model_must_be_an_object(self, data_csv):
        self.assert_path(base_config(data_csv, models=["lr"]), "models[0]")

    def test_model_fields_are_kept(self, data_csv):
        model = {"family": "rf", "name": "F", "max_depth": None, "feature_subset_size": None}
        model.update(seed=0, bootstrap=False, threshold=0.3, n_trees=2)
        cfg = parse_config(json.dumps(base_config(data_csv, models=[model]))).models[0]
        assert (cfg.name, cfg.max_depth, cfg.feature_subset_size, cfg.seed) == ("F", None, None, 0)
        assert (cfg.bootstrap, cfg.threshold) == (False, 0.3)

    @pytest.mark.parametrize(
        "entry, path",
        [
            ({"name": "gender", "kind": "categorical", "knd": "x"}, "schema[1].knd"),
            ("gender", "schema[1]"),
            ({"name": 3, "kind": "categorical"}, "schema[1].name"),
            ({"name": "gender", "kind": ["categorical"]}, "schema[1].kind"),
        ],
    )
    def test_bad_schema_entry_path(self, data_csv, entry, path):
        schema = schema_doc()
        schema[1] = entry
        self.assert_path(base_config(data_csv, schema=schema), path)
        field = path.removeprefix("schema[1].")
        if field in ("name", "kind"):  # the others are JSON-shape errors
            assert_field(ColumnSchema, field, **entry)

    @pytest.mark.parametrize(
        "make, field, kwargs",
        [
            (SplitSpec, "stratified", dict(test_fraction=0.2, stratified="no")),
            (SplitSpec, "seed", dict(test_fraction=0.2, seed=1.5)),
            (ResampleConfig, "seed", dict(seed=-1)),
            (ModelConfig.for_family, "iterations", dict(family="lr", iterations=2.5)),
            (ModelConfig.for_family, "family", dict(family="svm")),
            (ColumnSchema, "name", dict(name="", kind="numeric")),
            (EncoderSpec, "column", dict(column=None)),
        ],
    )
    def test_constructor_names_the_bare_field(self, make, field, kwargs):
        assert_field(make, field, **kwargs)

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"formats": ("xml",)}, "formats"),
            ({"output_dir": 3}, "output"),
            ({"dataset_path": 0}, "dataset"),
            ({"output_dir": ""}, "output"),
            ({"dataset_path": ""}, "dataset"),
            ({"schema": DEFAULT_SCHEMA[:-1]}, "schema"),
            ({"encoders": DEFAULT_ENCODERS + (EncoderSpec("gender"),)}, "encoders[7].column"),
            ({"encoders": (EncoderSpec("experience_years"),)}, "encoders[0].column"),
            ({"encoders": (EncoderSpec("nope"),)}, "encoders[0].column"),
            ({"models": TWO_MS}, "models[1].name"),
            ({"models": ()}, "models"),
        ],
    )
    def test_replace_checks_the_experiment_config(self, data_csv, changes, field):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        assert_field(functools.partial(dataclasses.replace, cfg), field, **changes)

    def test_replace_fills_the_default_encoders(self, data_csv):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        assert cfg.encoders == DEFAULT_ENCODERS
        assert dataclasses.replace(cfg, encoders=()) == cfg
        impact = {"column": "gender", "method": "impact"}
        explicit = dataclasses.replace(cfg, encoders=(EncoderSpec(**impact),))
        assert explicit == parse_config(json.dumps(base_config(data_csv, encoders=[impact])))
        assert explicit.encoders == (EncoderSpec(**impact),) + DEFAULT_ENCODERS[1:]

    @pytest.mark.parametrize(
        "doc_changes, changes",
        [
            ({"encoders": [{"column": "gender"}] * 2}, {"encoders": (EncoderSpec("gender"),) * 2}),
            ({"encoders": [{"column": "experience_years"}]}, {"encoders": (EncoderSpec("experience_years"),)}),
            ({"encoders": [{"column": "nope"}]}, {"encoders": (EncoderSpec("nope"),)}),
            ({"models": [{"family": "lr", "name": "M"}, {"family": "dt", "name": "M"}]}, {"models": TWO_MS}),
            ({"models": []}, {"models": ()}),
        ],
        ids=["duplicate-encoder", "numeric-column", "unknown-column", "duplicate-model", "no-model"],
    )
    def test_a_cross_field_fault_reads_alike_from_json_and_library(self, data_csv, doc_changes, changes):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        errors = []
        for make in (
            lambda: parse_config(json.dumps(base_config(data_csv, **doc_changes))),
            lambda: pipeline.ExperimentConfig(**{**vars(cfg), **changes}),
            lambda: dataclasses.replace(cfg, **changes),
        ):
            with pytest.raises(ValidationError) as exc:
                make()
            errors.append(str(exc.value))
        assert errors[1:] == errors[:1] * 2

    def test_numpy_integers_are_accepted(self):
        resampler = ResampleConfig(strategy="smote", k=np.int64(3), seed=np.int64(2))
        assert (resampler.k, resampler.seed) == (3, 2)
        X = np.random.default_rng(0).normal(size=(40, 3))
        y = np.arange(40) % 2
        fit = lambda **kw: fit_model(X, y, ModelConfig.for_family("rf", **kw)).model.trees
        assert fit(n_trees=np.int64(2), seed=np.int64(4)) == fit(n_trees=2, seed=4)
        d = generate_dataset(50, seed=1)
        split = lambda seed: [part.rows for part in train_test_split(d, SplitSpec(seed=seed))]
        assert split(np.int64(5)) == split(5)

    def test_duplicate_model_names(self, data_csv):
        doc = base_config(data_csv, models=[{"family": "lr", "name": "M"}, {"family": "dt", "name": "M"}])
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_encoder_on_unknown_column(self, data_csv):
        doc = base_config(data_csv, encoders=[{"column": "nope"}])
        with pytest.raises(ValidationError) as exc:
            parse_config(json.dumps(doc))
        assert "encoders[0].column" == exc.value.path


# A valid config that sets every field; the property test below replaces one
# field at a time. It names no file that must exist: parse_config reads none.
FULL_CONFIG = {
    "dataset": "hr.csv",
    "schema": schema_doc(),
    "target": "target",
    "split": {"test_fraction": 0.2, "seed": 11, "stratified": False},
    "encoders": [
        {"column": "gender", "method": "onehot", "min_count": 2, "grouping": {"m": "x"}, "mode": "strict"}
    ],
    "resampler": {"strategy": "smote", "k": 5, "amount": "balance", "seed": 3, "smote_mode": "canonical"},
    "models": [
        {
            "family": "lr", "name": "LR", "learning_rate": 0.1, "iterations": 5, "l2": 0.0,
            "tolerance": 1e-6, "threshold": 0.5,
        },
        {"family": "dt", "name": "DT", "max_depth": 3, "min_samples_leaf": 2, "threshold": 0.4},
        {
            "family": "rf", "name": "RF", "n_trees": 3, "max_depth": None, "min_samples_leaf": 2,
            "bootstrap": True, "feature_subset_size": None, "seed": 1, "threshold": 0.5,
        },
        {
            "family": "xgb", "name": "XGB", "rounds": 5, "learning_rate": 0.3, "max_depth": 2,
            "l2": 1.0, "min_samples_leaf": 1, "threshold": 0.6,
        },
    ],
    "output": "out",
    "formats": ["json", "txt"],
}
# fields whose values are maps or lists of plain values, not config objects
VALUE_FIELDS = ("grouping", "formats")


def field_paths(doc, path="", keys=()):
    """(path, keys) of every field under doc, config objects and list entries included."""
    entries = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in entries:
        sub = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        yield sub, keys + (key,)
        if isinstance(value, (dict, list)) and key not in VALUE_FIELDS:
            yield from field_paths(value, sub, keys + (key,))


FIELD_PATHS = sorted(field_paths(FULL_CONFIG))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def blames_field(field, error_path):
    """True if a ValidationError at error_path can come from a bad value at field."""
    if error_path == field or error_path.startswith((f"{field}.", f"{field}[")):
        return True
    # rules that span fields report at the field that completes the conflict
    if field.startswith("schema"):  # one target, unique names, encoder columns
        return error_path in ("schema", "target", "encoders[0].column")
    if field.startswith("models"):
        entry, _, key = field.partition(".")
        if key == "family" and error_path.startswith(f"{entry}."):
            return True  # a key of this entry that the new family does not take
        return re.fullmatch(r"models\[[0-3]\]\.name", error_path) is not None  # unique names
    return False


def parse_with(field, value):
    """parse_config(FULL_CONFIG with value at field): it returns or blames that field."""
    path, keys = field
    doc = copy.deepcopy(FULL_CONFIG)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    try:
        parse_config(json.dumps(doc))
    except ValidationError as exc:
        assert blames_field(path, exc.path), (path, value, str(exc))


class TestParseConfigProperty:
    def test_full_config_parses(self):
        cfg = parse_config(json.dumps(FULL_CONFIG))
        assert [m.name for m in cfg.models] == ["LR", "DT", "RF", "XGB"]

    def test_every_field_with_each_kind_of_value(self):
        for field in FIELD_PATHS:
            for value in (None, True, 0, -1, 2.5, float("nan"), "", "x", [], ["x"], {}, {"x": 1}):
                parse_with(field, value)

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
    def test_any_value_parses_or_names_its_field(self, field, value):
        parse_with(field, value)


class TestRunExperiment:
    def test_end_to_end_reports(self, data_csv):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        result = run_experiment(cfg)
        assert len(result.reports) == 1
        r = result.reports[0]
        assert r.model_name == "LR"
        assert 0.0 <= r.accuracy <= 1.0
        meta = result.metadata
        assert meta["rows_after_clean"] <= meta["rows_loaded"]
        assert meta["rows_train"] + meta["rows_test"] == meta["rows_after_clean"]

    def test_determinism_byte_identical_report(self, data_csv, tmp_path):
        cfg_doc = base_config(
            data_csv, resampler={"strategy": "smote", "k": 5, "amount": "balance", "seed": 3}
        )
        cfg = parse_config(json.dumps(cfg_doc))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        emit_report(run_experiment(cfg), ["json"], out_a)
        emit_report(run_experiment(cfg), ["json"], out_b)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_smote_row_count_ledger(self, data_csv):
        doc = base_config(
            data_csv, resampler={"strategy": "smote", "k": 5, "amount": 2, "seed": 1}
        )
        result = run_experiment(parse_config(json.dumps(doc)))
        meta = result.metadata
        minority = min(meta["class_counts_train"].values())
        assert meta["rows_train_resampled"] == meta["rows_train"] + 2 * minority
        assert meta["class_counts_train_resampled"]["1"] == 3 * minority

    def test_nearmiss_majority_hits_target(self, data_csv):
        doc = base_config(
            data_csv, resampler={"strategy": "nearmiss1", "k": 3, "amount": "balance"}
        )
        meta = run_experiment(parse_config(json.dumps(doc))).metadata
        assert (
            meta["class_counts_train_resampled"]["0"]
            == meta["class_counts_train_resampled"]["1"]
        )

    def test_missing_dataset_wrapped_as_load_stage(self, data_csv):
        doc = base_config(data_csv, dataset="/nonexistent/file.csv")
        with pytest.raises(PipelineError) as exc:
            run_experiment(parse_config(json.dumps(doc)))
        assert exc.value.stage == "load"
        assert isinstance(exc.value.cause, FileNotFoundError)

    def test_leakage_guard_test_rows_do_not_touch_encoders(self, tmp_path):
        # two datasets identical on the training partition, scrambled on the
        # test partition: every fitted encoder fingerprint must match
        from imbtab.data import Dataset, SplitSpec, train_test_split

        d = generate_dataset(300, seed=13)
        split = SplitSpec(0.2, seed=4)
        train, test = train_test_split(d, split)
        test_rows = set(test.rows)

        def scramble(row):
            cells = list(row)
            cells[1] = "scrambled_gender"
            cells[7] = "scrambled_size"
            return tuple(cells)

        scrambled_rows = tuple(
            scramble(r) if r in test_rows else r for r in d.rows
        )
        d2 = Dataset(d.schema, scrambled_rows)

        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(d, path_a)
        write_csv(d2, path_b)

        doc_a = base_config(path_a, split={"test_fraction": 0.2, "seed": 4})
        doc_b = base_config(path_b, split={"test_fraction": 0.2, "seed": 4})
        doc_a["encoders"] = [{"column": "company_size", "method": "impact"}]
        doc_b["encoders"] = [{"column": "company_size", "method": "impact"}]
        meta_a = run_experiment(parse_config(json.dumps(doc_a))).metadata
        meta_b = run_experiment(parse_config(json.dumps(doc_b))).metadata
        assert meta_a["encoder_fingerprints"] == meta_b["encoder_fingerprints"]


MIXED_MODELS = [
    {"family": "lr", "name": "LR", "iterations": 50},
    {"family": "dt", "name": "DT"},
    {"family": "rf", "name": "RF", "n_trees": 6, "seed": 2},
    {"family": "xgb", "name": "XGB", "rounds": 5},
]
# report.json of MIXED_MODELS on data_csv, as written by the serial per-model loop
MIXED_REPORT_SHA256 = "599e1dc1a7528b0119da6747ac4bbbc69e57087ad10787d93efbb681bcc00cc3"


class TestFitFanOut:
    def test_outputs_do_not_depend_on_the_cpu_count(self, data_csv, tmp_path, monkeypatch):
        cfg = parse_config(json.dumps(base_config(data_csv, models=MIXED_MODELS)))
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(fanout, "allowed_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            emit_report(run_experiment(cfg), ["json"], out)
            meta = json.loads((out / "run_meta.json").read_text())
            del meta["started"], meta["finished"]
            outputs.append(((out / "report.json").read_bytes(), meta))
        assert outputs[0] == outputs[1]
        assert hashlib.sha256(outputs[0][0]).hexdigest() == MIXED_REPORT_SHA256

    @pytest.mark.parametrize("failing", ["fit:B", "evaluate:A"])
    def test_errors_keep_the_serial_order(self, data_csv, monkeypatch, on_child_unit, failing):
        # B's trees raise wherever they grow, and a child tries at least one;
        # evaluate:A, when it fails, still comes first
        def no_tree(*args):
            raise ValueError("no tree")

        def no_labels(*args):
            raise ValueError("no labels")

        models = [{"family": "lr", "name": "A", "iterations": 50}, {"family": "rf", "name": "B"}]
        cfg = parse_config(json.dumps(base_config(data_csv, models=models)))
        monkeypatch.setattr(forest, "grow_tree", no_tree)
        monkeypatch.setattr(fanout, "grow_tree", no_tree)
        if failing == "evaluate:A":
            monkeypatch.setattr(pipeline, "classify", no_labels)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(fanout, "allowed_cpus", lambda: cpus)
            if cpus == 2:
                started = on_child_unit("B")
            with pytest.raises(PipelineError) as exc:
                run_experiment(cfg)
            errors.append((exc.value.stage, str(exc.value)))
        assert started.exists()
        cause = "no tree" if failing == "fit:B" else "no labels"
        assert errors == [(failing, f"stage '{failing}': {cause}")] * 2


class TestPrepare:
    def test_no_row_tuples_on_the_experiment_path(self, data_csv, monkeypatch):
        from imbtab.data import Dataset

        def refuse(*_):
            raise AssertionError("cells rebuilt as Python values")

        monkeypatch.setattr(Dataset, "rows", property(refuse))
        monkeypatch.setattr(Dataset, "column", refuse)
        doc = base_config(data_csv, encoders=[
            {"column": "company_size", "method": "impact", "min_count": 50},
            {"column": "gender", "mode": "strict", "min_count": 5},
            {"column": "education_level", "grouping": {"phd": "postgrad", "masters": "postgrad"}},
        ])
        doc["split"] = {"test_fraction": 0.25, "seed": 3, "stratified": True}
        assert run_experiment(parse_config(json.dumps(doc))).reports

    def test_encoded_splits_match_run_meta(self, data_csv):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        data = prepare(cfg)
        assert data.X_train.n_rows == len(data.y_train)
        assert data.X_test.n_rows == len(data.y_test)
        assert data.X_train.column_names == data.X_test.column_names
        assert set(data.encoders) == {e.column for e in cfg.encoders}
        meta = run_experiment(cfg).metadata
        assert (meta["rows_loaded"], meta["rows_after_clean"]) == (
            data.rows_loaded,
            data.rows_after_clean,
        )
        assert (meta["rows_train"], meta["rows_test"]) == (len(data.y_train), len(data.y_test))
        assert meta["class_counts_train"]["1"] == int(data.y_train.sum())
        assert meta["class_counts_test"]["0"] == int((data.y_test == 0).sum())
        fingerprints = {c: enc.fingerprint() for c, enc in data.encoders.items()}
        assert meta["encoder_fingerprints"] == fingerprints

    def test_no_feature_columns_keep_one_row_per_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("target\n" + "0\n1\n" * 10)
        doc = {"dataset": str(path), "schema": [{"name": "target", "kind": "binary-target"}]}
        doc.update(target="target", models=[{"family": "lr", "iterations": 5}])
        data = prepare(parse_config(json.dumps(doc)))
        assert data.X_train.values.shape == (len(data.y_train), 0)
        assert data.X_test.values.shape == (len(data.y_test), 0)

    def test_stage_wraps_other_errors_once(self):
        with pytest.raises(PipelineError) as exc:
            with _stage("outer"):
                with _stage("inner"):
                    raise ValueError("boom")
        assert exc.value.stage == "inner"
        assert isinstance(exc.value.cause, ValueError)

    def test_stage_passes_interrupts_through(self):
        with pytest.raises(KeyboardInterrupt):
            with _stage("load"):
                raise KeyboardInterrupt


class TestEmitReport:
    def test_txt_only(self, data_csv, tmp_path):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        result = run_experiment(cfg)
        written = emit_report(result, ["txt"], tmp_path / "o")
        names = [p.split("/")[-1] for p in written]
        assert "report.txt" in names and "report.json" not in names
        text = (tmp_path / "o" / "report.txt").read_text()
        assert text.startswith("MLA")
        assert "confusion matrix" in text

    def test_json_and_txt_agree(self, data_csv, tmp_path):
        cfg = parse_config(json.dumps(base_config(data_csv)))
        result = run_experiment(cfg)
        emit_report(result, ["json", "txt"], tmp_path / "o")
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        txt = (tmp_path / "o" / "report.txt").read_text()
        assert f"{100 * doc[0]['accuracy']:.2f}%" in txt

    def test_empty_model_reports(self, tmp_path):
        from imbtab.pipeline import RunResult

        emit_report(RunResult(reports=[], metadata={}), ["json", "txt"], tmp_path)
        assert json.loads((tmp_path / "report.json").read_text()) == []
        assert (tmp_path / "report.txt").read_text().startswith("MLA")


class TestCli:
    def test_generate_then_run(self, tmp_path):
        data = tmp_path / "d.csv"
        assert main(["generate-data", "--rows", "400", "--seed", "2", "--out", str(data)]) == EXIT_OK
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data, output=str(tmp_path / "out"))))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()

    def test_run_flags_override_output_and_formats(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(generate_dataset(300, seed=4), data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data, output=str(tmp_path / "cfg-out"))))
        out = tmp_path / "flag-out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), "--format", "json"]
        assert main(argv) == EXIT_OK
        assert (out / "report.json").exists() and not (out / "report.txt").exists()
        assert not (tmp_path / "cfg-out").exists()

    @pytest.mark.parametrize(
        "family, key", [("lr", "n_trees"), ("dt", "seed"), ("rf", "learning_rate"), ("xgb", "iterations")]
    )
    def test_a_key_outside_the_family_is_a_config_error(self, data_csv, tmp_path, capsys, family, key):
        cfg_path = tmp_path / "cfg.json"
        models = [{"family": family, key: VALID[key]}]
        cfg_path.write_text(json.dumps(base_config(data_csv, output=str(tmp_path / "out"), models=models)))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: models[0].{key}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_a_deep_tree_runs(self, tmp_path):
        # each split of the staircase x -> x mod 2 peels off one row: a tree
        # thousands of levels deep
        data = tmp_path / "stairs.csv"
        data.write_text("x,y\n" + "".join(f"{i},{i % 2}\n" for i in range(8000)))
        doc = base_config(
            data,
            schema=[{"name": "x", "kind": "numeric"}, {"name": "y", "kind": "target"}],
            target="y",
            output=str(tmp_path / "out"),
            models=[{"family": "dt", "max_depth": None, "min_samples_leaf": 1}],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"schema": schema_doc() + [{"name": "gender", "kind": "numeric"}]}, "schema"),
            ({"target": ["target"]}, "target"),
            ({"encoders": [{"column": ["gender"]}]}, "encoders[0].column"),
            ({"output": 3}, "output"),
            ({"dataset": 0}, "dataset"),
            ({"output": ""}, "output"),
            ({"dataset": ""}, "dataset"),
            ({"encoders": {}}, "encoders"),
            ({"formats": {"json": 1}}, "formats"),
        ],
        ids=[
            "duplicate-name", "target-list", "column-list", "output", "dataset",
            "output-empty", "dataset-empty", "encoders", "formats",
        ],
    )
    def test_bad_config_value_is_a_config_error(self, data_csv, tmp_path, capsys, overrides, path):
        cfg_path = tmp_path / "cfg.json"
        doc = base_config(data_csv, output=str(tmp_path / "out"))
        doc.update(overrides)
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")
        assert not (tmp_path / "out").exists()

    def test_run_out_flag_empty_is_a_config_error(self, data_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data_csv, output=str(tmp_path / "out"))))
        assert main(["run", "--config", str(cfg_path), "--out", ""]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: output: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("formats", ["xml", "", "json,xml"])
    def test_run_format_flag_is_checked(self, data_csv, tmp_path, capsys, formats):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data_csv)))
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out", str(out), "--format", formats]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: formats: ")
        assert not out.exists()

    def test_an_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {tmp_path}: ")

    @pytest.mark.parametrize(
        "command, out", [("run", "file/x"), ("resample", "missing/x.csv"), ("generate-data", "missing/x.csv")]
    )
    def test_an_unwritable_output_path_is_a_runtime_error(self, data_csv, tmp_path, capsys, command, out):
        (tmp_path / "file").write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data_csv)))
        args = ["--rows", "50"] if command == "generate-data" else ["--config", str(cfg_path)]
        assert main([command, *args, "--out", str(tmp_path / out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1
        assert str(tmp_path / out) in err

    @pytest.mark.parametrize(
        "flag, value, path",
        [
            ("--rows", "0", "rows"),
            ("--positive-rate", "1.5", "positive_rate"),
            ("--seed", "-1", "seed"),
            ("--missing-rate", "2", "missing_rate"),
        ],
    )
    def test_a_bad_generate_data_argument_is_a_config_error(self, tmp_path, capsys, flag, value, path):
        out = tmp_path / "d.csv"
        assert main(["generate-data", "--rows", "10", flag, value, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")
        assert not out.exists()

    def test_an_empty_training_split_names_the_column_and_the_cause(self, data_csv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = base_config(data_csv, split={"test_fraction": 1.0}, output=str(tmp_path / "out"))
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "runtime error: stage 'encode': 'gender': no category was fitted: "
            "the training split has no rows, or none with a value in this column\n"
        )

    def test_data_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config("/nonexistent.csv")))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_DATA

    def test_resample_command_writes_audit(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(generate_dataset(300, seed=3), data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                base_config(
                    data,
                    resampler={"strategy": "smote", "k": 3, "amount": 1, "seed": 9},
                )
            )
        )
        out = tmp_path / "res.csv"
        assert main(["resample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert out.exists()
        audit = tmp_path / "res.csv.audit.csv"
        assert audit.exists()
        header = audit.read_text().splitlines()[0]
        assert header == "base_index,neighbor_index,u"

    def test_resample_command_writes_header_only_audit_when_smote_adds_nothing(self, tmp_path):
        data = tmp_path / "d.csv"
        write_csv(generate_dataset(300, seed=3), data)
        cfg_path = tmp_path / "cfg.json"
        resampler = {"strategy": "smote", "k": 3, "amount": 0, "seed": 9}
        cfg_path.write_text(json.dumps(base_config(data, resampler=resampler)))
        out = tmp_path / "res.csv"
        assert main(["resample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        audit = tmp_path / "res.csv.audit.csv"
        assert audit.read_text().splitlines() == ["base_index,neighbor_index,u"]

    @pytest.mark.parametrize("command", ["run", "resample"])
    def test_non_utf8_csv_is_a_data_error(self, tmp_path, command):
        data = tmp_path / "d.csv"
        write_csv(generate_dataset(50, seed=1), data)
        text = data.read_text().replace("male", "mäle", 1)
        data.write_bytes(text.encode("latin-1"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data, output=str(tmp_path / "out"))))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "res")]
        assert main(argv) == EXIT_DATA

    def test_non_utf8_config_is_a_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = base_config("d.csv", output="ö")
        cfg_path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_resample_missing_dataset_is_a_load_stage_data_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config("/nonexistent.csv")))
        argv = ["resample", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_DATA
        assert "stage 'load'" in capsys.readouterr().err

    def test_resample_stage_error_is_a_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_csv(generate_dataset(100, seed=3), data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(data, resampler={"strategy": "smote", "k": 90})))
        argv = ["resample", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_RUNTIME
        assert "stage 'resample'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["run", "resample"])
    @pytest.mark.parametrize("strategy", ["random_over", "random_under"])
    def test_one_class_training_split_fails_in_resample(self, tmp_path, capsys, strategy, command):
        data = tmp_path / "d.csv"
        d = generate_dataset(100, seed=3)  # then every target is set to 0
        write_csv(Dataset(d.schema, [(*r[:-1], 0) for r in d.rows]), data)
        cfg_path = tmp_path / "cfg.json"
        doc = base_config(data, resampler={"strategy": strategy}, output=str(tmp_path / "out"))
        cfg_path.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == EXIT_RUNTIME
        assert "stage 'resample': " in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()
