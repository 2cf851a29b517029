"""Experiment runner: JSON config -> `prepare` (load, clean, split, encode) ->
resample -> fit -> evaluate -> report. The CLI `resample` command shares `prepare`.

Encoders and the resampler only ever see training rows; the test split is
encoded with the fitted artifacts and otherwise untouched. All randomness is
seeded through the config, so a config fully determines the report.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .data import (
    CATEGORICAL,
    NUMERIC,
    TARGET,
    ColumnSchema,
    SplitSpec,
    drop_missing,
    load_csv,
    target_labels,
    train_test_split,
)
from .encoding import (
    FeatureMatrix,
    fit_categories,
    group_categories,
    impact_encode_apply,
    impact_encode_fit,
    one_hot_encode,
    rare_category_mapping,
)
from .errors import ParseError, PipelineError, ValidationError
from .metrics import compute_metrics, confusion_matrix, format_report_table, reports_to_json
from .models import FAMILIES, ModelConfig, classify, fit_model
from .resampling import BALANCE, SMOTE_MODES, STRATEGIES, ResampleConfig, rebalance

ENCODER_METHODS = ("onehot", "impact")
ENCODER_MODES = ("lenient", "strict")
REPORT_FORMATS = ("json", "txt")

_CONFIG_KEYS = frozenset(
    ("dataset", "schema", "target", "split", "encoders", "resampler", "models", "output", "formats")
)
_SPLIT_KEYS = frozenset(f.name for f in fields(SplitSpec))
_RESAMPLER_KEYS = frozenset(f.name for f in fields(ResampleConfig))
_SCHEMA_KEYS = frozenset(f.name for f in fields(ColumnSchema))
_MODEL_KEYS = frozenset(f.name for f in fields(ModelConfig))
# integer ModelConfig fields -> smallest allowed value; max_depth and
# feature_subset_size may also be null (unlimited depth, sqrt feature subsets)
_MODEL_INTEGERS = {
    "iterations": 0,
    "rounds": 0,
    "max_depth": 0,
    "min_samples_leaf": 1,
    "n_trees": 1,
    "feature_subset_size": 1,
    "seed": 0,  # numpy's seed sequences take only non-negative seeds
}
_MODEL_NULLABLE = frozenset(("max_depth", "feature_subset_size"))

_KIND_ALIASES = {"numeric": NUMERIC, "categorical": CATEGORICAL, "binary-target": TARGET, "target": TARGET}


@dataclass(frozen=True)
class EncoderSpec:
    column: str
    method: str = "onehot"
    min_count: int = 0  # 0 disables rare-category merging
    grouping: dict = None
    mode: str = "lenient"


_ENCODER_KEYS = frozenset(f.name for f in fields(EncoderSpec))


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    schema: tuple
    target: str
    split: SplitSpec
    encoders: tuple
    resampler: ResampleConfig
    models: tuple
    output_dir: str = "out"
    formats: tuple = ("json", "txt")


@dataclass
class RunResult:
    reports: list
    metadata: dict  # seeds, timestamps, row-count ledger, encoder digest


def _require(doc, key, path):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"{path}.{key}" if path else key, "required field is missing")
    return doc[key]


def _object(doc, path, allowed):
    """`doc`, after checking that it is a JSON object whose keys are all in `allowed`."""
    if not isinstance(doc, dict):
        raise ValidationError(path, "must be an object")
    for key in doc:
        if key not in allowed:
            field_path = f"{path}.{key}" if path else key
            raise ValidationError(field_path, f"unknown key; allowed: {sorted(allowed)}")
    return doc


def _integer(value, path, minimum=None, alternative=""):
    """`value` if it is a JSON integer >= minimum; booleans, floats and strings are rejected."""
    too_small = minimum is not None and isinstance(value, int) and value < minimum
    if isinstance(value, bool) or not isinstance(value, int) or too_small:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(path, f"must be an integer{bound}{alternative}")
    return value


def _number(value, path, minimum=None):
    """`value` if it is a JSON number >= minimum; booleans and strings are rejected."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not is_number or (minimum is not None and not value >= minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(path, f"must be a number{bound}")
    return value


def _model_params(doc, path):
    """The ModelConfig overrides of one `models` entry, each checked under its own path."""
    params = {}
    for key, value in doc.items():
        field_path = f"{path}.{key}"
        if key == "family":
            continue
        if key == "name":
            if not isinstance(value, str):
                raise ValidationError(field_path, "must be a string")
        elif key == "bootstrap":
            if not isinstance(value, bool):
                raise ValidationError(field_path, "must be true or false")
        elif key in _MODEL_INTEGERS:
            if value is not None or key not in _MODEL_NULLABLE:
                alternative = " or null" if key in _MODEL_NULLABLE else ""
                _integer(value, field_path, _MODEL_INTEGERS[key], alternative)
        elif key == "threshold":
            if not 0 < _number(value, field_path) < 1:
                raise ValidationError(field_path, "must be a number in (0, 1)")
        else:
            _number(value, field_path, minimum=0)
        params[key] = value
    return params


def parse_config(text):
    """Validate a JSON experiment config; failures carry the offending field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    _object(doc, "", _CONFIG_KEYS)

    dataset_path = _require(doc, "dataset", "")
    raw_schema = _require(doc, "schema", "")
    if not isinstance(raw_schema, list) or not raw_schema:
        raise ValidationError("schema", "must be a non-empty list of {name, kind}")
    schema = []
    for i, col in enumerate(raw_schema):
        name = _require(_object(col, f"schema[{i}]", _SCHEMA_KEYS), "name", f"schema[{i}]")
        if not isinstance(name, str):
            raise ValidationError(f"schema[{i}].name", "must be a string")
        kind = _require(col, "kind", f"schema[{i}]")
        if not isinstance(kind, str) or kind not in _KIND_ALIASES:
            raise ValidationError(f"schema[{i}].kind", f"unknown kind {kind!r}")
        try:
            schema.append(ColumnSchema(name, _KIND_ALIASES[kind]))
        except ValueError as exc:
            raise ValidationError(f"schema[{i}]", str(exc)) from exc

    target = _require(doc, "target", "")
    by_name = {c.name: c for c in schema}
    if target not in by_name:
        raise ValidationError("target", f"column {target!r} not in schema")
    if by_name[target].kind != TARGET:
        raise ValidationError("target", f"column {target!r} must have kind binary-target")
    targets = [c for c in schema if c.kind == TARGET]
    if len(targets) != 1:
        raise ValidationError("schema", "exactly one binary-target column required")

    split_doc = _object(doc.get("split", {}), "split", _SPLIT_KEYS)
    fraction = split_doc.get("test_fraction", 0.2)
    is_number = isinstance(fraction, (int, float)) and not isinstance(fraction, bool)
    if not (is_number and 0 <= fraction <= 1):
        raise ValidationError("split.test_fraction", "must be a number in [0, 1]")
    stratified = split_doc.get("stratified", False)
    if not isinstance(stratified, bool):
        raise ValidationError("split.stratified", "must be true or false")
    seed = _integer(split_doc.get("seed", 0), "split.seed")
    split = SplitSpec(float(fraction), seed, stratified)

    encoders = []
    seen_cols = set()
    for i, enc in enumerate(doc.get("encoders", [])):
        path = f"encoders[{i}]"
        col = _require(_object(enc, path, _ENCODER_KEYS), "column", path)
        if col not in by_name:
            raise ValidationError(f"{path}.column", f"column {col!r} not in schema")
        if by_name[col].kind != CATEGORICAL:
            raise ValidationError(f"{path}.column", f"column {col!r} is not categorical")
        if col in seen_cols:
            raise ValidationError(f"{path}.column", f"duplicate encoder for {col!r}")
        seen_cols.add(col)
        method = enc.get("method", "onehot")
        if method not in ENCODER_METHODS:
            raise ValidationError(f"{path}.method", f"allowed: {list(ENCODER_METHODS)}")
        mode = enc.get("mode", "lenient")
        if mode not in ENCODER_MODES:
            raise ValidationError(f"{path}.mode", f"allowed: {list(ENCODER_MODES)}")
        grouping = enc.get("grouping")
        if "grouping" in enc and not (
            isinstance(grouping, dict) and all(isinstance(g, str) for g in grouping.values())
        ):
            raise ValidationError(f"{path}.grouping", "must be an object of string to string")
        min_count = _integer(enc.get("min_count", 0), f"{path}.min_count", minimum=0)
        encoders.append(EncoderSpec(col, method, min_count, grouping, mode))
    # categorical columns without an explicit spec default to lenient one-hot
    for c in schema:
        if c.kind == CATEGORICAL and c.name not in seen_cols:
            encoders.append(EncoderSpec(column=c.name))

    res_doc = _object(doc.get("resampler", {}), "resampler", _RESAMPLER_KEYS)
    strategy = res_doc.get("strategy", "none")
    if strategy not in STRATEGIES:
        raise ValidationError("resampler.strategy", f"allowed: {list(STRATEGIES)}")
    amount = res_doc.get("amount", BALANCE)
    if amount != BALANCE:
        _integer(amount, "resampler.amount", minimum=0, alternative=f" or {BALANCE!r}")
    smote_mode = res_doc.get("smote_mode", "canonical")
    if smote_mode not in SMOTE_MODES:
        raise ValidationError("resampler.smote_mode", f"allowed: {list(SMOTE_MODES)}")
    resampler = ResampleConfig(
        strategy=strategy,
        k=_integer(res_doc.get("k", 5), "resampler.k", minimum=1),
        amount=amount,
        # numpy's generators take only non-negative seeds
        seed=_integer(res_doc.get("seed", 0), "resampler.seed", minimum=0),
        smote_mode=smote_mode,
    )

    raw_models = _require(doc, "models", "")
    if not isinstance(raw_models, list) or not raw_models:
        raise ValidationError("models", "must be a non-empty list")
    models = []
    names = set()
    for i, m in enumerate(raw_models):
        family = _require(_object(m, f"models[{i}]", _MODEL_KEYS), "family", f"models[{i}]")
        if family not in FAMILIES:
            raise ValidationError(f"models[{i}].family", f"allowed: {list(FAMILIES)}")
        params = _model_params(m, f"models[{i}]")
        try:
            cfg = ModelConfig.for_family(family, **params)
        except ValueError as exc:
            raise ValidationError(f"models[{i}]", str(exc)) from exc
        if cfg.name in names:
            raise ValidationError(f"models[{i}].name", f"duplicate model name {cfg.name!r}")
        names.add(cfg.name)
        models.append(cfg)

    formats = tuple(doc.get("formats", ["json", "txt"]))
    for f in formats:
        if f not in REPORT_FORMATS:
            raise ValidationError("formats", f"allowed: {list(REPORT_FORMATS)}")

    return ExperimentConfig(
        dataset_path=dataset_path,
        schema=tuple(schema),
        target=target,
        split=split,
        encoders=tuple(encoders),
        resampler=resampler,
        models=tuple(models),
        output_dir=doc.get("output", "out"),
        formats=formats,
    )


@dataclass
class FittedColumnEncoder:
    """Train-fitted transform for one categorical column."""

    spec: EncoderSpec
    rare_mapping: dict = field(default_factory=dict)  # rare category -> __OTHER__
    categories: tuple = ()  # one-hot vocabulary
    category_map: object = None  # impact CategoryMap

    def _prepare(self, d):
        if self.spec.grouping:
            d = group_categories(d, self.spec.column, self.spec.grouping, self.spec.mode)
        if self.rare_mapping:
            d = group_categories(d, self.spec.column, self.rare_mapping)
        return d

    def fit(self, train):
        self.rare_mapping = {}
        train = self._prepare(train)
        if self.spec.min_count > 0:
            self.rare_mapping = rare_category_mapping(train, self.spec.column, self.spec.min_count)
            train = group_categories(train, self.spec.column, self.rare_mapping)
        if self.spec.method == "onehot":
            self.categories = tuple(fit_categories(train, self.spec.column))
        else:
            self.category_map = impact_encode_fit(train, self.spec.column)
        return self

    def transform(self, d):
        d = self._prepare(d)
        if self.spec.method == "onehot":
            return one_hot_encode(d, self.spec.column, self.categories, self.spec.mode)
        return impact_encode_apply(d, self.category_map)

    def fingerprint(self):
        """Stable digest of every fitted parameter (leakage audits)."""
        if self.spec.method == "onehot":
            payload = {"categories": list(self.categories), "rare": sorted(self.rare_mapping)}
        else:
            payload = {"map": self.category_map.to_json(), "rare": sorted(self.rare_mapping)}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _numeric_matrix(d, name):
    column = d.column_data(name)
    vals = column.values if column.vocab is None else np.asarray(column.cells(), dtype=np.float64)
    return FeatureMatrix((name,), vals.reshape(-1, 1))


def build_features(d, schema, fitted_encoders):
    """Schema-ordered feature matrix: numeric passthrough + encoded categoricals."""
    parts = []
    for col in schema:
        if col.kind == TARGET:
            continue
        if col.kind == NUMERIC:
            parts.append(_numeric_matrix(d, col.name))
        else:
            parts.append(fitted_encoders[col.name].transform(d))
    return FeatureMatrix.hstack(parts)


@contextlib.contextmanager
def _stage(name):
    """Re-raise any error other than a PipelineError as PipelineError(name, error)."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@dataclass
class Prepared:
    X_train: FeatureMatrix
    y_train: np.ndarray
    X_test: FeatureMatrix
    y_test: np.ndarray
    encoders: dict  # column -> FittedColumnEncoder
    rows_loaded: int
    rows_after_clean: int


def _label_counts(y):
    return {"0": int(np.sum(y == 0)), "1": int(np.sum(y == 1))}


def prepare(cfg):
    """load -> clean -> split -> encode: the feature matrices every run starts from."""
    with _stage("load"):
        raw = load_csv(cfg.dataset_path, cfg.schema)
    with _stage("clean"):
        clean = drop_missing(raw)
    with _stage("split"):
        train, test = train_test_split(clean, cfg.split)

    with _stage("encode"):
        fitted = {
            spec.column: FittedColumnEncoder(spec).fit(train) for spec in cfg.encoders
        }
        X_train = build_features(train, cfg.schema, fitted)
        X_test = build_features(test, cfg.schema, fitted)
        y_train = target_labels(train).astype(int)
        y_test = target_labels(test).astype(int)
    return Prepared(X_train, y_train, X_test, y_test, fitted, raw.row_count, clean.row_count)


def run_experiment(cfg):
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    data = prepare(cfg)

    with _stage("resample"):
        resampled = rebalance(data.X_train, data.y_train, cfg.resampler)

    reports = []
    for mcfg in cfg.models:
        with _stage(f"fit:{mcfg.name}"):
            model = fit_model(resampled.features.values, resampled.labels, mcfg)
        with _stage(f"evaluate:{mcfg.name}"):
            probs = model.predict_proba(data.X_test.values)
            preds = classify(probs, mcfg.threshold)
            reports.append(compute_metrics(confusion_matrix(data.y_test, preds), mcfg.name))

    metadata = {
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "split_seed": cfg.split.seed,
        "resample_seed": cfg.resampler.seed,
        "rows_loaded": data.rows_loaded,
        "rows_after_clean": data.rows_after_clean,
        "rows_train": len(data.y_train),
        "rows_test": len(data.y_test),
        "rows_train_resampled": int(len(resampled.labels)),
        "class_counts_train": _label_counts(data.y_train),
        "class_counts_test": _label_counts(data.y_test),
        "class_counts_train_resampled": _label_counts(resampled.labels),
        "encoder_fingerprints": {c: enc.fingerprint() for c, enc in data.encoders.items()},
    }
    return RunResult(reports=reports, metadata=metadata)


def emit_report(result, formats, output_dir):
    """Write report.json / report.txt (plus run_meta.json); returns written paths."""
    os.makedirs(output_dir, exist_ok=True)
    written = []
    if "json" in formats:
        path = os.path.join(output_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(result.reports))
            fh.write("\n")
        written.append(path)
    if "txt" in formats:
        path = os.path.join(output_dir, "report.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_report_table(result.reports))
            for r in result.reports:
                fh.write(
                    f"\n{r.model_name} confusion matrix: "
                    f"tp={r.cm.tp} fp={r.cm.fp} tn={r.cm.tn} fn={r.cm.fn}\n"
                )
        written.append(path)
    meta_path = os.path.join(output_dir, "run_meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(meta_path)
    return written
