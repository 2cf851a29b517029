"""Experiment runner: JSON config -> `prepare` (load, clean, split, encode) ->
resample -> fit -> evaluate -> report. The CLI `resample` command shares `prepare`.

Each config dataclass (`ColumnSchema`, `SplitSpec`, `EncoderSpec`,
`ResampleConfig`, each family's `ModelConfig`, `ExperimentConfig`) checks its
own fields and raises ValidationError naming the bare field; `ExperimentConfig`
also checks the rules that span fields and fills in the default encoders,
however it is built. `parse_config` checks only the JSON's shape and puts the
object's path in front of a constructor's error (`k` becomes `resampler.k`).

The encode stage (`EncoderSpec`, `FittedColumnEncoder`, `build_features`)
lives in `encoding`. Encoders and the resampler only ever see training rows;
the test split is encoded with the fitted artifacts and otherwise untouched.
All randomness is seeded through the config, so a config fully determines
the report.

The models are fitted together by `fit_models`, which spreads them (and each
forest's trees) over the CPUs the process may use; the reports do not depend
on how many that is. Evaluation then walks the models in config order in this
process. A model whose fit failed is fitted again here under its `fit:<name>`
stage, so errors surface in the order and with the stage of a serial loop:
`fit:A`, `evaluate:A`, `fit:B`, ...
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .data import (
    CATEGORICAL,
    TARGET,
    ColumnSchema,
    SplitSpec,
    drop_missing,
    load_csv,
    target_labels,
    train_test_split,
    validate_schema,
)
from .encoding import EncoderSpec, FeatureMatrix, FittedColumnEncoder, build_features
from .errors import ParseError, PipelineError, ValidationError, check_choice
from .metrics import compute_metrics, confusion_matrix, format_report_table, reports_to_json
from .models import ModelConfig, classify, fit_model, fit_models
from .resampling import ResampleConfig, rebalance

REPORT_FORMATS = ("json", "txt")

_CONFIG_KEYS = frozenset(
    ("dataset", "schema", "target", "split", "encoders", "resampler", "models", "output", "formats")
)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_path: str
    schema: tuple
    split: SplitSpec
    encoders: tuple
    resampler: ResampleConfig
    models: tuple
    output_dir: str = "out"
    formats: tuple = ("json", "txt")

    def __post_init__(self):
        # the paths are the config keys: schema, encoders, models, dataset, output, formats
        validate_schema(self.schema)
        kinds = {c.name: c.kind for c in self.schema}
        named = set()
        for i, spec in enumerate(self.encoders):
            path, column = f"encoders[{i}].column", spec.column
            if column not in kinds:
                raise ValidationError(path, f"column {column!r} not in schema")
            if kinds[column] != CATEGORICAL:
                raise ValidationError(path, f"column {column!r} is not categorical")
            if column in named:
                raise ValidationError(path, f"duplicate encoder for {column!r}")
            named.add(column)
        # categorical columns without an explicit spec default to lenient one-hot
        defaults = [EncoderSpec(c.name) for c in self.schema if c.kind == CATEGORICAL and c.name not in named]
        object.__setattr__(self, "encoders", (*self.encoders, *defaults))
        if not self.models:
            raise ValidationError("models", "must be a non-empty list")
        names = [m.name for m in self.models]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"models[{i}].name", f"duplicate model name {name!r}")
        for path, value in (("dataset", self.dataset_path), ("output", self.output_dir)):
            if not isinstance(value, str) or not value:
                raise ValidationError(path, "must be a non-empty string")
        for f in self.formats:
            check_choice(f, "formats", REPORT_FORMATS)

    @property
    def target(self):
        """Name of the schema's binary-target column (the config's "target" key)."""
        return next(c.name for c in self.schema if c.kind == TARGET)


@dataclass
class RunResult:
    reports: list
    metadata: dict  # seeds, timestamps, row-count ledger, encoder digest


def _object(doc, path, allowed):
    """Check that `doc` is a JSON object whose keys are all in `allowed`."""
    if not isinstance(doc, dict):
        raise ValidationError(path, "must be an object")
    for key in doc:
        if key not in allowed:
            field_path = f"{path}.{key}" if path else key
            raise ValidationError(field_path, f"unknown key; allowed: {sorted(allowed)}")


def _list(doc, path, non_empty=False):
    """`doc`, after checking that it is a JSON list (with an entry, if `non_empty`)."""
    if not isinstance(doc, list) or (non_empty and not doc):
        raise ValidationError(path, "must be a non-empty list" if non_empty else "must be a list")
    return doc


def _build(cls, doc, path, make=None):
    """`make(**doc)` (default `cls(**doc)`) for the JSON object `doc` at `path`.

    Every key must be a field of the dataclass `cls`, and every field without a
    default must be there. The constructor checks the values; its
    ValidationError, which names the bare field, is raised again under `path`.
    """
    _object(doc, path, {f.name for f in fields(cls)})
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in doc:
            raise ValidationError(f"{path}.{f.name}", "required field is missing")
    try:
        return (make or cls)(**doc)
    except ValidationError as exc:
        raise exc.under(path) from None


def _model_config(doc, path):
    """`ModelConfig.for_family(**doc)` for the JSON object `doc` at `path`: the
    family's config type decides which other keys the object may have."""
    if not isinstance(doc, dict):
        raise ValidationError(path, "must be an object")
    if "family" not in doc:
        raise ValidationError(f"{path}.family", "required field is missing")
    try:
        return ModelConfig.for_family(**doc)
    except ValidationError as exc:
        raise exc.under(path) from None


def _column_schema(name, kind):
    return ColumnSchema(name, TARGET if kind == "target" else kind)  # "target" is an alias


def parse_config(text):
    """Build an ExperimentConfig from JSON text; failures carry the offending field path.

    This checks only the JSON's shape (objects, lists, required and unknown keys)
    and that `target` names the schema's binary-target column; the dataclasses
    check the values and the rules that span fields.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer too long to convert
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    _object(doc, "", _CONFIG_KEYS)
    for key in ("dataset", "schema", "target", "models"):
        if key not in doc:
            raise ValidationError(key, "required field is missing")

    schema = tuple(
        _build(ColumnSchema, col, f"schema[{i}]", _column_schema)
        for i, col in enumerate(_list(doc["schema"], "schema", non_empty=True))
    )
    target = doc["target"]
    column = next((c for c in schema if c.name == target), None)
    if column is None:
        raise ValidationError("target", f"column {target!r} not in schema")
    if column.kind != TARGET:
        raise ValidationError("target", f"column {target!r} must have kind {TARGET}")

    return ExperimentConfig(
        dataset_path=doc["dataset"],
        schema=schema,
        split=_build(SplitSpec, doc.get("split", {}), "split"),
        encoders=tuple(
            _build(EncoderSpec, enc, f"encoders[{i}]")
            for i, enc in enumerate(_list(doc.get("encoders", []), "encoders"))
        ),
        resampler=_build(ResampleConfig, doc.get("resampler", {}), "resampler"),
        models=tuple(
            _model_config(m, f"models[{i}]")
            for i, m in enumerate(_list(doc["models"], "models", non_empty=True))
        ),
        output_dir=doc.get("output", "out"),
        formats=tuple(_list(doc.get("formats", ["json", "txt"]), "formats")),
    )


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

    X_fit, y_fit = resampled.features.values, resampled.labels
    reports = []
    for mcfg, model in zip(cfg.models, fit_models(X_fit, y_fit, cfg.models)):
        with _stage(f"fit:{mcfg.name}"):
            if model is None:  # its fit raised: raise the error again, in config order
                model = fit_model(X_fit, y_fit, mcfg)
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
