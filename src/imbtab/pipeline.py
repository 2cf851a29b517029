"""Experiment runner: JSON config -> clean -> split -> encode -> resample ->
fit -> evaluate -> report.

Encoders and the resampler only ever see training rows; the test split is
encoded with the fitted artifacts and otherwise untouched. All randomness is
seeded through the config, so a config fully determines the report.
"""

from __future__ import annotations

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
    cast_columns,
    class_counts,
    drop_missing,
    load_csv,
    train_test_split,
)
from .encoding import (
    FeatureMatrix,
    fit_categories,
    group_categories,
    impact_encode_apply,
    impact_encode_fit,
    merge_rare_categories,
    one_hot_encode,
)
from .errors import (
    ParseError,
    PipelineError,
    StrategyUnknown,
    ValidationError,
)
from .metrics import compute_metrics, confusion_matrix, format_report_table, reports_to_json
from .models import ModelConfig, classify, fit_model
from .resampling import STRATEGIES, BALANCE, ResampleConfig, rebalance

ENCODER_METHODS = ("onehot", "impact")
REPORT_FORMATS = ("json", "txt")

_RESAMPLER_KEYS = frozenset(f.name for f in fields(ResampleConfig))

_KIND_ALIASES = {"numeric": NUMERIC, "categorical": CATEGORICAL, "binary-target": TARGET, "target": TARGET}


@dataclass(frozen=True)
class EncoderSpec:
    column: str
    method: str = "onehot"
    min_count: int = 0  # 0 disables rare-category merging
    grouping: dict = None
    mode: str = "lenient"


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


def parse_config(text):
    """Validate a JSON experiment config; failures carry the offending field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")

    dataset_path = _require(doc, "dataset", "")
    raw_schema = _require(doc, "schema", "")
    if not isinstance(raw_schema, list) or not raw_schema:
        raise ValidationError("schema", "must be a non-empty list of {name, kind}")
    schema = []
    for i, col in enumerate(raw_schema):
        name = _require(col, "name", f"schema[{i}]")
        kind = _require(col, "kind", f"schema[{i}]")
        if kind not in _KIND_ALIASES:
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

    split_doc = doc.get("split", {})
    try:
        split = SplitSpec(
            test_fraction=float(split_doc.get("test_fraction", 0.2)),
            seed=int(split_doc.get("seed", 0)),
            stratified=bool(split_doc.get("stratified", False)),
        )
    except ValueError as exc:
        raise ValidationError("split.test_fraction", str(exc)) from exc

    encoders = []
    seen_cols = set()
    for i, enc in enumerate(doc.get("encoders", [])):
        col = _require(enc, "column", f"encoders[{i}]")
        if col not in by_name:
            raise ValidationError(f"encoders[{i}].column", f"column {col!r} not in schema")
        if by_name[col].kind != CATEGORICAL:
            raise ValidationError(f"encoders[{i}].column", f"column {col!r} is not categorical")
        if col in seen_cols:
            raise ValidationError(f"encoders[{i}].column", f"duplicate encoder for {col!r}")
        seen_cols.add(col)
        method = enc.get("method", "onehot")
        if method not in ENCODER_METHODS:
            raise ValidationError(f"encoders[{i}].method", f"allowed: {list(ENCODER_METHODS)}")
        encoders.append(
            EncoderSpec(
                column=col,
                method=method,
                min_count=int(enc.get("min_count", 0)),
                grouping=enc.get("grouping"),
                mode=enc.get("mode", "lenient"),
            )
        )
    # categorical columns without an explicit spec default to lenient one-hot
    for c in schema:
        if c.kind == CATEGORICAL and c.name not in seen_cols:
            encoders.append(EncoderSpec(column=c.name))

    res_doc = doc.get("resampler", {})
    if not isinstance(res_doc, dict):
        raise ValidationError("resampler", "must be an object")
    for key in res_doc:
        if key not in _RESAMPLER_KEYS:
            allowed = sorted(_RESAMPLER_KEYS)
            raise ValidationError(f"resampler.{key}", f"unknown key; allowed: {allowed}")
    k = res_doc.get("k", 5)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValidationError("resampler.k", "must be an integer >= 1")
    amount = res_doc.get("amount", BALANCE)
    if amount != BALANCE:
        try:
            amount = int(amount)
        except (TypeError, ValueError) as exc:
            raise ValidationError("resampler.amount", f"must be an integer or {BALANCE!r}") from exc
    try:
        resampler = ResampleConfig(
            strategy=res_doc.get("strategy", "none"),
            k=k,
            amount=amount,
            seed=int(res_doc.get("seed", 0)),
            smote_mode=res_doc.get("smote_mode", "canonical"),
        )
    except StrategyUnknown:
        raise ValidationError("resampler.strategy", f"allowed: {list(STRATEGIES)}")
    except ValueError as exc:
        raise ValidationError("resampler", str(exc)) from exc

    raw_models = _require(doc, "models", "")
    if not isinstance(raw_models, list) or not raw_models:
        raise ValidationError("models", "must be a non-empty list")
    models = []
    names = set()
    for i, m in enumerate(raw_models):
        family = _require(m, "family", f"models[{i}]")
        if family not in ("lr", "dt", "rf", "xgb"):
            raise ValidationError(f"models[{i}].family", "allowed: ['lr', 'dt', 'rf', 'xgb']")
        params = {k: v for k, v in m.items() if k != "family"}
        try:
            cfg = ModelConfig.for_family(family, **params)
        except (TypeError, ValueError) as exc:
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
        if self.spec.grouping:
            train = group_categories(train, self.spec.column, self.spec.grouping, self.spec.mode)
        if self.spec.min_count > 0:
            merged = merge_rare_categories(train, self.spec.column, self.spec.min_count)
            before = train.column(self.spec.column)
            after = merged.column(self.spec.column)
            self.rare_mapping = {b: a for b, a in zip(before, after) if b != a}
            train = merged
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
    vals = np.asarray(d.column(name), dtype=np.float64).reshape(-1, 1)
    return FeatureMatrix((name,), vals)


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


def _stage(name):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and not isinstance(exc, PipelineError):
                raise PipelineError(name, exc) from exc
            return False

    return _Ctx()


def run_experiment(cfg):
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    with _stage("load"):
        raw = load_csv(cfg.dataset_path, cfg.schema)
    with _stage("clean"):
        cast = cast_columns(raw, cfg.schema)
        clean = drop_missing(cast)
    with _stage("split"):
        train, test = train_test_split(clean, cfg.split)

    with _stage("encode"):
        fitted = {
            spec.column: FittedColumnEncoder(spec).fit(train) for spec in cfg.encoders
        }
        X_train = build_features(train, cfg.schema, fitted)
        X_test = build_features(test, cfg.schema, fitted)
        y_train = np.asarray(train.column(cfg.target), dtype=int)
        y_test = np.asarray(test.column(cfg.target), dtype=int)

    with _stage("resample"):
        resampled = rebalance(X_train, y_train, cfg.resampler)

    reports = []
    for mcfg in cfg.models:
        with _stage(f"fit:{mcfg.name}"):
            model = fit_model(resampled.features.values, resampled.labels, mcfg)
        with _stage(f"evaluate:{mcfg.name}"):
            probs = model.predict_proba(X_test.values)
            preds = classify(probs, mcfg.threshold)
            reports.append(compute_metrics(confusion_matrix(y_test, preds), mcfg.name))

    metadata = {
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "split_seed": cfg.split.seed,
        "resample_seed": cfg.resampler.seed,
        "rows_loaded": raw.row_count,
        "rows_after_clean": clean.row_count,
        "rows_train": train.row_count,
        "rows_test": test.row_count,
        "rows_train_resampled": int(len(resampled.labels)),
        "class_counts_train": {str(k): v for k, v in class_counts(train).items()},
        "class_counts_test": {str(k): v for k, v in class_counts(test).items()},
        "class_counts_train_resampled": {
            "0": int(np.sum(resampled.labels == 0)),
            "1": int(np.sum(resampled.labels == 1)),
        },
        "encoder_fingerprints": {c: enc.fingerprint() for c, enc in fitted.items()},
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
