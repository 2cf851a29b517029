"""Benchmark-side tracing: a replay of run_experiment with a span at each layer.

`replay` runs the same stages as `imbtab.pipeline.run_experiment`, in the same
order and through the same public functions, and writes the report with
`emit_report`. Its report.json must be byte-identical to run_experiment's;
the worker checks that for every experiment it replays.

Span names are `<layer>.<stage>`; the layer is the first component and names
the imbtab module the stage calls into (data, encoding, resampling, models,
pipeline).
"""

from __future__ import annotations

import datetime
import hashlib
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np

ROOT_SPAN = "pipeline.experiment"
STRATEGIES = ("none", "smote", "nearmiss1", "nearmiss2", "nearmiss3", "random_over")
FAMILIES = ("lr", "dt", "rf", "xgb")
MEMORY_LAYERS = ("data", "encoding", "resampling")
MB = 1024.0 * 1024.0


class Tracer:
    """Spans kept in memory: [name, start, end, parent index] in start order."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()


class NullTracer:
    def span(self, name):
        return nullcontext()


class MemoryTracer:
    """tracemalloc peak of each layer above the traced memory at the layer's start.

    Stages of one layer run back to back, so the peak is reset only when the
    layer changes. The caller starts and stops tracemalloc.
    """

    def __init__(self):
        self.peaks = {}
        self._layer = None
        self._base = 0

    @contextmanager
    def span(self, name):
        layer = name.split(".")[0]
        if layer in MEMORY_LAYERS and layer != self._layer:
            self._layer = layer
            tracemalloc.reset_peak()
            self._base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            if layer == self._layer:
                peak = tracemalloc.get_traced_memory()[1] - self._base
                self.peaks[layer] = max(self.peaks.get(layer, 0), peak)


def file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _count_nodes(fitted):
    m = fitted.model
    trees = [m] if fitted.family == "dt" else m.trees
    return sum(1 for t in trees for _ in t.walk())


def replay(cfg, tracer, out_dir):
    """run_experiment + emit_report, stage by stage, under `tracer`'s spans.

    Returns the sha256 of the written report.json, the layer counts, and the
    matrices the kernel timings run on.
    """
    from imbtab import (
        RunResult,
        cast_columns,
        class_counts,
        classify,
        compute_metrics,
        confusion_matrix,
        drop_missing,
        emit_report,
        fit_model,
        load_csv,
        rebalance,
        train_test_split,
    )
    from imbtab.pipeline import FittedColumnEncoder, build_features

    counts = {
        "models.lr.iterations": 0,
        **{f"models.{f}.nodes": 0 for f in ("dt", "rf", "xgb")},
    }
    with tracer.span(ROOT_SPAN):
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with tracer.span("data.load"):
            raw = load_csv(cfg.dataset_path, cfg.schema)
        with tracer.span("data.clean"):
            clean = drop_missing(cast_columns(raw, cfg.schema))
        with tracer.span("data.split"):
            train, test = train_test_split(clean, cfg.split)
        with tracer.span("encoding.fit"):
            fitted = {spec.column: FittedColumnEncoder(spec).fit(train) for spec in cfg.encoders}
        with tracer.span("encoding.transform"):
            X_train = build_features(train, cfg.schema, fitted)
            X_test = build_features(test, cfg.schema, fitted)
            y_train = np.asarray(train.column(cfg.target), dtype=int)
            y_test = np.asarray(test.column(cfg.target), dtype=int)
        with tracer.span(f"resampling.{cfg.resampler.strategy}.rebalance"):
            resampled = rebalance(X_train, y_train, cfg.resampler)

        reports = []
        for mcfg in cfg.models:
            with tracer.span(f"models.{mcfg.family}.fit"):
                model = fit_model(resampled.features.values, resampled.labels, mcfg)
            with tracer.span(f"models.{mcfg.family}.predict"):
                probs = model.predict_proba(X_test.values)
            preds = classify(probs, mcfg.threshold)
            reports.append(compute_metrics(confusion_matrix(y_test, preds), mcfg.name))
            if mcfg.family == "lr":
                counts["models.lr.iterations"] += int(model.model.iterations)
            else:
                counts[f"models.{mcfg.family}.nodes"] += _count_nodes(model)

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
        with tracer.span("pipeline.emit"):
            emit_report(RunResult(reports=reports, metadata=metadata), cfg.formats, out_dir)

    counts.update(
        {
            "data.rows_loaded": raw.row_count,
            "data.rows_clean": clean.row_count,
            "encoding.n_features": X_train.n_cols,
            "resampling.rows_in": X_train.n_rows,
            "resampling.rows_out": int(len(resampled.labels)),
        }
    )
    matrices = {
        "X_train": X_train.values,
        "y_train": y_train,
        "X_fit": resampled.features.values,
        "y_fit": resampled.labels,
        "X_test": X_test.values,
    }
    return file_sha256(os.path.join(out_dir, "report.json")), counts, matrices


def memory_peaks(cfg, out_dir):
    """Per-layer tracemalloc peaks (MB) of one replay of `cfg`."""
    tracer = MemoryTracer()
    tracemalloc.start()
    try:
        digest, _, _ = replay(cfg, tracer, out_dir)
    finally:
        tracemalloc.stop()
    return digest, {f"{layer}.peak_mb": tracer.peaks.get(layer, 0) / MB for layer in MEMORY_LAYERS}


def pass_layer_times(tracer):
    """Per-layer seconds of one traced pass: each stage summed over its experiments."""
    times = {
        "data.load_s": 0.0,
        "data.clean_s": 0.0,
        "data.split_s": 0.0,
        "encoding.fit_s": 0.0,
        "encoding.transform_s": 0.0,
        "resampling.rebalance_s": 0.0,
        **{f"resampling.{s}.rebalance_s": 0.0 for s in STRATEGIES},
        **{f"models.{f}.{stage}_s": 0.0 for f in FAMILIES for stage in ("fit", "predict")},
        "pipeline.emit_s": 0.0,
        "pipeline.self_s": 0.0,
    }
    children = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent is not None:
            children[parent] += end - start
        if name == ROOT_SPAN:
            continue
        times[f"{name}_s"] += end - start
        if name.startswith("resampling."):
            times["resampling.rebalance_s"] += end - start
    for i, (name, start, end, _) in enumerate(tracer.spans):
        if name == ROOT_SPAN:
            times["pipeline.self_s"] += (end - start) - children[i]
    return times


def median_by_key(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}

