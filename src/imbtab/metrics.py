"""Confusion matrix, precision/recall/F1/accuracy, and report rendering.

Positive class is label 1 throughout. Degenerate 0/0 ratios evaluate to 0 and
are flagged rather than raised, so batch reports never abort.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyInput, LabelOutOfRange, LengthMismatch


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    model_name: str
    precision: float
    recall: float
    f1: float
    accuracy: float
    cm: ConfusionMatrix
    degenerate: tuple = ()  # names of metrics that hit a 0/0 ratio


def confusion_matrix(y_true, y_pred):
    """The counts of y_pred against y_true. Both must be 1-D (else
    DimensionMismatch), of one length (LengthMismatch), not empty (EmptyInput)
    and hold only labels 0 or 1 (LabelOutOfRange); bool and float 0/1 labels
    count as ints."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.ndim != 1 or y_pred.ndim != 1:
        raise DimensionMismatch(f"labels must be 1-D, got shapes {y_true.shape} and {y_pred.shape}")
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true labels vs {len(y_pred)} predictions")
    if len(y_true) == 0:
        raise EmptyInput("cannot build a confusion matrix from zero rows")
    for labels in (y_true, y_pred):
        if not np.all((labels == 0) | (labels == 1)):
            raise LabelOutOfRange("a confusion matrix needs every label 0 or 1")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def f1_from_precision_recall(precision, recall):
    if precision + recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(cm, model_name=""):
    degenerate = []
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall = 0.0
        degenerate.append("recall")
    f1 = f1_from_precision_recall(precision, recall)
    if precision + recall <= 0.0:
        degenerate.append("f1")
    accuracy = (cm.tp + cm.tn) / cm.total
    return MetricsReport(
        model_name=model_name,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        cm=cm,
        degenerate=tuple(degenerate),
    )


def _pct(x):
    return f"{100.0 * x:.2f}%"


def format_report_table(reports):
    """Fixed-width text table: MLA | Precision | Recall | F1-score | Accuracy."""
    header = ["MLA", "Precision", "Recall", "F1-score", "Accuracy"]
    rows = [
        [r.model_name, _pct(r.precision), _pct(r.recall), _pct(r.f1), _pct(r.accuracy)]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(header)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


def report_to_doc(report):
    return {
        "model": report.model_name,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "accuracy": report.accuracy,
        "cm": {"tp": report.cm.tp, "fp": report.cm.fp, "tn": report.cm.tn, "fn": report.cm.fn},
        "degenerate": list(report.degenerate),
    }


def reports_to_json(reports):
    return json.dumps([report_to_doc(r) for r in reports], indent=2, sort_keys=True)
