import pytest

from imbtab import (
    ConfusionMatrix,
    compute_metrics,
    confusion_matrix,
    f1_from_precision_recall,
    format_report_table,
)
from imbtab.errors import EmptyInput, LengthMismatch
from imbtab.metrics import reports_to_json


class TestConfusionMatrix:
    def test_hand_count(self):
        cm = confusion_matrix([1, 0, 1, 1], [1, 0, 0, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 0, 1)

    def test_perfect_predictions(self):
        cm = confusion_matrix([1, 0, 1], [1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0

    def test_all_positive_on_all_negative(self):
        cm = confusion_matrix([0, 0, 0], [1, 1, 1])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 3, 0, 0)

    def test_swap_transposes(self):
        a = confusion_matrix([1, 0, 1, 0, 1], [1, 1, 0, 0, 1])
        b = confusion_matrix([1, 1, 0, 0, 1], [1, 0, 1, 0, 1])
        assert (a.tp, a.tn) == (b.tp, b.tn)
        assert (a.fp, a.fn) == (b.fn, b.fp)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([1], [1, 0])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion_matrix([], [])


class TestComputeMetrics:
    def test_perfect(self):
        r = compute_metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0), "M")
        assert (r.precision, r.recall, r.f1, r.accuracy) == (1.0, 1.0, 1.0, 1.0)
        assert r.degenerate == ()

    def test_degenerate_precision(self):
        r = compute_metrics(ConfusionMatrix(tp=0, fp=0, tn=3, fn=1))
        assert r.precision == 0.0
        assert "precision" in r.degenerate and "f1" in r.degenerate

    def test_degenerate_recall(self):
        # no positive labels: recall has no denominator
        r = compute_metrics(ConfusionMatrix(tp=0, fp=2, tn=3, fn=0))
        assert r.recall == 0.0
        assert "recall" in r.degenerate

    def test_accuracy_definition(self):
        r = compute_metrics(ConfusionMatrix(tp=2, fp=1, tn=4, fn=3))
        assert r.accuracy == pytest.approx(6 / 10)

    @pytest.mark.parametrize(
        "precision,recall,expected_f1",
        [
            (0.539, 0.5634, 0.5509),
            (0.468, 0.539, 0.5009),
            (0.354, 0.5024, 0.4153),
        ],
    )
    def test_f1_reference_values(self, precision, recall, expected_f1):
        f1 = f1_from_precision_recall(precision, recall)
        assert abs(f1 - expected_f1) < 0.0002  # 0.02 percentage points

    def test_f1_is_harmonic_mean_bounded(self):
        for p, r in [(0.3, 0.8), (0.9, 0.1), (0.5, 0.5)]:
            f1 = f1_from_precision_recall(p, r)
            assert min(p, r) <= f1 <= max(p, r)


class TestFormatReportTable:
    def test_reference_row(self):
        from imbtab import MetricsReport

        r = MetricsReport(
            model_name="SMOTE-LR",
            precision=0.539,
            recall=0.5634,
            f1=0.5509,
            accuracy=0.8626,
            cm=ConfusionMatrix(tp=1, fp=1, tn=1, fn=1),
        )
        table = format_report_table([r])
        row = table.splitlines()[1]
        assert row.split() == ["SMOTE-LR", "53.90%", "56.34%", "55.09%", "86.26%"]

    def test_empty_list_is_header_only(self):
        table = format_report_table([])
        lines = table.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split() == ["MLA", "Precision", "Recall", "F1-score", "Accuracy"]

    def test_boundary_formatting(self):
        r = compute_metrics(ConfusionMatrix(tp=4, fp=0, tn=4, fn=0), "M")
        assert "100.00%" in format_report_table([r])


def test_reports_serialize_to_json():
    import json

    r = compute_metrics(ConfusionMatrix(tp=2, fp=1, tn=5, fn=2), "LR")
    doc = json.loads(reports_to_json([r]))
    assert doc[0]["model"] == "LR"
    assert doc[0]["cm"] == {"tp": 2, "fp": 1, "tn": 5, "fn": 2}
    assert doc[0]["precision"] == pytest.approx(2 / 3)
