"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from imbtab import (
    ColumnSchema,
    Dataset,
    NeighborIndex,
    SplitSpec,
    f1_from_precision_recall,
    nearest_neighbors,
    nearmiss,
    parse_config,
    run_experiment,
    emit_report,
    smote,
    train_test_split,
)
from imbtab.data import CATEGORICAL, TARGET
from imbtab.models import ModelConfig, classify, fit_tree, logistic_gradient, logistic_loss, tree_predict
from imbtab.synth import DEFAULT_SCHEMA, generate_dataset, write_csv


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")

        return wrapper

    return deco


@criterion("F1 self-consistency of the six reference (precision, recall, F1) rows")
def test_f1_self_consistency():
    rows = [  # (precision %, recall %, printed F1 %)
        ("RF", 35.4, 50.24, 41.53),
        ("LR", 40.0, 54.9, 46.28),
        ("DT", 35.71, 32.05, 33.78),
        ("XGBoost", 46.8, 53.9, 50.09),
        ("SMOTE-RF", 35.71, 51.62, 42.22),
        ("SMOTE-LR", 53.9, 56.34, 55.09),
    ]
    for name, p, r, f1 in rows:
        computed = 100.0 * f1_from_precision_recall(p / 100.0, r / 100.0)
        assert abs(computed - f1) <= 0.02, f"{name}: {computed:.4f} vs {f1}"


@criterion("split sizes: 8955 rows at test_fraction 0.2 -> 7164 train / 1791 test")
def test_split_size_reproduction():
    schema = (ColumnSchema("x", CATEGORICAL), ColumnSchema("target", TARGET))
    d = Dataset(schema, [("a", i % 2) for i in range(8955)])
    train, test = train_test_split(d, SplitSpec(0.2, seed=0))
    assert (train.row_count, test.row_count) == (7164, 1791)


@criterion("kNN matches a brute-force sorted-distance oracle (200 points, k=1..10)")
def test_knn_oracle_equivalence():
    rng = np.random.default_rng(2024)
    pts = rng.normal(size=(200, 2))
    index = NeighborIndex(pts)
    for qi in range(200):
        d = np.linalg.norm(pts - pts[qi], axis=1)
        oracle = sorted((dist, i) for i, dist in enumerate(d) if i != qi)
        for k in range(1, 11):
            got = nearest_neighbors(index, pts[qi], k, exclude_self=True, self_index=qi)
            assert got == [i for _, i in oracle[:k]]


@criterion("SMOTE contracts: exact counts, betweenness, mode agreement/divergence")
def test_smote_contracts():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(12, 3))
    # exact count contract
    for n_new in (0, 1, 2, 5):
        out, prov = smote(pts, k=4, n_new=n_new, seed=1)
        assert len(out) == n_new * len(pts) == len(prov)
    # betweenness holds for 100% of synthetic points over 1000 seeded generations
    for seed in range(1000):
        out, prov = smote(pts, k=4, n_new=1, seed=seed)
        for row, i, j in zip(out, prov.base_index, prov.neighbor_index):
            lo = np.minimum(pts[i], pts[j])
            hi = np.maximum(pts[i], pts[j])
            assert np.all(row >= lo - 1e-12) and np.all(row <= hi + 1e-12)
    # modes agree exactly when every base coordinate <= neighbor coordinate
    below = np.array([[0.0, 0.0], [1.0, 2.0]])
    canon, _ = smote(below, k=1, n_new=2, seed=3, mode="canonical")
    lit, _ = smote(below, k=1, n_new=2, seed=3, mode="paper_literal")
    assert np.array_equal(canon[:2], lit[:2])  # rows generated from (0,0)
    # documented witness: base above its neighbor -> the modes diverge
    witness = np.array([[1.0, 0.0], [0.0, 0.0]])
    canon, prov = smote(witness, k=1, n_new=1, seed=3, mode="canonical")
    lit, _ = smote(witness, k=1, n_new=1, seed=3, mode="paper_literal")
    u = prov.u[0]
    assert canon[0, 0] == pytest.approx(1.0 - u)
    assert lit[0, 0] == pytest.approx(1.0 + u)
    assert not np.allclose(canon[0], lit[0])


@criterion("NearMiss-1 equals brute-force argmin of mean k-NN minority distance (50 instances)")
def test_nearmiss1_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_maj = int(rng.integers(20, 150))
        n_min = int(rng.integers(5, 50))
        maj = rng.normal(size=(n_maj, 3))
        mn = rng.normal(size=(n_min, 3))
        k = int(rng.integers(1, min(6, n_min + 1)))
        n_keep = int(rng.integers(1, n_maj + 1))
        scores = []
        for i in range(n_maj):
            d = np.sort(np.linalg.norm(mn - maj[i], axis=1))
            scores.append((float(d[:k].mean()), i))
        oracle = sorted(i for _, i in sorted(scores)[:n_keep])
        assert nearmiss(maj, mn, variant=1, k=k, n=n_keep) == oracle


@criterion("logistic analytic gradient vs central finite differences (<1e-6 rel, 20 instances)")
def test_logistic_gradient_check():
    h = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, size=12).astype(float)
        w = rng.normal(size=4) * 0.5
        b = float(rng.normal())
        l2 = float(rng.uniform(0, 0.5))
        gw, gb = logistic_gradient(X, y, w, b, l2)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (logistic_loss(X, y, w + e, b, l2) - logistic_loss(X, y, w - e, b, l2)) / (2 * h)
            assert abs(gw[j] - fd) / max(abs(fd), 1e-10) < 1e-6
        fd_b = (logistic_loss(X, y, w, b + h, l2) - logistic_loss(X, y, w, b - h, l2)) / (2 * h)
        assert abs(gb - fd_b) / max(abs(fd_b), 1e-10) < 1e-6


@criterion("CART memorizes 20 conflict-free datasets; every node Gini in [0, 0.5]")
def test_tree_consistency():
    cfg = ModelConfig.for_family("dt", max_depth=None, min_samples_leaf=1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 3))  # continuous draws: duplicates have measure zero
        y = rng.integers(0, 2, size=60).astype(float)
        tree = fit_tree(X, y, cfg)
        preds = classify(tree_predict(tree, X), 0.5)
        assert np.array_equal(preds, y.astype(int))
        for node in tree.walk():
            assert 0.0 <= node.gini <= 0.5


def _experiment_doc(csv_path, strategy):
    return {
        "dataset": str(csv_path),
        "schema": [{"name": c.name, "kind": c.kind} for c in DEFAULT_SCHEMA],
        "target": "target",
        "split": {"test_fraction": 0.2, "seed": 7},
        "encoders": [{"column": "company_size", "method": "impact"}],
        "resampler": {"strategy": strategy, "k": 5, "amount": "balance", "seed": 3},
        "models": [{"family": "lr", "name": "LR"}],
    }


@criterion("directional benefit: test recall of LR+SMOTE >= plain LR (5000 rows, 15.6% positive)")
def test_directional_smote_benefit(tmp_path):
    started = time.monotonic()
    csv_path = tmp_path / "hr.csv"
    write_csv(generate_dataset(5000, positive_rate=0.156, seed=42), csv_path)
    plain = run_experiment(parse_config(json.dumps(_experiment_doc(csv_path, "none"))))
    smoted = run_experiment(parse_config(json.dumps(_experiment_doc(csv_path, "smote"))))
    assert smoted.reports[0].recall >= plain.reports[0].recall
    assert time.monotonic() - started < 60.0


@criterion("determinism: identical configs emit byte-identical report.json")
def test_report_determinism(tmp_path):
    csv_path = tmp_path / "hr.csv"
    write_csv(generate_dataset(1500, positive_rate=0.156, seed=9), csv_path)
    doc = _experiment_doc(csv_path, "smote")
    doc["models"] = [
        {"family": "lr", "name": "SMOTE-LR"},
        {"family": "rf", "name": "SMOTE-RF", "n_trees": 10},
    ]
    cfg = parse_config(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit_report(run_experiment(cfg), ["json"], out_a)
    emit_report(run_experiment(cfg), ["json"], out_b)
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
