"""Kernel timings on a workload's own matrices.

Each kernel is one public imbtab function that a pipeline stage spends most of
its time in:

- kernel.knn_query_s: `nearest_neighbors` with k 5 for every training minority
  row against the other minority rows, as SMOTE queries them.
- kernel.split_search_s: `fit_tree` with max_depth 1, one root split search
  over the matrix the models are fitted on.
- kernel.tree_predict_s: `tree_predict` over the test matrix, with a tree
  fitted (untimed) at the DT defaults.
- kernel.lr_gradient_s: `logistic_gradient` at w = 0 over the fit matrix.

Each is run until it has taken KERNEL_SECONDS and at least MIN_REPS times;
the metric is the median seconds per call. Every call's output is digested,
and all digests of one kernel must agree.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

KERNEL_SECONDS = 0.5
MIN_REPS = 3
KNN_K = 5
LR_L2 = 1e-4


def _array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _tree_digest(node):
    doc = [(n.feature, n.threshold, n.score, n.gini, n.n_samples) for n in node.walk()]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _time_kernel(fn, digest):
    """(median seconds per call, the set of output digests)."""
    times, digests = [], set()
    total = 0.0
    while len(times) < MIN_REPS or total < KERNEL_SECONDS:
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
        digests.add(digest(out))
    return statistics.median(times), digests


def kernel_timings(matrices):
    """{metric: (median seconds, digests)} for the four kernels."""
    from imbtab import ModelConfig, NeighborIndex, nearest_neighbors
    from imbtab.models import fit_tree, logistic_gradient, tree_predict

    X_train, y_train = matrices["X_train"], matrices["y_train"]
    X_fit, y_fit = matrices["X_fit"], matrices["y_fit"]
    X_test = matrices["X_test"]
    minority_label = 1 if np.sum(y_train == 1) <= np.sum(y_train == 0) else 0
    minority = X_train[y_train == minority_label]
    index = NeighborIndex(minority)

    def knn():
        return [
            nearest_neighbors(index, minority[i], KNN_K, exclude_self=True, self_index=i)
            for i in range(len(minority))
        ]

    stump_cfg = ModelConfig.for_family("dt", max_depth=1)
    tree = fit_tree(X_fit, y_fit, ModelConfig.for_family("dt"))
    w0 = np.zeros(X_fit.shape[1])
    y_fit_float = np.asarray(y_fit, dtype=np.float64)

    return {
        "kernel.knn_query_s": _time_kernel(
            knn, lambda out: hashlib.sha256(json.dumps(out).encode()).hexdigest()
        ),
        "kernel.split_search_s": _time_kernel(
            lambda: fit_tree(X_fit, y_fit, stump_cfg), _tree_digest
        ),
        "kernel.tree_predict_s": _time_kernel(lambda: tree_predict(tree, X_test), _array_digest),
        "kernel.lr_gradient_s": _time_kernel(
            lambda: logistic_gradient(X_fit, y_fit_float, w0, 0.0, LR_L2),
            lambda out: _array_digest(out[0], np.float64(out[1])),
        ),
    }

