"""L2-regularized logistic regression fitted by full-batch gradient descent.

`fit_logistic` computes the loss once, after its last step. Each step tests
only that the loss would be finite (the probabilities sum to a finite value
and the L2 term is finite), which for labels in [0, 1] is the same test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput, LabelOutOfRange, NonFiniteLoss

_CLIP = 1e-12


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    final_loss: float
    iterations: int


def _penalty(w, l2):
    """The L2 term of logistic_loss."""
    return 0.5 * l2 * np.dot(w, w)


def _loss(p, y, w, l2):
    """logistic_loss from the probabilities p = sigmoid(X @ w + b)."""
    p = np.clip(p, _CLIP, 1.0 - _CLIP)
    nll = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return float(nll + _penalty(w, l2))


def _gradient(X, y, p, w, l2):
    """logistic_gradient from the probabilities p = sigmoid(X @ w + b)."""
    resid = p - y
    gw = X.T @ resid / len(y) + l2 * w
    gb = float(np.mean(resid))
    return gw, gb


def logistic_loss(X, y, w, b, l2):
    """Mean log-loss plus (l2/2)*||w||^2; the bias is unregularized."""
    return _loss(sigmoid(X @ w + b), y, w, l2)


def logistic_gradient(X, y, w, b, l2):
    """(dL/dw, dL/db) of logistic_loss."""
    return _gradient(X, y, sigmoid(X @ w + b), w, l2)


def fit_logistic(X, y, cfg):
    """Zero-initialized gradient descent; stops when the gradient inf-norm
    drops below cfg.tolerance or cfg.iterations is exhausted.

    The probabilities p of each step are reused for the next step's
    gradient, so X @ w is computed once per iteration. The loss is computed
    once, from the final p and w; each step only tests that it would be
    finite. With every label in [0, 1], each clipped log term lies in
    [log(1e-12), 0], so the mean log-loss is finite unless some p is NaN, and
    adding it to a finite L2 term cannot overflow: the loss is finite exactly
    when p.sum() and the L2 term are. NonFiniteLoss names the first step
    where they are not.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise EmptyInput("cannot fit logistic regression on zero rows")
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise LabelOutOfRange("logistic regression needs every label in [0, 1], none NaN")
    w = np.zeros(X.shape[1])
    b = 0.0
    p = sigmoid(X @ w + b)
    it = 0
    # a diverging fit overflows before its loss turns non-finite; NonFiniteLoss reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.iterations + 1):
            gw, gb = _gradient(X, y, p, w, cfg.l2)
            if max(np.max(np.abs(gw), initial=0.0), abs(gb)) < cfg.tolerance:
                it -= 1
                break
            w -= cfg.learning_rate * gw
            b -= cfg.learning_rate * gb
            p = sigmoid(X @ w + b)
            if not (np.isfinite(p.sum()) and np.isfinite(_penalty(w, cfg.l2))):
                raise NonFiniteLoss(f"loss diverged at iteration {it}; lower the learning rate")
    return LinearModel(weights=w, bias=b, final_loss=_loss(p, y, w, cfg.l2), iterations=it)


def linear_predict_proba(model, X):
    return sigmoid(np.asarray(X, dtype=np.float64) @ model.weights + model.bias)
