"""Shared model contract: configuration, probability prediction, thresholding,
and JSON serialization for every classifier family.

`_FAMILIES` is the one table of the families: each maps to its fitter, its
probability predictor and the type of the model the fitter returns.
`fit_model`, `FittedModel.predict_proba` and the JSON functions look a
family up there, and `FAMILIES` is its keys in order.

Model JSON (`model_to_json` / `model_from_json`, format `MODEL_FORMAT_VERSION`)
is one object: `version`, `family` and `n_features`, then the model. A `dt`
model, a root `TreeNode`, sits under `"tree"`. Any other model writes each
field of its dataclass, in declaration order, under the field's name. Trees
are nested node objects; numpy arrays and scalars are written as JSON lists
and numbers, so a config given numpy integers writes the same bytes as one
given Python ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from ..errors import (
    DimensionMismatch,
    ValidationError,
    check_choice,
    check_flag,
    check_integer,
    check_number,
)
from .boosting import BoostedModel, fit_gbt, gbt_predict_proba
from .forest import ForestModel, fit_forest, forest_predict_proba
from .logistic import LinearModel, fit_logistic, linear_predict_proba
from .tree import TreeNode, fit_tree, tree_predict

# family -> (fitter, probability predictor, model type), in the paper's order
_FAMILIES = {
    "lr": (fit_logistic, linear_predict_proba, LinearModel),
    "dt": (fit_tree, tree_predict, TreeNode),
    "rf": (fit_forest, forest_predict_proba, ForestModel),
    "xgb": (fit_gbt, gbt_predict_proba, BoostedModel),
}
FAMILIES = tuple(_FAMILIES)

MODEL_FORMAT_VERSION = "model_v1"

# Documented defaults per family; the ones a family does not use are ignored.
_DEFAULTS = {
    "lr": dict(learning_rate=0.1, iterations=500, l2=1e-4, tolerance=1e-6),
    "dt": dict(max_depth=8, min_samples_leaf=5),
    "rf": dict(n_trees=100, max_depth=8, min_samples_leaf=5, bootstrap=True),
    "xgb": dict(rounds=100, learning_rate=0.1, max_depth=4, l2=1.0, min_samples_leaf=1),
}

# integer ModelConfig fields -> smallest allowed value; max_depth and
# feature_subset_size may also be None (unlimited depth, sqrt feature subsets)
_INTEGERS = {
    "iterations": 0,
    "rounds": 0,
    "max_depth": 0,
    "min_samples_leaf": 1,
    "n_trees": 1,
    "feature_subset_size": 1,
    "seed": 0,  # numpy's seed sequences take only non-negative seeds
}
_NULLABLE = ("max_depth", "feature_subset_size")


@dataclass(frozen=True)
class ModelConfig:
    family: str
    name: str = ""
    learning_rate: float = 0.1
    iterations: int = 500
    rounds: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5
    n_trees: int = 100
    l2: float = 1e-4
    tolerance: float = 1e-6
    bootstrap: bool = True
    feature_subset_size: int = None  # None -> ceil(sqrt(n_cols)) in forests
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        check_choice(self.family, "family", FAMILIES)
        if not isinstance(self.name, str):
            raise ValidationError("name", "must be a string")
        if not self.name:
            object.__setattr__(self, "name", self.family.upper())
        for attr, minimum in _INTEGERS.items():
            value = getattr(self, attr)
            if value is not None or attr not in _NULLABLE:
                check_integer(value, attr, minimum, " or null" if attr in _NULLABLE else "")
        for attr in ("learning_rate", "l2", "tolerance"):
            check_number(getattr(self, attr), attr, minimum=0)
        check_number(self.threshold, "threshold", 0, 1, exclusive=True)
        check_flag(self.bootstrap, "bootstrap")

    @staticmethod
    def for_family(family, **overrides):
        # an unknown family gets no defaults; __post_init__ rejects it
        params = dict(_DEFAULTS[family]) if family in FAMILIES else {}
        params.update(overrides)
        return ModelConfig(family=family, **params)


def fit_model(X, y, cfg):
    model = _FAMILIES[cfg.family][0](X, y, cfg)
    return FittedModel(family=cfg.family, model=model, n_features=np.asarray(X).shape[1])


@dataclass
class FittedModel:
    family: str
    model: object
    n_features: int

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} feature columns, got shape {X.shape}"
            )
        return np.clip(_FAMILIES[self.family][1](self.model, X), 0.0, 1.0)


def classify(probs, threshold=0.5):
    """Hard labels: 1 iff probability >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0,1)")
    return (np.asarray(probs) >= threshold).astype(int)


# --- serialization --------------------------------------------------------


def _node_to_doc(node):
    if node.is_leaf:
        return {"score": node.score, "gini": node.gini, "n": node.n_samples}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "gini": node.gini,
        "n": node.n_samples,
        "score": node.score,
        "left": _node_to_doc(node.left),
        "right": _node_to_doc(node.right),
    }


def _node_from_doc(doc):
    node = TreeNode(score=doc["score"], gini=doc["gini"], n_samples=doc["n"])
    if "feature" in doc:
        node.feature = doc["feature"]
        node.threshold = doc["threshold"]
        node.left = _node_from_doc(doc["left"])
        node.right = _node_from_doc(doc["right"])
    return node


def model_to_json(fitted):
    m = fitted.model
    doc = {"version": MODEL_FORMAT_VERSION, "family": fitted.family, "n_features": fitted.n_features}
    if fitted.family == "dt":
        doc["tree"] = _node_to_doc(m)
    else:
        for f in fields(m):
            value = getattr(m, f.name)
            if f.name == "trees":
                value = [_node_to_doc(t) for t in value]
            elif isinstance(value, (np.ndarray, np.generic)):
                value = value.tolist()
            doc[f.name] = value
    return json.dumps(doc)


def model_from_json(text):
    doc = json.loads(text)
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {doc.get('version')!r}")
    family = doc["family"]
    if family not in _FAMILIES:
        raise ValueError(f"unknown model family {family!r}")
    if family == "dt":
        model = _node_from_doc(doc["tree"])
    else:
        model_type = _FAMILIES[family][2]
        values = {f.name: doc[f.name] for f in fields(model_type)}
        if "weights" in values:
            values["weights"] = np.asarray(values["weights"], dtype=np.float64)
        if "trees" in values:
            values["trees"] = [_node_from_doc(t) for t in values["trees"]]
        model = model_type(**values)
    return FittedModel(family=family, model=model, n_features=doc["n_features"])
