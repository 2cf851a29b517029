"""Shared model contract: configuration, probability prediction, thresholding,
and JSON serialization for every classifier family.

`_FAMILIES` is the one table of the families: each maps to its fitter, its
probability predictor and its config type. `fit_model`,
`FittedModel.predict_proba` and `ModelConfig.for_family` look a family up
there, and `FAMILIES` is its keys in order. A family's config type holds
exactly the keys its fitter reads, with that family's defaults; `_CHECKS`
holds each key's value check, whichever families have it.

Model JSON (`model_to_json`, format `MODEL_FORMAT_VERSION`) is one object:
`version`, `family` and `n_features`, then each field of the model's
dataclass, in declaration order, under the field's name. A tree is a `Tree`,
so it is written as its six flat preorder arrays: a `dt` document holds them
at the top level, and each entry of an `rf` or `xgb` document's `trees` list
holds them. The nesting stops there (document, `trees`, tree, array), so a
tree of any depth can be written. numpy arrays and scalars are written as
JSON lists and numbers, so a config given numpy integers writes the same bytes
as one given Python ints. Nothing reads a model document back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from ..errors import (
    DimensionMismatch,
    ValidationError,
    check_choice,
    check_flag,
    check_integer,
    check_number,
)
from .boosting import fit_gbt, gbt_predict_proba
from .forest import fit_forest, forest_predict_proba
from .logistic import fit_logistic, linear_predict_proba
from .tree import fit_tree, tree_predict

MODEL_FORMAT_VERSION = "model_v2"


def _integer_or_null(minimum):
    return lambda value, path: value is None or check_integer(value, path, minimum, " or null")


# config key -> its value check, whichever families have the key
_CHECKS = {
    "threshold": partial(check_number, minimum=0, maximum=1, exclusive=True),
    "learning_rate": partial(check_number, minimum=0),
    "l2": partial(check_number, minimum=0),
    "tolerance": partial(check_number, minimum=0),
    "iterations": partial(check_integer, minimum=0),
    "rounds": partial(check_integer, minimum=0),
    "n_trees": partial(check_integer, minimum=1),
    "min_samples_leaf": partial(check_integer, minimum=1),
    "seed": partial(check_integer, minimum=0),  # numpy's seed sequences take no negative seeds
    "max_depth": _integer_or_null(0),  # None: no depth limit
    "feature_subset_size": _integer_or_null(1),  # None: ceil(sqrt(n_cols)) in forests
    "bootstrap": check_flag,
}


@dataclass(frozen=True)
class ModelConfig:
    """The keys of every family's config. Build a config with `for_family`:
    each family's type below adds exactly the keys its fitter reads, with that
    family's defaults, and names its family in the class attribute `family`."""

    family: ClassVar[str] = None
    name: str = ""  # "" -> the family in capitals
    threshold: float = 0.5

    def __post_init__(self):
        check_choice(self.family, "family", FAMILIES)
        if not isinstance(self.name, str):
            raise ValidationError("name", "must be a string")
        if not self.name:
            object.__setattr__(self, "name", self.family.upper())
        for f in fields(self):
            if f.name != "name":
                _CHECKS[f.name](getattr(self, f.name), f.name)

    @staticmethod
    def for_family(family, **keys):
        """The config of `family` with `keys` set, the family's defaults elsewhere.
        A key that the family's fitter does not read raises ValidationError(key)."""
        check_choice(family, "family", FAMILIES)
        config = _FAMILIES[family].config
        allowed = [f.name for f in fields(config)]
        for key in keys:
            if key not in allowed:
                raise ValidationError(
                    key, f"not a key of family {family!r}; allowed: {sorted(['family', *allowed])}"
                )
        return config(**keys)


@dataclass(frozen=True)
class LogisticConfig(ModelConfig):
    family = "lr"
    learning_rate: float = 0.1
    iterations: int = 500
    l2: float = 1e-4
    tolerance: float = 1e-6


@dataclass(frozen=True)
class TreeConfig(ModelConfig):
    family = "dt"
    max_depth: int = 8
    min_samples_leaf: int = 5


@dataclass(frozen=True)
class ForestConfig(ModelConfig):
    family = "rf"
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5
    bootstrap: bool = True
    feature_subset_size: int = None
    seed: int = 0


@dataclass(frozen=True)
class BoostedConfig(ModelConfig):
    family = "xgb"
    rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 4
    l2: float = 1.0
    min_samples_leaf: int = 1


class _Family(NamedTuple):
    fit: Callable
    predict_proba: Callable
    config: type


# family -> its fitter, probability predictor and config type, in the paper's order
_FAMILIES = {
    "lr": _Family(fit_logistic, linear_predict_proba, LogisticConfig),
    "dt": _Family(fit_tree, tree_predict, TreeConfig),
    "rf": _Family(fit_forest, forest_predict_proba, ForestConfig),
    "xgb": _Family(fit_gbt, gbt_predict_proba, BoostedConfig),
}
FAMILIES = tuple(_FAMILIES)


def fit_model(X, y, cfg):
    model = _FAMILIES[cfg.family].fit(X, y, cfg)
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
        return np.clip(_FAMILIES[self.family].predict_proba(self.model, X), 0.0, 1.0)


def classify(probs, threshold=0.5):
    """Hard labels: 1 iff probability >= threshold. A threshold that is not a
    number in (0, 1) raises ValidationError("threshold"), as in a config."""
    _CHECKS["threshold"](threshold, "threshold")
    return (np.asarray(probs) >= threshold).astype(int)


# --- serialization --------------------------------------------------------


def _plain(value):
    """`value` as JSON-ready Python: a dataclass as an object of its fields in
    declaration order, a list item by item, a numpy array or scalar through
    `.tolist()`, anything else as it is."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def model_to_json(fitted):
    head = {"version": MODEL_FORMAT_VERSION, "family": fitted.family, "n_features": fitted.n_features}
    return json.dumps(head | _plain(fitted.model))
