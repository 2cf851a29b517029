from .boosting import BoostedModel, fit_gbt, gbt_predict_proba, logit
from .common import (
    FAMILIES,
    MODEL_FORMAT_VERSION,
    FittedModel,
    ModelConfig,
    classify,
    fit_model,
    model_from_json,
    model_to_json,
)
from .fanout import fit_models
from .forest import ForestModel, fit_forest, forest_predict_proba
from .logistic import (
    LinearModel,
    fit_logistic,
    linear_predict_proba,
    logistic_gradient,
    logistic_loss,
    sigmoid,
)
from .tree import TreeNode, fit_tree, gini_impurity, tree_predict

__all__ = [
    "FAMILIES",
    "MODEL_FORMAT_VERSION",
    "BoostedModel",
    "FittedModel",
    "ForestModel",
    "LinearModel",
    "ModelConfig",
    "TreeNode",
    "classify",
    "fit_forest",
    "fit_gbt",
    "fit_logistic",
    "fit_model",
    "fit_models",
    "fit_tree",
    "forest_predict_proba",
    "gbt_predict_proba",
    "gini_impurity",
    "linear_predict_proba",
    "logistic_gradient",
    "logistic_loss",
    "logit",
    "model_from_json",
    "model_to_json",
    "sigmoid",
    "tree_predict",
]
