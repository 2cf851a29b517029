"""imbtab: an imbalanced tabular-classification toolkit built from scratch.

Pipeline: CSV ingestion and cleaning -> categorical encoding (one-hot /
impact) -> class rebalancing (SMOTE, NearMiss, random) -> classifiers
(logistic regression, CART, random forest, gradient-boosted trees) ->
precision/recall/F1/accuracy reports.
"""

from .data import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    TARGET,
    Column,
    ColumnSchema,
    Dataset,
    SplitSpec,
    cast_columns,
    class_counts,
    drop_missing,
    load_csv,
    train_test_split,
)
from .encoding import OTHER_TOKEN, CategoryMap, FeatureMatrix
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    compute_metrics,
    confusion_matrix,
    f1_from_precision_recall,
    format_report_table,
)
from .models import FittedModel, ModelConfig, classify, fit_model, fit_models
from .pipeline import (
    ExperimentConfig,
    RunResult,
    emit_report,
    parse_config,
    run_experiment,
)
from .resampling import (
    NeighborIndex,
    RebalanceResult,
    ResampleConfig,
    nearest_neighbors,
    nearmiss,
    rebalance,
    smote,
)
from .synth import generate_dataset, write_csv

__version__ = "0.1.0"
