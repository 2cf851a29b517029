"""The benchmark's workloads: the data each one generates and its experiment configs.

Each workload isolates one layer of the pipeline:

- models-20k: split search and the LR gradient dominate (about 90% of a pass
  is model fitting); kNN is bypassed and the data layer is a small share.
- resample-10k: the three brute-force kNN paths (SMOTE, NearMiss-1/2/3)
  dominate and the models are negligible.
- score-200k: load, clean, split and encode dominate, and prediction of
  about 150k test rows outweighs fitting on about 16.6k rows.

Only the workload seed varies the data; the split and resampler seeds are fixed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

POSITIVE_RATE = 0.156
MISSING_RATE = 0.02  # drops about 17% of rows in clean
SPLIT_SEED = 7
RESAMPLER_SEED = 3

ENCODERS = (
    {"column": "company_size", "method": "impact"},
    {"column": "gender", "method": "onehot", "min_count": 5},
    {
        "column": "education_level",
        "method": "onehot",
        "grouping": {
            "primary": "school",
            "high_school": "school",
            "masters": "postgrad",
            "phd": "postgrad",
        },
    },
)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    test_fraction: float
    experiments: tuple  # (resampler doc, model docs) for each experiment of a pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "models-20k",
            20_000,
            0.2,
            (
                (
                    {"strategy": "random_over", "amount": "balance"},
                    (
                        {"family": "lr"},
                        {"family": "dt"},
                        {"family": "rf", "n_trees": 20},
                        {"family": "xgb", "rounds": 20},
                    ),
                ),
            ),
        ),
        Workload(
            "resample-10k",
            10_000,
            0.2,
            tuple(
                ({"strategy": s, "k": 5, "amount": "balance"}, ({"family": "lr", "iterations": 50},))
                for s in ("smote", "nearmiss1", "nearmiss2", "nearmiss3")
            ),
        ),
        Workload(
            "score-200k",
            200_000,
            0.9,
            (
                (
                    {"strategy": "none"},
                    (
                        {"family": "lr", "iterations": 20},
                        {"family": "rf", "n_trees": 5, "max_depth": 6},
                    ),
                ),
            ),
        ),
    )
}


def write_dataset(workload, seed, csv_path):
    """Generate the workload's dataset from its seed and write it as CSV."""
    from imbtab import generate_dataset, write_csv

    data = generate_dataset(
        workload.rows, positive_rate=POSITIVE_RATE, seed=seed, missing_rate=MISSING_RATE
    )
    write_csv(data, csv_path)


def experiment_docs(workload, csv_path, out_root):
    """One JSON config document per experiment; each writes to its own directory."""
    from imbtab.synth import DEFAULT_SCHEMA

    schema = [{"name": c.name, "kind": c.kind} for c in DEFAULT_SCHEMA]
    docs = []
    for i, (resampler, models) in enumerate(workload.experiments):
        docs.append(
            {
                "dataset": csv_path,
                "schema": schema,
                "target": "target",
                "split": {"test_fraction": workload.test_fraction, "seed": SPLIT_SEED},
                "encoders": [dict(e) for e in ENCODERS],
                "resampler": dict(resampler, seed=RESAMPLER_SEED),
                "models": [dict(m) for m in models],
                "output": os.path.join(out_root, f"exp{i}"),
                "formats": ["json", "txt"],
            }
        )
    return docs


def parse_experiments(docs):
    from imbtab import parse_config

    return [parse_config(json.dumps(doc)) for doc in docs]
