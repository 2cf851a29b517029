"""Seeded synthetic HR-style dataset generator.

Ten columns (two numeric, seven categorical, one binary target). Labels are
drawn from a latent logistic score over the features, with the intercept
calibrated by bisection so the expected positive rate matches the request.
Useful for end-to-end runs when no real dataset is at hand.
"""

from __future__ import annotations

import csv

import numpy as np

from .data import CATEGORICAL, LABELS, NUMERIC, TARGET, Column, ColumnSchema, Dataset
from .errors import check_integer, check_number

DEFAULT_SCHEMA = (
    ColumnSchema("city_development_index", NUMERIC),
    ColumnSchema("gender", CATEGORICAL),
    ColumnSchema("relevant_experience", CATEGORICAL),
    ColumnSchema("enrolled_university", CATEGORICAL),
    ColumnSchema("education_level", CATEGORICAL),
    ColumnSchema("major_discipline", CATEGORICAL),
    ColumnSchema("experience_years", NUMERIC),
    ColumnSchema("company_size", CATEGORICAL),
    ColumnSchema("last_new_job", CATEGORICAL),
    ColumnSchema("target", TARGET),
)

# (values, sampling probabilities, per-value latent effect on the log-odds)
_CATEGORIES = {
    "gender": (["male", "female", "other"], [0.55, 0.4, 0.05], [0.0, 0.1, 0.05]),
    "relevant_experience": (["yes", "no"], [0.7, 0.3], [-0.5, 0.5]),
    "enrolled_university": (
        ["no_enrollment", "full_time", "part_time"],
        [0.6, 0.25, 0.15],
        [-0.3, 0.8, 0.3],
    ),
    "education_level": (
        ["primary", "high_school", "graduate", "masters", "phd"],
        [0.05, 0.2, 0.45, 0.25, 0.05],
        [-0.2, -0.1, 0.4, 0.2, -0.3],
    ),
    "major_discipline": (
        ["stem", "humanities", "business", "arts", "other", "no_major"],
        [0.6, 0.1, 0.12, 0.05, 0.08, 0.05],
        [0.2, 0.0, 0.1, -0.1, 0.0, -0.2],
    ),
    "company_size": (
        ["<10", "10-49", "50-99", "100-499", "500-999", "1000-4999", "5000-9999", "10000+"],
        [0.08, 0.14, 0.14, 0.22, 0.1, 0.16, 0.06, 0.1],
        [0.5, 0.3, 0.1, -0.1, -0.2, -0.3, -0.35, -0.4],
    ),
    "last_new_job": (
        ["never", "1", "2", "3", "4", ">4"],
        [0.15, 0.4, 0.15, 0.1, 0.08, 0.12],
        [0.4, 0.2, 0.0, -0.1, -0.2, -0.4],
    ),
}


def _calibrate_intercept(scores, rate):
    """Bisection on b so that mean(sigmoid(scores + b)) == rate."""
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # a fixed point: every later step gives this same mid
            break
        if np.mean(1.0 / (1.0 + np.exp(-(scores + mid)))) < rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def generate_dataset(rows, positive_rate=0.156, seed=0, missing_rate=0.0):
    """Deterministic synthetic Dataset with the 10-column DEFAULT_SCHEMA.

    A bad argument raises ValidationError naming it: `rows` must be an integer
    >= 1, `positive_rate` a number in (0, 1), `missing_rate` one in [0, 1] and
    `seed` an integer >= 0."""
    check_integer(rows, "rows", minimum=1)
    check_number(positive_rate, "positive_rate", 0, 1, exclusive=True)
    check_number(missing_rate, "missing_rate", 0, 1)
    check_integer(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)

    city_dev = np.round(rng.beta(5, 2, size=rows), 3)
    experience = np.round(rng.gamma(2.2, 4.0, size=rows), 1)
    columns = {
        "city_development_index": Column(city_dev),
        "experience_years": Column(experience),
    }

    score = -3.5 * (city_dev - city_dev.mean()) - 0.06 * (experience - experience.mean())
    for name, (values, probs, effects) in _CATEGORIES.items():
        draw = rng.choice(len(values), size=rows, p=np.asarray(probs) / np.sum(probs))
        columns[name] = Column(draw.astype(np.int32), tuple(values))
        score = score + np.asarray(effects)[draw]
    score = score + rng.normal(0.0, 0.35, size=rows)

    b = _calibrate_intercept(score, positive_rate)
    p = 1.0 / (1.0 + np.exp(-(score + b)))
    labels = rng.random(rows) < p
    columns["target"] = Column(labels.astype(np.int8), LABELS)

    if missing_rate > 0.0:
        n_feat = len(DEFAULT_SCHEMA) - 1  # never blank the target
        blank = rng.random((rows, n_feat)) < missing_rate
        for j, col in enumerate(DEFAULT_SCHEMA[:n_feat]):
            column = columns[col.name]
            values = column.values.copy()
            values[blank[:, j]] = np.nan if column.vocab is None else -1
            columns[col.name] = Column(values, column.vocab)

    return Dataset.from_columns(DEFAULT_SCHEMA, [columns[c.name] for c in DEFAULT_SCHEMA])


def write_csv(dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.column_names)
        cells = [dataset.column_data(name).cells(missing="") for name in dataset.column_names]
        writer.writerows(zip(*cells))
