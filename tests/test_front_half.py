"""Outputs of the pipeline's front half (load, clean, split, encode), pinned.

`imbtab resample` writes the rebalanced training matrix and, for SMOTE, a
provenance audit; `run_experiment` records the row-count ledger, class counts
and encoder fingerprints in `run_meta.json`. Both depend on every front-half
stage, so these pins hold any rework of those stages to the same rows, the
same features and the same fitted encoders.
"""

import hashlib
import json

import pytest

from imbtab import parse_config, run_experiment
from imbtab.cli import EXIT_OK, main
from imbtab.synth import DEFAULT_SCHEMA, generate_dataset, write_csv
from test_pipeline import BLOCK_IDS, BLOCK_SIZES, MIXED_MODELS, outputs_by_block_size

ENCODERS = [
    {"column": "company_size", "method": "impact"},
    {"column": "gender", "method": "onehot", "min_count": 25},
    {
        "column": "education_level",
        "grouping": {
            "primary": "school",
            "high_school": "school",
            "masters": "postgrad",
            "phd": "postgrad",
        },
    },
]

RESAMPLERS = {
    "smote": {"strategy": "smote", "k": 5, "amount": "balance", "seed": 3},
    "nearmiss1": {"strategy": "nearmiss1", "k": 3, "amount": "balance"},
}

GOLDEN_RESAMPLE = {
    "smote": (
        "279e0dc2a2871ed0bc4d0d49d59d84a1f0a88699379b176d8cec75d1e9641abe",
        "c81be9e2aa778eabdb6821242ea713c7aabf8fb7490cdac433aaaac78ba2b4d9",
    ),
    "nearmiss1": ("90ec0fdd8a0a8cd023bab4a78fe44f1c0466a1ca1ec40bca2a211396eeea58cf", None),
}

GOLDEN_RUN_META = {
    "split_seed": 6,
    "resample_seed": 3,
    "rows_loaded": 500,
    "rows_after_clean": 379,
    "rows_train": 284,
    "rows_test": 95,
    "rows_train_resampled": 484,
    "class_counts_train": {"0": 244, "1": 40},
    "class_counts_test": {"0": 81, "1": 14},
    "class_counts_train_resampled": {"0": 244, "1": 240},
    "encoder_fingerprints": {
        "company_size": "a87c057ed7a4470019044abe5fc642fb92fa5eea5f354054010fca0497c89319",
        "education_level": "7f4937f3121b4ce7fc5642eb4d8c41896a80c3e4d38a60f1fffa8de1fdd3876e",
        "enrolled_university": "98c37ca4fc59a569d368aa87bc507ec88f56e4285d63e2d515efae572ff9c2ec",
        "gender": "af0848292ba45a1930708849d49c8ad3639b5d41e551445490b8322b20c1b30c",
        "last_new_job": "a33d533c693070b1a840e3fbdafe6a74d40762ded591394df81fdaefe7099d24",
        "major_discipline": "a3a723118bc183871fac99a340ea0a916e88db6334e7718d5407c5808823d0ae",
        "relevant_experience": "c6c9ea229c5e8f290988845c4e11c50f62c835bf2c964e5c9a36d855126f0986",
    },
}


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("front_half") / "hr.csv"
    write_csv(generate_dataset(500, seed=21, missing_rate=0.03), path)
    return path


def config_doc(csv_path, resampler):
    return {
        "dataset": str(csv_path),
        "schema": [{"name": c.name, "kind": c.kind} for c in DEFAULT_SCHEMA],
        "target": "target",
        "split": {"test_fraction": 0.25, "seed": 6, "stratified": True},
        "encoders": ENCODERS,
        "resampler": resampler,
        "models": [{"family": "lr", "name": "LR", "iterations": 20}],
    }


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RESAMPLERS))
def test_resample_output_digests(data_csv, tmp_path, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(data_csv, RESAMPLERS[name])))
    out = tmp_path / "res.csv"
    assert main(["resample", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    audit = tmp_path / "res.csv.audit.csv"
    got = (sha256(out), sha256(audit) if audit.exists() else None)
    assert got == GOLDEN_RESAMPLE[name]


def test_run_meta_ledger(data_csv):
    cfg = parse_config(json.dumps(config_doc(data_csv, RESAMPLERS["smote"])))
    meta = run_experiment(cfg).metadata
    ledger = {k: v for k, v in meta.items() if k not in ("started", "finished")}
    assert ledger == GOLDEN_RUN_META


@pytest.mark.parametrize("block_size", BLOCK_SIZES, ids=BLOCK_IDS)
def test_run_meta_ledger_does_not_depend_on_the_block_size(data_csv, tmp_path, monkeypatch, block_size):
    doc = config_doc(data_csv, RESAMPLERS["smote"])
    doc["models"] = MIXED_MODELS
    doc["encoders"] = [dict(e, mode="strict") if e["column"] == "gender" else e for e in ENCODERS]
    one, blocks = outputs_by_block_size(parse_config(json.dumps(doc)), block_size, tmp_path, monkeypatch)
    assert blocks == one
    assert one[2] == GOLDEN_RUN_META
