"""Tests of the benchmark's own code (run with the repository's test suite)."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kernels
from tracing import MEMORY_LAYERS, NullTracer, Tracer, file_sha256, pass_layer_times, replay
from workloads import WORKLOADS, experiment_docs, parse_experiments, write_dataset

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL_ROWS = 600


def _small(workload):
    return dataclasses.replace(workload, rows=SMALL_ROWS)


def _experiments(tmp_path, workload, seed=1):
    csv_path = str(tmp_path / "data.csv")
    write_dataset(workload, seed, csv_path)
    return parse_experiments(experiment_docs(workload, csv_path, str(tmp_path / "out")))


def test_data_generation_is_seed_deterministic(tmp_path):
    w = _small(WORKLOADS["models-20k"])
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (5, 5, 6)):
        write_dataset(w, seed, str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_declared_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_matches_run_experiment(tmp_path, name):
    from imbtab import emit_report, run_experiment

    for cfg in _experiments(tmp_path, _small(WORKLOADS[name])):
        emit_report(run_experiment(cfg), cfg.formats, cfg.output_dir)
        expected = file_sha256(str(Path(cfg.output_dir, "report.json")))
        digest, counts, _ = replay(cfg, Tracer(), cfg.output_dir + "-replay")
        assert digest == expected
        assert replay(cfg, NullTracer(), cfg.output_dir + "-again")[1] == counts


def test_traced_metric_names_match_the_declared_per_layer_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "KERNEL_SECONDS", 0.0)
    cfg = _experiments(tmp_path, _small(WORKLOADS["models-20k"]))[0]
    tracer = Tracer()
    _, counts, matrices = replay(cfg, tracer, cfg.output_dir)
    produced = set(pass_layer_times(tracer)) | set(counts) | {"trace.overhead_s"}
    produced |= {f"{layer}.peak_mb" for layer in MEMORY_LAYERS}
    produced |= set(kernels.kernel_timings(matrices))
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "models-20k", "--seed", "1"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_loop_is_fixed_work():
    from reference import ReferenceLoop

    loop = ReferenceLoop()
    assert loop() == ReferenceLoop()()
    assert loop.timed_group(0.0) > 0.0
