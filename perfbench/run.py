"""imbtab benchmark: one workload, measured in fresh worker processes.

Run from the repository root:

    python3 perfbench/run.py --workload models-20k --seed 1 --seconds 25 --trace 0

Workloads are defined in perfbench/workloads.py. The run starts set-up
workers one after another (import, data generation, CSV write, parse_config)
and reports their median set-up time, then one measuring worker on the first
set-up's files.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics. Each metric is printed on its own line with
its unit, then the machine, and last a JSON object with the keys correct,
attempted, failed and metrics.

Workers use one BLAS/OpenMP thread: the workload is a closed loop with one
client, and single-threaded BLAS keeps timings steady on a small shared box.
Everything the run writes stays under the checkout: scratch files in
.perfbench_tmp/ (removed at the end) and traced spans in .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least SETUP_MIN times and until SETUP_SECONDS have passed;
# small workloads set up in well under a second, so one figure would be noisy.
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 3.0, 9
RUN_BUDGET_S = 170  # every worker of one run must end within this
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def check_checkout():
    if not (ROOT / "src" / "imbtab" / "__init__.py").is_file():
        raise BenchError(f"no imbtab sources under {ROOT / 'src'}; run from a full checkout")


def run_worker(args, work_dir, deadline):
    """Run perfbench/worker.py to completion; returns its JSON result."""
    env = dict(os.environ, TMPDIR=str(work_dir), **WORKER_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the worker could start")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish within the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_and_measure(workload, seed, seconds, trace, work_dir, record=False, spans=None):
    """Set-up workers, then the measuring worker on the first one's files.

    Returns (set-up results, measuring result). Record mode sets up once.
    """
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    setups = []
    n_min, n_max = (1, 1) if record else (SETUP_MIN, SETUP_MAX)
    while len(setups) < n_min or (
        len(setups) < n_max and time.monotonic() - start < SETUP_SECONDS
    ):
        d = work_dir / f"setup{len(setups)}"
        d.mkdir(parents=True)
        args = ["setup", "--workload", workload, "--seed", str(seed), "--dir", str(d)]
        setups.append(run_worker([*args, "--spawned", repr(time.monotonic())], work_dir, deadline))
    args = ["measure", "--workload", workload, "--seed", str(seed), "--dir", str(work_dir / "setup0")]
    args += ["--seconds", str(seconds), "--trace", str(trace)]
    if record:
        args.append("--record")
    if spans:
        args += ["--spans", str(spans)]
    return setups, run_worker(args, work_dir, deadline)


def scratch_dir(workload, seed):
    return ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="imbtab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    try:
        spec = load_spec()
        check_checkout()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
        work = scratch_dir(args.workload, args.seed)
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
        try:
            setups, result = setup_and_measure(
                args.workload, args.seed, args.seconds, args.trace, work,
                spans=spans if args.trace else None,
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = dict(result["metrics"])
    problems = list(result["problems"])
    if len({s["csv_sha256"] for s in setups}) != 1:
        problems.append("data generation gave different CSVs for the same seed")
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2

    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]:>16.6f} {units[name]}")
    pass_times = result.get("pass_times", [])
    passes = " ".join(f"{t:.3f}" for t in pass_times)
    relative = " ".join(f"{r:.3f}" for r in result.get("relative", []))
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} experiments);"
          f" digests: {result['digest_source']}")
    print(f"{len(pass_times)} timed passes [{passes}] s, median"
          f" {statistics.median(pass_times):.3f} s; relative to the reference loop [{relative}]"
          " (experiment_rel is their mean)")
    for p in problems:
        print(f"problem: {p}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"] and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
