"""Benchmark worker: one fresh process per set-up or measurement.

perfbench/run.py starts it; the last line of its standard output is a JSON
result.

    worker.py setup   --workload W --seed S --dir D --spawned T
    worker.py measure --workload W --seed S --dir D --seconds N --trace 0|1
                      [--spans PATH] [--record]

`setup` imports imbtab, generates the workload's data from the seed, writes
the CSV and parses the experiment configs. `T` is the parent's
time.monotonic() just before it started this process, so the set-up time
includes interpreter start and imports.

`measure` runs the workload as a closed loop with one client: an untimed
warm-up pass, then timed passes until `--seconds` have passed (at least
MIN_PASSES). A pass runs each experiment's run_experiment + emit_report back
to back. The reference loop (reference.py) runs before the first experiment
and after each one, for REFERENCE_SHARE of that experiment's time; a pass's
relative time is the sum over its experiments of each one's time divided by
the mean reference call time on either side of it, and `experiment_rel` is
the mean over passes. With `--trace 1` it then runs MIN_PASSES traced passes,
one tracemalloc replay per experiment, and the kernel timings. `--record` runs one
pass, one replay per experiment and one round of kernels, and reports their
digests for perfbench/digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from kernels import kernel_timings
from reference import ReferenceLoop
from tracing import (
    ROOT_SPAN,
    NullTracer,
    Tracer,
    file_sha256,
    median_by_key,
    memory_peaks,
    pass_layer_times,
    replay,
)
from workloads import WORKLOADS, experiment_docs, parse_experiments, write_dataset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_FILE = HERE / "digests.json"
MIN_PASSES = 3


def _import_imbtab():
    """Import imbtab from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import imbtab

    if Path(imbtab.__file__).resolve().parent != src / "imbtab":
        raise SystemExit(f"imbtab was imported from {imbtab.__file__}, not from {src}")
    return imbtab


def machine_info(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas_doc = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_doc['name']} {blas_doc['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
    }


def machine_key(machine):
    """The fields a recorded report or kernel digest depends on."""
    return {k: machine[k] for k in ("cpu", "numpy", "blas", "blas_threads")}


def recorded_digests(workload, seed, machine):
    """Digests recorded on a machine like this one for this workload and seed, or None."""
    if not DIGESTS_FILE.is_file():
        return None
    doc = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    if doc.get("machine") != machine_key(machine):
        return None
    return doc.get("workloads", {}).get(workload, {}).get(str(seed))


def run_pass(cfgs, after_experiment=None):
    """One closed-loop pass; returns (seconds of each run_experiment + emit_report, digests).

    A digest is None when the experiment raised. after_experiment(seconds),
    when given, runs after each experiment, outside its timing.
    """
    from imbtab import emit_report, run_experiment

    times, digests = [], []
    for cfg in cfgs:
        t0 = time.perf_counter()
        try:
            result = run_experiment(cfg)
            emit_report(result, cfg.formats, cfg.output_dir)
            digest = file_sha256(os.path.join(cfg.output_dir, "report.json"))
        except Exception:  # a failed experiment is counted, not fatal
            traceback.print_exc()
            digest = None
        times.append(time.perf_counter() - t0)
        digests.append(digest)
        if after_experiment is not None:
            after_experiment(times[-1])
    return times, digests


class Checker:
    """Counts experiments attempted and failed against the expected report digests."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, what, index, digest, *references):
        self.attempted += 1
        if digest is None or any(digest != ref for ref in references):
            self.failed += 1
            self.problems.append(f"{what}: experiment {index} report digest {digest} != {references}")

    def check_pass(self, what, digests):
        for i, d in enumerate(digests):
            self.check(what, i, d, self.expected[i])


def _replay_all(cfgs, tracer, run_digests, checker, what):
    """Replay every experiment under `tracer`; each must match run_experiment's report."""
    outputs = []
    for i, cfg in enumerate(cfgs):
        try:
            digest, counts, matrices = replay(cfg, tracer, cfg.output_dir + "-replay")
        except Exception:  # a failed replay is counted, not fatal
            traceback.print_exc()
            digest, counts, matrices = None, None, None
        checker.check(what, i, digest, checker.expected[i], run_digests[i])
        outputs.append((counts, matrices))
    return outputs


def _sum_counts(outputs):
    total = {}
    for counts, _ in outputs:
        for k, v in (counts or {}).items():
            total[k] = total.get(k, 0) + v
    return total


def _check_kernels(kernels, recorded, checker):
    digests = {}
    for name, (_, seen) in kernels.items():
        if len(seen) != 1:
            checker.problems.append(f"{name}: repeated calls gave {len(seen)} different outputs")
        digests[name] = sorted(seen)[0]
        if recorded is not None and recorded.get("kernels", {}).get(name) != digests[name]:
            checker.problems.append(f"{name}: output digest differs from the recorded one")
    return digests


def _timed_loop(seconds, body):
    """Run body() until `seconds` have passed and it ran at least MIN_PASSES times."""
    results = []
    start = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - start < seconds:
        results.append(body())
    return results


def measure(args):
    cfgs = parse_experiments(json.loads(Path(args.dir, "experiments.json").read_text()))
    machine = machine_info(args.seed)
    recorded = None if args.record else recorded_digests(args.workload, args.seed, machine)

    warm_up_times, run_digests = run_pass(cfgs)  # warm-up, untimed
    checker = Checker(recorded["reports"] if recorded else run_digests)
    checker.check_pass("warm-up pass", run_digests)
    out = {
        "machine": machine,
        "digest_source": "recorded" if recorded else "self-consistency",
    }

    if args.record:
        outputs = _replay_all(cfgs, NullTracer(), run_digests, checker, "replay")
        kernels = kernel_timings(outputs[0][1]) if outputs[0][1] else {}
        out["record"] = {
            "reports": run_digests,
            "kernels": _check_kernels(kernels, recorded, checker),
        }
        return _finish(out, checker, {})

    reference = ReferenceLoop()
    reference()  # warm-up, untimed
    reference_means = [reference.timed_group(warm_up_times[0])]

    def timed_pass():
        times, digests = run_pass(
            cfgs, lambda seconds: reference_means.append(reference.timed_group(seconds))
        )
        checker.check_pass("timed pass", digests)
        around = reference_means[-len(cfgs) - 1:]
        relative = sum(t / ((a + b) / 2) for t, a, b in zip(times, around, around[1:]))
        return sum(times), relative

    pass_times, relative = zip(*_timed_loop(args.seconds, timed_pass))
    experiment_s = statistics.median(pass_times)
    out["pass_times"] = pass_times
    out["relative"] = relative
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return _finish(
            out, checker,
            {"experiment_rel": statistics.fmean(relative), "peak_rss_mb": peak_rss_mb},
        )

    tracers, counts, last_outputs = [], [], None
    for _ in range(MIN_PASSES):
        tracer = Tracer()
        last_outputs = _replay_all(cfgs, tracer, run_digests, checker, "traced pass")
        tracers.append(tracer)
        counts.append(_sum_counts(last_outputs))
    if any(c != counts[0] for c in counts):
        checker.problems.append(f"layer counts differ between traced passes: {counts}")
    traced_s = [sum(e - s for name, s, e, _ in t.spans if name == ROOT_SPAN) for t in tracers]

    metrics = median_by_key([pass_layer_times(t) for t in tracers])
    metrics["trace.overhead_s"] = statistics.median(traced_s) - experiment_s
    metrics.update(counts[0])
    for i, cfg in enumerate(cfgs):
        digest, peaks = memory_peaks(cfg, cfg.output_dir + "-memory")
        checker.check("tracemalloc replay", i, digest, checker.expected[i], run_digests[i])
        for k, v in peaks.items():
            metrics[k] = max(metrics.get(k, 0.0), v)
    if last_outputs[0][1] is not None:
        kernels = kernel_timings(last_outputs[0][1])
        _check_kernels(kernels, recorded, checker)
        metrics.update({name: seconds for name, (seconds, _) in kernels.items()})

    if args.spans:
        doc = {
            "machine": machine,
            "workload": args.workload,
            "passes": [[[n, s, e, p] for n, s, e, p in t.spans] for t in tracers],
        }
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans).write_text(json.dumps(doc), encoding="utf-8")
    return _finish(out, checker, metrics)


def _finish(out, checker, metrics):
    out.update(
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        correct=checker.failed == 0 and not checker.problems,
        metrics=metrics,
    )
    return out


def setup(args):
    _import_imbtab()
    workload = WORKLOADS[args.workload]
    csv_path = os.path.join(args.dir, "data.csv")
    write_dataset(workload, args.seed, csv_path)
    docs = experiment_docs(workload, csv_path, os.path.join(args.dir, "out"))
    parse_experiments(docs)
    setup_s = time.monotonic() - args.spawned

    Path(args.dir, "experiments.json").write_text(json.dumps(docs), encoding="utf-8")
    return {"setup_s": setup_s, "csv_sha256": file_sha256(csv_path)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(args)
    else:
        _import_imbtab()
        result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
