"""Command-line entry points.

  imbtab run --config cfg.json [--out DIR] [--format json,txt]
  imbtab generate-data --rows N [--positive-rate P] [--seed S] --out data.csv
  imbtab resample --config cfg.json --out resampled.csv

Exit codes, for every command: 0 success, 2 config error (an unreadable config
file or a bad argument too), 3 data error (any error of the load stage, which
reads the dataset), 4 runtime error (an output path that cannot be written too).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from .errors import ImbtabError, ParseError, PipelineError, ValidationError
from .pipeline import _stage, emit_report, parse_config, prepare, run_experiment
from .resampling import rebalance
from .synth import generate_dataset, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"config file is not UTF-8: {path}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc.strerror}") from exc
    return parse_config(text)


def _cmd_run(args):
    cfg = _load_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.format is not None:
        cfg = dataclasses.replace(cfg, formats=tuple(args.format.split(",")))
    result = run_experiment(cfg)
    written = emit_report(result, cfg.formats, cfg.output_dir)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_generate(args):
    d = generate_dataset(
        rows=args.rows,
        positive_rate=args.positive_rate,
        seed=args.seed,
        missing_rate=args.missing_rate,
    )
    write_csv(d, args.out)
    print(args.out)
    return EXIT_OK


def _cmd_resample(args):
    # standalone resampler: run the pipeline front half, dump the training
    # matrix after rebalancing plus a synthetic-row provenance audit
    cfg = _load_config(args.config)
    data = prepare(cfg)
    with _stage("resample"):
        result = rebalance(data.X_train, data.y_train, cfg.resampler)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(result.features.column_names) + ["label", "original"])
        for row, label, orig in zip(result.features.values, result.labels, result.original_mask):
            writer.writerow([f"{v:.10g}" for v in row] + [int(label), int(orig)])
    print(args.out)

    if result.provenance is not None:  # SMOTE, even when it adds no rows
        audit = args.out + ".audit.csv"
        with open(audit, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["base_index", "neighbor_index", "u"])
            p = result.provenance
            rows = zip(p.base_index.tolist(), p.neighbor_index.tolist(), p.u.tolist())
            writer.writerows([base, neighbor, f"{u:.17g}"] for base, neighbor, u in rows)
        print(audit)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="imbtab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--format", default=None, help="comma-separated: json,txt")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("generate-data", help="write a synthetic HR-style CSV")
    p_gen.add_argument("--rows", type=int, required=True)
    p_gen.add_argument("--positive-rate", type=float, default=0.156)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--missing-rate", type=float, default=0.0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_res = sub.add_parser("resample", help="rebalance a training split to CSV")
    p_res.add_argument("--config", required=True)
    p_res.add_argument("--out", required=True)
    p_res.set_defaults(func=_cmd_resample)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ImbtabError, OSError) as exc:
        if isinstance(exc, PipelineError) and exc.stage == "load":
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
