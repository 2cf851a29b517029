"""Record the report.json and kernel-output digests the benchmark checks against.

    python3 perfbench/record_digests.py --seeds 0-15 [--workload NAME ...]

For each workload and seed it runs one set-up and one measuring worker in
record mode and stores the digests in perfbench/digests.json, together with
the machine fields they depend on. A benchmark run on another machine, or on
a seed not recorded here, falls back to self-consistency checks. Re-record
only when a change is meant to alter the reports, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import BenchError, check_checkout, scratch_dir, setup_and_measure
from worker import DIGESTS_FILE, machine_key
from workloads import WORKLOADS


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a seed or an inclusive range, e.g. 0-15")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    check_checkout()

    doc = json.loads(DIGESTS_FILE.read_text(encoding="utf-8")) if DIGESTS_FILE.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            work = scratch_dir(name, seed)
            try:
                _, result = setup_and_measure(name, seed, 0, 0, work, record=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not result["correct"]:
                raise BenchError(f"{name} seed {seed}: {result['problems']}")
            machine = machine_key(result["machine"])
            if doc.get("machine") != machine:
                print(f"recording for a new machine {machine}; older digests dropped", file=sys.stderr)
                doc = {"machine": machine, "workloads": {}}
            doc["workloads"].setdefault(name, {})[str(seed)] = result["record"]
            DIGESTS_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
