"""codecomp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-module ones. The line before it is the environment block.
Each metric is also printed to stderr with its unit and direction. The full
report (per-iteration times, failures, spans of a traced run) goes to
bench/.out/results/. Exit code 2 means no result could be produced.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None):
    # One BLAS thread, set before numpy is first imported, and one thread for
    # the program's own pq and nn-overlap pools (their --threads default): the
    # figures and the output bytes then do not depend on the machine's cores
    # or on the caller's environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "CODECOMP_THREADS"):
        os.environ[var] = "1"
    import harness

    parser = argparse.ArgumentParser(description="codecomp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    out_dir = harness.BENCH_DIR / ".out"
    w = WORKLOADS[args.workload]
    try:
        result, report, traced = harness.run_workload(
            w, args.seed, args.seconds, bool(args.trace), root, out_dir)
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    harness.write_report(out_dir, w, args.seed, bool(args.trace), report, traced)
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    spec = harness.load_spec(root)["per_layer" if args.trace else "end_to_end"]
    for name, metric in result["metrics"].items():
        print(f"{name}\t{metric['value']}\t{metric['unit']}"
              f"\t{spec[name]['better']} is better", file=sys.stderr)
    print(json.dumps({"environment": report["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
