"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hvdb_scale --seed 1 --seconds 15 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off;
``--trace 1`` runs untraced/traced pairs and reports every per-layer
metric plus the tracing overhead, and writes the traced spans to
``perfbench/out/``.  Human-readable lines come first (each metric with
its unit, the output digest, any failed check); the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The exit code is 0 when every pass ran and every output check held, and
non-zero otherwise.  The workloads, metrics and seed rules are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (held-out seed: 104729)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.bin.gz")
            outcome = workloads.measure_traced(workload, args.seed, args.seconds, work_dir, spans)
            units = tracing.PER_LAYER_UNITS
        else:
            outcome = workloads.measure(workload, args.seed, args.seconds, work_dir)
            units = workloads.END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = outcome.failed == 0 and set(outcome.metrics) == set(units)
    if outcome.failed == 0 and not correct:
        outcome.notes.append("FAILED metric set: "
                             f"{sorted(set(units) ^ set(outcome.metrics))} differ")
    for note in outcome.notes:
        print(note)
    for name in units:
        if name in outcome.metrics:
            print(f"{name:<32} {outcome.metrics[name]:>16.6f} {units[name]}")
    for name, value in outcome.simulated.items():
        unit = tracing.PER_LAYER_UNITS[name]
        print(f"{name:<32} {value:>16.6f} {unit} (simulated output, not gated)")
    print(f"digest {args.workload} seed={args.seed} {outcome.digest}")
    failed = outcome.failed if correct else max(1, outcome.failed)
    print(f"failed_ratio {failed / max(1, outcome.attempted):.4f} "
          f"({failed} of {outcome.attempted} passes)")
    result = {
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
            if correct
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
