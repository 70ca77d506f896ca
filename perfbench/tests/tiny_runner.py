"""Run the benchmark's runner on miniature workloads, in a process of its own.

The runner tests start this script as a child process so that the
runner's forked sweep pools, instrumentation and ``gc``/``rusage`` calls
never touch the test process itself.  Usage::

    python3 perfbench/tests/tiny_runner.py main OUT_DIR [--broken] -- RUNNER_ARGS...
    python3 perfbench/tests/tiny_runner.py digests OUT_DIR

``main`` runs ``run.main(RUNNER_ARGS)`` with the miniature workloads
(``--broken`` makes every scenario pass raise a failed check) and exits
with its code; ``digests`` prints, as one JSON line, the digests of the
plain, traced and re-run passes of ``tiny_hvdb``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run, workloads  # noqa: E402
from repro.experiments.orchestrator import SweepSpec  # noqa: E402
from repro.experiments.scenarios import ScenarioConfig  # noqa: E402

TINY = {
    "tiny_hvdb": workloads.ScenarioWorkload(
        name="tiny_hvdb", scenarios=2, duration=15.0,
        make_config=lambda seed: ScenarioConfig(
            protocol="hvdb", n_nodes=25, area_size=800.0, group_size=8,
            traffic_interval=0.5, traffic_start=5.0, seed=seed),
    ),
    "tiny_sweep": workloads.SweepWorkload(
        name="tiny_sweep", replications=2,
        make_spec=lambda seeds: SweepSpec(
            name="tiny_sweep",
            base=ScenarioConfig(area_size=700.0, traffic_start=3.0, traffic_interval=0.5,
                                group_size=5),
            grid={"n_nodes": [12, 16], "protocol": ["flooding", "sgm"]},
            seeds=tuple(seeds), duration=8.0),
    ),
}


def _broken(config, duration):
    raise workloads.CheckFailed("achieved > intended")


def digests(out_dir: str) -> dict:
    tiny = TINY["tiny_hvdb"]
    plain = workloads.measure(tiny, 5, 0.0, out_dir)
    traced = workloads.measure_traced(tiny, 5, 0.0, out_dir, os.path.join(out_dir, "s.gz"))
    config = tiny.configs(5)[0]
    return {
        "plain": [plain.failed, plain.digest],
        "traced": [traced.failed, traced.digest],
        "pass_twice": [workloads.run_pass(config, 15.0).digest for _ in range(2)],
        "other_seed": workloads.measure(tiny, 6, 0.0, out_dir).digest,
    }


def main(argv) -> int:
    mode, out_dir, rest = argv[0], argv[1], argv[2:]
    # miniature inputs have too few samples for the tail rule
    workloads.MIN_BEYOND = 0
    workloads.WORKLOADS = TINY
    run.HERE = out_dir
    if mode == "digests":
        print(json.dumps(digests(out_dir)), flush=True)
        return 0
    if rest and rest[0] == "--broken":
        workloads.run_pass = _broken
        rest = rest[1:]
    if rest and rest[0] == "--":
        rest = rest[1:]
    return run.main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
