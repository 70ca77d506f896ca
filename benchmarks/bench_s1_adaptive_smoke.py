"""S1 -- Adaptive-replication smoke benchmark.

Runs the registered ``smoke_adaptive`` sweep (the tiny flooding grid
under an ``AdaptiveCI`` policy with a loose target) through the full
sequential-sampling path -- per-point seed rounds, worker pool, disk
cache, convergence report -- and times it.  Asserts the properties the
adaptive loop is sold on: converged points meet the CI target with no
more than ``max_seeds`` replications, the whole run costs no more than
the fixed ``max_seeds`` grid, and a second pass against the warm cache
executes nothing.
"""

from __future__ import annotations

import os
import tempfile

from repro.experiments.orchestrator import SweepReport, sweep
from repro.experiments.specs import get_spec

from common import print_table

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", os.cpu_count() or 1)) or 1


def run_s1(cache_dir: str) -> SweepReport:
    spec = get_spec("smoke_adaptive")
    return sweep(
        spec, spec.replication, workers=max(2, WORKERS), cache_dir=cache_dir
    )


def _check(report: SweepReport) -> None:
    policy = get_spec("smoke_adaptive").replication
    assert report.points, "adaptive smoke expanded to zero grid points"
    for point in report.points:
        assert policy.min_seeds <= point.n_seeds <= policy.max_seeds
        if point.status == "converged":
            assert point.half_width <= policy.target_half_width
        else:
            assert point.status == "unconverged"
            assert point.n_seeds == policy.max_seeds
    assert len(report.results) <= report.fixed_equivalent_runs


def test_s1_adaptive_smoke(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "cache")
        report = benchmark.pedantic(run_s1, args=(cache_dir,), rounds=1, iterations=1)
        _check(report)

        # stopping decisions are a pure function of the cache: a second
        # pass reconstructs the identical run set with zero executions
        spec = get_spec("smoke_adaptive")
        again = sweep(spec, spec.replication, workers=2, cache_dir=cache_dir)
        assert again.executed == 0
        assert [r.run_id for r in again.results] == [r.run_id for r in report.results]
        assert [p.to_dict() for p in again.points] == [p.to_dict() for p in report.points]

    print_table(
        [p.to_dict() for p in report.points],
        f"S1: adaptive smoke ({len(report.results)} runs vs "
        f"{report.fixed_equivalent_runs} fixed; {len(report.converged)}/"
        f"{len(report.points)} converged)",
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        report = run_s1(os.path.join(tmp, "cache"))
    _check(report)
    print_table([p.to_dict() for p in report.points], "S1: adaptive smoke")
