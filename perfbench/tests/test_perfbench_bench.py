"""Tests of the benchmark's own code: span arithmetic, percentile rule,
metric names, and that the runner emits exactly the metrics
``BENCHMARK.json`` names.  The runner tests run miniature workloads in a
child process (``tiny_runner.py``), so no sweep pool is forked from, and
no run is traced in, the test process.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import calibration, tracing, workloads  # noqa: E402
from repro.simulation.engine import Simulator  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert list(tracing.self_times(parents, starts, ends)) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_summary_aggregates_self_time_by_name():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_id("core.event"), tracer.name_id("network.transmit")
    for parent, nid, start, end in ((-1, outer, 0.0, 5.0), (0, inner, 1.0, 2.0),
                                    (0, inner, 3.0, 4.5), (-1, inner, 6.0, 7.0)):
        tracer.name_ids.append(nid)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    spans = tracer.summary()["spans"]
    assert spans["core.event"] == [1, 2.5]
    assert spans["network.transmit"] == [3, 3.5]
    assert tracing.layer_self_times(tracer.summary()) == {"core": 2.5, "network": 3.5}


def test_tracer_absorbs_worker_totals():
    tracer = tracing.Tracer()
    tracer.add("engine.events", 5)
    tracer.peak("engine.heap_peak", 7)
    tracer.absorb({"spans": {"baselines.on_packet": [2, 0.5]},
                   "counters": {"engine.events": 3}, "peaks": {"engine.heap_peak": 9}})
    summary = tracer.summary()
    assert summary["spans"]["baselines.on_packet"] == [2, 0.5]
    assert summary["counters"]["engine.events"] == 8
    assert summary["peaks"]["engine.heap_peak"] == 9


def test_spans_written_once_read_back(tmp_path):
    tracer = tracing.Tracer()
    nid = tracer.name_id("mac.plan")
    outer = tracer.open(nid)
    tracer.close(tracer.open(nid))
    tracer.close(outer)
    path = str(tmp_path / "spans.bin.gz")
    tracer.write(path)
    spans = tracing.read_spans(path)
    assert [(name, parent) for name, parent, _s, _e in spans] == [("mac.plan", -1), ("mac.plan", 0)]
    assert all(start <= end for _n, _p, start, end in spans)


def test_instrumentation_restores_entry_points():
    original = Simulator.__dict__["schedule"]
    with tracing.Instrumentation(tracing.Tracer()):
        assert Simulator.__dict__["schedule"] is not original
    assert Simulator.__dict__["schedule"] is original
    assert tracing._ACTIVE is None


def test_module_layers():
    assert tracing.layer_of_module("repro.core.protocol") == "core"
    assert tracing.layer_of_module("repro.simulation.phy") == "radio"
    assert tracing.layer_of_module("repro.simulation.traffic") == "traffic"
    assert tracing.layer_of_module("repro.simulationx") == "other"


# -- the reference loop ------------------------------------------------------


def test_reference_loop_is_deterministic():
    assert calibration.reference_loop() == calibration.REFERENCE_RESULT


def test_in_refs_divides_by_the_mean_of_the_bracketing_timings():
    assert calibration.in_refs(3.0, 0.1, 0.2) == pytest.approx(20.0)


def test_back_to_back_passes_share_a_reference_timing():
    calibrator = calibration.Calibrator()
    calibrator.samples = [0.1]
    calibrator.sample = lambda: calibrator.samples.append(0.3) or 0.3
    done, timed = workloads.timed_pass(calibrator, lambda: 4.0, lambda wall: wall)
    assert done == 4.0 and timed.seconds == 4.0
    assert timed.refs == pytest.approx(20.0)
    assert calibrator.samples == [0.1, 0.3]


# -- the percentile rule -----------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = list(range(200, 0, -1))
    assert workloads.percentile(values, 0.95) == 190
    assert workloads.percentile(values, 0.50) == 100
    with pytest.raises(workloads.CheckFailed):
        workloads.percentile(values[:199], 0.95)
    assert workloads.percentile(list(range(20)), 0.50) == 9
    with pytest.raises(workloads.CheckFailed):
        workloads.percentile(list(range(19)), 0.50)


# -- names -------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed(bench):
    entries = bench["end_to_end"] + bench["per_layer"] + bench["workloads"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
    for units in (workloads.END_TO_END_UNITS, tracing.PER_LAYER_UNITS):
        for name, unit in units.items():
            assert NAME.fullmatch(name) and UNIT.fullmatch(unit), name


def test_benchmark_json_matches_the_runner(bench):
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- the runner, on miniature workloads, in a child process ----------------

TINY_RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tiny_runner.py")
TINY = ("tiny_hvdb", "tiny_sweep")
#: seconds a child run may take before the test fails instead of waiting
CHILD_TIMEOUT = 300


def _child(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, TINY_RUNNER, *args], cwd=ROOT, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )


def _run(tmp_path, workload, trace, *flags):
    done = _child("main", str(tmp_path), *flags, "--", "--workload", workload,
                  "--seed", "3", "--seconds", "0", "--trace", str(trace))
    lines = done.stdout.splitlines()
    assert lines, done.stderr
    return done.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", TINY)
def test_runner_emits_exactly_the_named_metrics(tmp_path, bench, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, result = _run(tmp_path, workload, trace)
        assert code == 0, lines
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in bench[section]}
        for metric in bench[section]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"digest {workload} seed=3 ") for line in lines)
    assert os.path.exists(tmp_path / "out" / f"spans-{workload}-seed3.bin.gz")


def test_same_seed_same_digest_traced_or_not(tmp_path):
    done = _child("digests", str(tmp_path))
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout.splitlines()[-1])
    plain_failed, plain = digests["plain"]
    traced_failed, traced = digests["traced"]
    assert plain_failed == 0 and traced_failed == 0
    assert traced == plain
    first, second = digests["pass_twice"]
    assert first == second
    assert digests["other_seed"] != plain


def test_failed_check_fails_the_run(tmp_path):
    code, lines, result = _run(tmp_path, "tiny_hvdb", 0, "--broken")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert any("FAILED" in line for line in lines)
