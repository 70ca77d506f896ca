"""Tests of pluggable executor backends.

Covers the guarantees the execution layer rests on: exactly the three
backends (serial, process, tcp) are registered and unknown names fail
eagerly with alternatives (RegistryError UX), every backend produces
byte-identical artifacts on the same grid, a warm cache populated under
one executor replays with zero executions under every other, duplicate
cache keys are recorded under each run's own identity, and serial/tcp
emit the same progress lines as the process pool.  The tcp backend's
wire protocol, lease state machine and churn handling are covered in
``tests/test_net.py``.
"""

import os
import re

import pytest

from repro.experiments.executors import EXECUTORS, make_executor
from repro.experiments.orchestrator import (
    SweepSpec,
    expand_spec,
    export_csv,
    run_sweep,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.registry import RegistryError

from test_net import run_with_tcp


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny",
        base=ScenarioConfig(
            protocol="flooding",
            n_nodes=12,
            area_size=500.0,
            radio_range=250.0,
            max_speed=2.0,
            group_size=4,
            traffic_start=3.0,
            traffic_interval=2.0,
        ),
        grid={"n_nodes": [10, 14]},
        seeds=(1, 2),
        duration=10.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestExecutorRegistry:
    def test_all_three_backends_registered(self):
        assert EXECUTORS.names() == ["process", "serial", "tcp"]

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(RegistryError, match="process, serial, tcp"):
            make_executor("warp")

    def test_run_sweep_rejects_unknown_executor_eagerly(self, tmp_path):
        # like a typo'd protocol: fail before the cache is even created
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(RegistryError, match="warp"):
            run_sweep(tiny_spec(seeds=(1,)), cache_dir=cache_dir, executor="warp")
        assert not os.path.exists(cache_dir)

    def test_spec_level_executor_field(self):
        results = run_sweep(tiny_spec(seeds=(1,), executor="serial"))
        assert len(results) == 2
        with pytest.raises(RegistryError, match="warp"):
            run_sweep(tiny_spec(seeds=(1,), executor="warp"))

    def test_call_site_overrides_spec_field(self):
        # the kwarg wins, so a broken spec default can be overridden
        results = run_sweep(tiny_spec(seeds=(1,), executor="warp"), executor="serial")
        assert len(results) == 2


class TestBackendEquivalence:
    def test_all_backends_byte_identical_artifacts(self, tmp_path):
        spec = tiny_spec()
        blobs = {}
        for backend in ("serial", "process", "tcp"):
            cache_dir = str(tmp_path / f"cache-{backend}")
            if backend == "tcp":
                results = run_with_tcp(spec, cache_dir=cache_dir)
            else:
                results = run_sweep(
                    spec, workers=2, cache_dir=cache_dir, executor=backend
                )
            assert all(not r.from_cache for r in results)
            path = str(tmp_path / f"{backend}.csv")
            export_csv(results, path)
            with open(path, "rb") as fh:
                blobs[backend] = fh.read()
        assert blobs["process"] == blobs["serial"]
        assert blobs["tcp"] == blobs["serial"]

    def test_warm_cache_replays_under_every_backend(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        reference = run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        for backend in ("process", "tcp"):
            # no workers attached anywhere: with zero cache misses tcp
            # never binds
            replay = run_sweep(spec, workers=0, cache_dir=cache_dir, executor=backend)
            assert all(r.from_cache for r in replay)
            assert [r.metrics for r in replay] == [r.metrics for r in reference]

    def test_duplicate_cache_keys_recorded_under_each_runs_identity(self, tmp_path):
        # a pure label axis expands to runs with identical configs (one
        # shared cache key) but distinct run ids; the tcp coordinator
        # deduplicates the submit, executes once and must stamp each
        # recorded copy with its own identity, byte-matching an
        # in-process backend's artifacts
        spec = tiny_spec(
            grid={"variant": [{"variant": "a"}, {"variant": "b"}]}, seeds=(1,)
        )
        runs = expand_spec(spec)
        assert len({run.cache_key() for run in runs}) == 1
        reference = run_sweep(spec, executor="serial")
        leased = run_with_tcp(spec, n_workers=1)
        assert [r.run_id for r in leased] == [r.run_id for r in reference]
        assert [r.params for r in leased] == [r.params for r in reference]
        ref_csv, tcp_csv = str(tmp_path / "ref.csv"), str(tmp_path / "tcp.csv")
        export_csv(reference, ref_csv)
        export_csv(leased, tcp_csv)
        with open(ref_csv, "rb") as fh:
            ref_bytes = fh.read()
        with open(tcp_csv, "rb") as fh:
            assert fh.read() == ref_bytes


def _progress_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line]


def _per_run_ids(lines, total):
    ids = []
    for line in lines:
        match = re.search(rf"\(\d+/{total}\) (\S+)", line)
        if match:
            ids.append(match.group(1))
    return ids


class TestProgressParity:
    """serial/tcp must emit the same progress stream as the process pool."""

    def run_and_capture(self, capsys, backend, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / f"cache-{backend}")
        if backend == "tcp":
            run_with_tcp(spec, cache_dir=cache_dir, progress=True)
        else:
            run_sweep(
                spec, workers=2, cache_dir=cache_dir, executor=backend, progress=True
            )
        return _progress_lines(capsys)

    @pytest.mark.parametrize("backend", ["serial", "process", "tcp"])
    def test_backend_emits_full_progress_stream(self, capsys, tmp_path, backend):
        lines = self.run_and_capture(capsys, backend, tmp_path)
        schedule = [line for line in lines if "to execute on" in line]
        assert len(schedule) == 1
        assert f"[{backend}" in schedule[0]
        assert "4 runs: 0 cache hits, 4 to execute on" in schedule[0]
        assert sorted(_per_run_ids(lines, 4)) == sorted(
            run.run_id for run in expand_spec(tiny_spec())
        )
        assert any("done: 0 cached + 4 executed" in line for line in lines)

    def test_progress_false_is_silent(self, capsys, tmp_path):
        run_sweep(
            tiny_spec(seeds=(1,)),
            cache_dir=str(tmp_path / "cache"),
            executor="serial",
            progress=False,
        )
        assert _progress_lines(capsys) == []

    def test_progress_false_silences_spawned_tcp_workers_too(
        self, capfd, tmp_path
    ):
        # the only test spawning a real `python -m repro.experiments
        # worker --connect` subprocess: it inherits stderr (capfd sees
        # it), and a progress-suppressed sweep must stay silent end to end
        results = run_sweep(
            tiny_spec(grid={}, seeds=(1,)),
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            executor="tcp",
            executor_options={"port": 0, "poll_interval": 0.05},
            progress=False,
        )
        assert len(results) == 1 and not results[0].from_cache
        out, err = capfd.readouterr()
        assert out == "" and err == ""


class TestCliSurface:
    def test_executors_subcommand_lists_backends(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["executors"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "process", "tcp"):
            assert name in out

    def test_run_rejects_unknown_executor(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "smoke", "--executor", "warp", "--format", "none"]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "serial" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "smoke", "--queue-dir", "x"],
            ["worker", "--queue-dir", "x"],
            ["worker", "--connect", "127.0.0.1:9", "--stale-after", "5"],
        ],
    )
    def test_removed_queue_flags_are_usage_errors(self, capsys, args):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_worker_subcommand_max_tasks_zero_exits(self, capsys):
        from repro.experiments.__main__ import main

        # a zero budget returns before the worker ever dials the address
        args = ["worker", "--connect", "127.0.0.1:9", "--max-tasks", "0"]
        assert main(args) == 0
        assert "executed 0 run(s)" in capsys.readouterr().out
