"""Tests of wall-time perf-regression tracking (`repro.experiments.perf`).

The comparisons run on synthetic RunResult lists -- no simulation needed
-- plus one CLI pass over exported artifacts checking the exit-code
contract CI relies on: 0 ok/improved, 1 regressed, 2 missing baseline.
"""

import dataclasses
import json

import pytest

from repro.experiments.orchestrator import (
    RunResult,
    expand_spec,
    export_json,
)
from repro.experiments.perf import (
    compare_wall_times,
    load_results,
    mann_whitney_p,
    point_label,
    wall_time_groups,
)
from repro.experiments.stores import JsonStore


def fake_result(params, seed, wall_time):
    return RunResult(
        run_id=f"fake/{point_label(params)}/seed={seed}",
        params=dict(params),
        seed=seed,
        duration=10.0,
        metrics={"pdr": 0.5},
        wall_time=wall_time,
    )


def result_set(wall_times_by_point):
    """{point-params-tuple: [wall_times]} -> list of RunResults."""
    results = []
    for params, wall_times in wall_times_by_point.items():
        for seed, wall_time in enumerate(wall_times, start=1):
            results.append(fake_result(dict(params), seed, wall_time))
    return results


class TestGrouping:
    def test_point_label_excludes_seed_and_sorts(self):
        assert point_label({"b": 2, "a": 1, "seed": 9}) == "a=1,b=2"
        assert point_label({}) == "base"

    def test_wall_time_groups(self):
        results = result_set({(("n", 10),): [1.0, 2.0], (("n", 20),): [3.0]})
        groups = wall_time_groups(results)
        assert groups == {"n=10": [1.0, 2.0], "n=20": [3.0]}


class TestMannWhitney:
    def test_identical_samples_not_significant(self):
        assert mann_whitney_p([1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]) > 0.5

    def test_clearly_shifted_samples_significant(self):
        a = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02]
        b = [2.0, 2.1, 1.9, 2.05, 1.95, 2.02]
        assert mann_whitney_p(a, b) < 0.05

    def test_empty_side_is_inconclusive(self):
        assert mann_whitney_p([], [1.0]) == 1.0


class TestCompare:
    def test_within_tolerance_is_ok(self):
        base = result_set({(("n", 10),): [1.0, 1.0, 1.0]})
        cur = result_set({(("n", 10),): [1.1, 1.1, 1.1]})
        report = compare_wall_times(base, cur, tolerance=0.25)
        assert [p.status for p in report.points] == ["ok"]
        assert not report.regressed

    def test_synthetic_2x_regression_is_flagged(self):
        base = result_set({(("n", 10),): [1.0, 1.05, 0.95, 1.0, 1.02]})
        cur = result_set({(("n", 10),): [2.0, 2.1, 1.9, 2.0, 2.05]})
        report = compare_wall_times(base, cur, tolerance=0.5)
        (point,) = report.points
        assert point.status == "regressed"
        assert point.ratio == pytest.approx(2.0, rel=0.1)
        assert point.p_value is not None and point.p_value < 0.05
        assert report.regressed

    def test_noisy_single_point_needs_significance(self):
        # median ratio above tolerance but overlapping distributions:
        # the Mann-Whitney gate keeps one noisy machine from failing CI
        base = result_set({(("n", 10),): [1.0, 3.0, 1.1, 2.9]})
        cur = result_set({(("n", 10),): [2.8, 1.05, 3.1, 1.2]})
        report = compare_wall_times(base, cur, tolerance=0.25)
        assert [p.status for p in report.points] == ["ok"]

    def test_improvement_is_reported_not_failed(self):
        base = result_set({(("n", 10),): [2.0, 2.0]})
        cur = result_set({(("n", 10),): [1.0, 1.0]})
        report = compare_wall_times(base, cur, tolerance=0.25)
        assert [p.status for p in report.points] == ["improved"]
        assert not report.regressed

    def test_missing_points_are_classified(self):
        base = result_set({(("n", 10),): [1.0], (("n", 20),): [1.0]})
        cur = result_set({(("n", 20),): [1.0], (("n", 30),): [1.0]})
        report = compare_wall_times(base, cur)
        by_point = {p.point: p.status for p in report.points}
        assert by_point == {
            "n=10": "missing-current",
            "n=20": "ok",
            "n=30": "missing-baseline",
        }

    def test_report_serialises(self):
        base = result_set({(("n", 10),): [1.0]})
        report = compare_wall_times(base, base, sweep="demo")
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["sweep"] == "demo"
        assert doc["regressed"] is False
        assert doc["counts"] == {"ok": 1}

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_wall_times([], [], tolerance=-0.1)


class TestLoadResults:
    def test_loads_json_artifact(self, tmp_path):
        results = result_set({(("n", 10),): [1.0, 2.0]})
        path = str(tmp_path / "out.json")
        export_json(results, path)
        loaded = load_results(path)
        assert [r.wall_time for r in loaded] == [1.0, 2.0]

    def test_cache_dir_requires_spec(self, tmp_path):
        with pytest.raises(ValueError, match="cache directory"):
            load_results(str(tmp_path))

    def test_loads_cache_dir_via_spec_and_version(self, tmp_path):
        from repro.experiments.orchestrator import SweepSpec
        from repro.experiments.scenarios import ScenarioConfig

        spec = SweepSpec(
            name="tiny",
            base=ScenarioConfig(protocol="flooding", n_nodes=12),
            grid={"n_nodes": [10, 14]},
            seeds=(1,),
            duration=10.0,
        )
        cache = JsonStore(str(tmp_path))
        runs = expand_spec(spec)
        for i, run in enumerate(runs):
            # stamp entries under CACHE_VERSION generation 99 only
            cache.put(run.cache_key(version=99), fake_result(run.params, run.seed, float(i + 1)))
        assert load_results(str(tmp_path), spec) == []
        loaded = load_results(str(tmp_path), spec, cache_version=99)
        assert [r.wall_time for r in loaded] == [1.0, 2.0]
        # run ids are re-labelled under the requesting spec
        assert [r.run_id for r in loaded] == [r.run_id for r in runs]


class TestPerfCli:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        base = result_set({(("n_nodes", 10),): [1.0, 1.0, 1.0, 1.0, 1.0]})
        fast = result_set({(("n_nodes", 10),): [0.5, 0.5, 0.5, 0.5, 0.5]})
        slow = result_set({(("n_nodes", 10),): [2.0, 2.0, 2.0, 2.0, 2.0]})
        paths = {}
        for name, results in (("base", base), ("fast", fast), ("slow", slow)):
            paths[name] = str(tmp_path / f"{name}.json")
            export_json(results, paths[name])
        return paths

    def test_exit_codes(self, artifacts, tmp_path, capsys):
        from repro.experiments.__main__ import main

        report = str(tmp_path / "report.json")
        improved = main(
            ["perf", "smoke", "--baseline", artifacts["base"],
             "--current", artifacts["fast"], "--report", report]
        )
        assert improved == 0
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["counts"] == {"improved": 1}

        regressed = main(
            ["perf", "smoke", "--baseline", artifacts["base"],
             "--current", artifacts["slow"], "--tolerance", "0.5"]
        )
        assert regressed == 1

        missing = main(
            ["perf", "smoke", "--baseline", str(tmp_path / "nope.json"),
             "--current", artifacts["slow"]]
        )
        assert missing == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_current_points_are_exit_2(self, artifacts, tmp_path, capsys):
        from repro.experiments.__main__ import main

        # baseline covers two grid points, current only one: the gate
        # must not report "no regression" for the vanished point
        base = result_set(
            {(("n_nodes", 10),): [1.0, 1.0], (("n_nodes", 20),): [1.0, 1.0]}
        )
        wide = str(tmp_path / "wide.json")
        export_json(base, wide)
        code = main(["perf", "smoke", "--baseline", wide, "--current", artifacts["base"]])
        assert code == 2
        assert "no current results" in capsys.readouterr().err

    def test_cache_version_flag_rejected_for_json_artifacts(
        self, artifacts, capsys
    ):
        from repro.experiments.__main__ import main

        code = main(
            ["perf", "smoke", "--baseline", artifacts["base"],
             "--current", artifacts["slow"], "--baseline-cache-version", "1"]
        )
        assert code == 2
        assert "not a cache directory" in capsys.readouterr().err

    def test_empty_baseline_is_exit_2(self, artifacts, tmp_path, capsys):
        from repro.experiments.__main__ import main

        empty = str(tmp_path / "empty.json")
        export_json([], empty)
        code = main(
            ["perf", "smoke", "--baseline", empty, "--current", artifacts["slow"]]
        )
        assert code == 2
        assert "holds no results" in capsys.readouterr().err


class TestTrend:
    @staticmethod
    def entry(medians, accepted=False, sweep="tiny", recorded_at="2026-01-01T00:00:00+00:00"):
        from repro.experiments.perf import TrendEntry

        return TrendEntry(
            sweep=sweep,
            recorded_at=recorded_at,
            commit="abc123",
            store="json",
            executor="",
            n_runs=sum(1 for _ in medians),
            medians=dict(medians),
            accepted=accepted,
        )

    def test_trend_entry_from_results(self):
        from repro.experiments.perf import trend_entry

        results = result_set(
            {(("n", 10),): [1.0, 3.0, 2.0], (("n", 20),): [4.0]}
        )
        entry = trend_entry("tiny", results, store="sqlite", executor="tcp")
        assert entry.sweep == "tiny"
        assert entry.medians == {"n=10": 2.0, "n=20": 4.0}
        assert entry.n_runs == 4
        assert entry.store == "sqlite"
        assert entry.accepted is False
        assert entry.recorded_at.endswith("+00:00")

    def test_append_and_load_round_trip(self, tmp_path):
        from repro.experiments.perf import append_trend, load_trend

        path = str(tmp_path / "trend.jsonl")
        assert load_trend(path) == []
        first = self.entry({"n=10": 1.0})
        second = self.entry({"n=10": 1.1}, sweep="other")
        append_trend(path, first)
        append_trend(path, second)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{corrupt line\n")
        entries = load_trend(path)
        assert [e.sweep for e in entries] == ["tiny", "other"]
        assert [e.sweep for e in load_trend(path, sweep="tiny")] == ["tiny"]
        assert entries[0].medians == {"n=10": 1.0}

    def test_check_trend_statuses(self):
        from repro.experiments.perf import check_trend

        flat = [self.entry({"n=10": 1.0}) for _ in range(4)]
        report = check_trend(flat + [self.entry({"n=10": 1.05})], tolerance=0.25)
        assert {p.status for p in report.points} == {"ok"}
        assert not report.regressed

        report = check_trend(flat + [self.entry({"n=10": 2.0})], tolerance=0.25)
        assert [p.status for p in report.points] == ["regressed"]
        assert report.regressed
        assert report.points[0].ratio == pytest.approx(2.0)

        report = check_trend(flat + [self.entry({"n=10": 0.5})], tolerance=0.25)
        assert [p.status for p in report.points] == ["improved"]
        assert not report.regressed

    def test_check_trend_first_entry_has_no_history(self):
        from repro.experiments.perf import check_trend

        report = check_trend([self.entry({"n=10": 1.0})])
        assert [p.status for p in report.points] == ["no-history"]
        assert report.entries == 0

    def test_check_trend_new_point_is_informational(self):
        from repro.experiments.perf import check_trend

        entries = [
            self.entry({"n=10": 1.0}),
            self.entry({"n=10": 1.0, "n=20": 9.0}),
        ]
        report = check_trend(entries, tolerance=0.25)
        statuses = {p.point: p.status for p in report.points}
        assert statuses == {"n=10": "ok", "n=20": "new-point"}
        assert not report.regressed

    def test_check_trend_accept_resets_reference(self):
        from repro.experiments.perf import check_trend

        entries = [
            self.entry({"n=10": 1.0}),
            self.entry({"n=10": 1.0}),
            self.entry({"n=10": 2.0}, accepted=True),  # blessed slowdown
            self.entry({"n=10": 2.1}),
        ]
        report = check_trend(entries, tolerance=0.25)
        assert [p.status for p in report.points] == ["ok"]
        assert report.entries == 1  # history truncated at the accepted entry

    def test_check_trend_window_limits_history(self):
        from repro.experiments.perf import check_trend

        old = [self.entry({"n=10": 9.0}) for _ in range(5)]
        recent = [self.entry({"n=10": 1.0}) for _ in range(6)]
        report = check_trend(
            old + recent + [self.entry({"n=10": 1.1})], window=5
        )
        assert [p.status for p in report.points] == ["ok"]
        assert report.entries == 5

    def test_check_trend_empty_raises(self):
        from repro.experiments.orchestrator import SpecError
        from repro.experiments.perf import check_trend

        with pytest.raises(SpecError):
            check_trend([])

    def test_median_noise_tolerated(self):
        from repro.experiments.perf import check_trend

        history = [
            self.entry({"n=10": m}) for m in (1.0, 1.0, 5.0, 1.0, 1.0)
        ]  # one noisy CI machine in the window
        report = check_trend(history + [self.entry({"n=10": 1.1})])
        assert [p.status for p in report.points] == ["ok"]


class TestTrendCli:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        base = result_set({(("n_nodes", 10),): [1.0, 1.0, 1.0, 1.0, 1.0]})
        slow = result_set({(("n_nodes", 10),): [4.0, 4.0, 4.0, 4.0, 4.0]})
        paths = {}
        for name, results in (("base", base), ("slow", slow)):
            paths[name] = str(tmp_path / f"{name}.json")
            export_json(results, paths[name])
        return paths

    def test_requires_baseline_or_trend(self, artifacts, capsys):
        from repro.experiments.__main__ import main

        code = main(["perf", "smoke", "--current", artifacts["base"]])
        assert code == 2
        assert "nothing to compare" in capsys.readouterr().err

    def test_trend_append_then_regression(self, artifacts, tmp_path, capsys):
        from repro.experiments.__main__ import main
        from repro.experiments.perf import load_trend

        trend = str(tmp_path / "trend.jsonl")
        for _ in range(3):
            assert main(
                ["perf", "smoke", "--current", artifacts["base"], "--trend", trend]
            ) == 0
        capsys.readouterr()
        code = main(
            ["perf", "smoke", "--current", artifacts["slow"], "--trend", trend]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert len(load_trend(trend)) == 4  # the regressing entry is recorded

    def test_accept_blesses_slowdown_and_refreshes_baseline(
        self, artifacts, tmp_path, capsys
    ):
        from repro.experiments.__main__ import main
        from repro.experiments.perf import load_results, load_trend

        trend = str(tmp_path / "trend.jsonl")
        for _ in range(2):
            main(["perf", "smoke", "--current", artifacts["base"], "--trend", trend])
        code = main(
            ["perf", "smoke", "--current", artifacts["slow"], "--trend", trend,
             "--baseline", artifacts["base"], "--accept"]
        )
        assert code == 0
        assert load_trend(trend)[-1].accepted is True
        # the baseline artifact now holds the accepted (slow) results
        refreshed = load_results(artifacts["base"])
        assert [r.wall_time for r in refreshed] == [4.0] * 5
        # the next run compares against the accepted entry: no regression
        capsys.readouterr()
        assert main(
            ["perf", "smoke", "--current", artifacts["slow"], "--trend", trend]
        ) == 0

    def test_accept_refuses_store_baseline(self, artifacts, tmp_path, capsys):
        from repro.experiments.__main__ import main

        store_dir = tmp_path / "cache"
        store_dir.mkdir()
        code = main(
            ["perf", "smoke", "--current", artifacts["base"],
             "--trend", str(tmp_path / "trend.jsonl"),
             "--baseline", str(store_dir), "--accept"]
        )
        assert code == 2
        assert "result store" in capsys.readouterr().err

    def test_trend_report_file_carries_both_sections(
        self, artifacts, tmp_path
    ):
        from repro.experiments.__main__ import main

        trend = str(tmp_path / "trend.jsonl")
        report = str(tmp_path / "report.json")
        code = main(
            ["perf", "smoke", "--current", artifacts["base"],
             "--baseline", artifacts["base"], "--trend", trend,
             "--report", report]
        )
        assert code == 0
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert set(doc) == {"comparison", "trend"}
        assert doc["trend"]["points"][0]["status"] == "no-history"
