"""Tests of sweep-level sharding, spec validation and cache merging.

Covers the invariants CI sharding rests on: every run lands in exactly
one shard, the shards' union is the full stable expansion order, a merged
shard cache reproduces an unsharded run byte-for-byte, merging is
idempotent, and misconfigured specs/shards fail loudly instead of
expanding to a silent empty grid.
"""

import dataclasses
import os

import pytest

from repro.core.protocol import HVDBParameters
from repro.experiments.orchestrator import (
    SpecError,
    SweepSpec,
    expand_spec,
    merge_caches,
    parse_shard,
    run_sweep,
    shard_runs,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.stores import make_store


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


class TestParseShard:
    def test_valid(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/3") == (2, 3)
        assert parse_shard(" 3 / 3 ") == (3, 3)

    @pytest.mark.parametrize("text", ["", "2", "2/", "/3", "a/b", "2-3", "1/2/3"])
    def test_malformed(self, text):
        with pytest.raises(SpecError, match="INDEX/COUNT"):
            parse_shard(text)

    @pytest.mark.parametrize("text", ["0/3", "4/3", "1/0"])
    def test_out_of_range(self, text):
        with pytest.raises(SpecError):
            parse_shard(text)


class TestShardPartitioning:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 20])
    def test_every_run_in_exactly_one_shard(self, count):
        runs = expand_spec(tiny_spec(grid={"n_nodes": [10, 12, 14]}, seeds=(1, 2)))
        shards = [shard_runs(runs, i, count) for i in range(1, count + 1)]
        ids = [r.run_id for shard in shards for r in shard]
        assert sorted(ids) == sorted(r.run_id for r in runs)
        assert len(ids) == len(set(ids)) == len(runs)

    def test_union_preserves_expansion_order(self):
        runs = expand_spec(tiny_spec(grid={"n_nodes": [10, 12, 14]}, seeds=(1, 2)))
        count = 3
        shards = [shard_runs(runs, i, count) for i in range(1, count + 1)]
        # round-robin: run j sits at position j // count of shard j % count + 1
        for j, run in enumerate(runs):
            assert shards[j % count][j // count] is run

    def test_shards_are_deterministic(self):
        a = shard_runs(expand_spec(tiny_spec()), 2, 3)
        b = shard_runs(expand_spec(tiny_spec()), 2, 3)
        assert [r.run_id for r in a] == [r.run_id for r in b]

    def test_count_beyond_runs_gives_empty_tail_shards(self):
        runs = expand_spec(tiny_spec(seeds=(1,)))  # 2 runs
        assert shard_runs(runs, 3, 5) == []
        all_ids = [r.run_id for i in range(1, 6) for r in shard_runs(runs, i, 5)]
        assert sorted(all_ids) == sorted(r.run_id for r in runs)

    def test_index_out_of_range_raises(self):
        runs = expand_spec(tiny_spec())
        with pytest.raises(SpecError, match="out of range"):
            shard_runs(runs, 4, 3)
        with pytest.raises(SpecError, match="out of range"):
            shard_runs(runs, 0, 3)


class TestSpecValidation:
    def test_empty_axis_raises(self):
        with pytest.raises(SpecError, match="axis 'n_nodes' of sweep 'tiny' has no values"):
            expand_spec(tiny_spec(grid={"n_nodes": []}))

    def test_empty_seeds_raises(self):
        with pytest.raises(SpecError, match="no replication seeds"):
            expand_spec(tiny_spec(seeds=()))

    def test_unknown_axis_raises(self):
        with pytest.raises(SpecError, match="'n_node'"):
            expand_spec(tiny_spec(grid={"n_node": [10]}))

    def test_unknown_override_key_in_dict_axis_raises(self):
        with pytest.raises(SpecError, match="'radio_rnge'"):
            expand_spec(
                tiny_spec(grid={"n_nodes": [{"n_nodes": 10, "radio_rnge": 9.0}]})
            )

    def test_runner_sweep_rejects_empty_values(self):
        from repro.experiments.runner import sweep

        with pytest.raises(SpecError, match="no values"):
            sweep(tiny_spec().base, parameter="n_nodes", values=[])

    def test_run_sweep_surfaces_spec_errors(self):
        with pytest.raises(SpecError):
            run_sweep(tiny_spec(grid={"n_nodes": []}))

    def test_run_sweep_rejects_unregistered_hooks_eagerly(self, tmp_path):
        # a typo'd hook must fail before any run executes, not per-run
        # inside the workers after the rest of the grid burned its budget
        cache_dir = str(tmp_path / "cache")
        spec = tiny_spec(seeds=(1,), during_run="no_such_hook")
        with pytest.raises(SpecError, match="no_such_hook"):
            run_sweep(spec, workers=1, cache_dir=cache_dir)
        # validation fires before the cache is even created, let alone written
        assert not os.path.exists(cache_dir)

    def test_run_sweep_rejects_unregistered_hook_axis_value(self):
        spec = tiny_spec(grid={"during_run": ["also_missing"]}, seeds=(1,))
        with pytest.raises(SpecError, match="also_missing"):
            run_sweep(spec, workers=1)


class TestHookAndLabelAxes:
    def test_hook_axis_overrides_runspec_hook(self):
        spec = tiny_spec(grid={"during_run": ["hook_a", "hook_b"]}, seeds=(1,))
        runs = expand_spec(spec)
        assert [r.during_run for r in runs] == ["hook_a", "hook_b"]
        assert [r.params for r in runs] == [
            {"during_run": "hook_a"},
            {"during_run": "hook_b"},
        ]
        # the hook is part of the outcome, so the cache must distinguish
        assert runs[0].cache_key() != runs[1].cache_key()

    def test_hook_axis_defaults_to_spec_level_hook(self):
        spec = tiny_spec(before_run="warmup", seeds=(1,))
        (run_a, ) = expand_spec(dataclasses.replace(spec, grid={}))
        assert run_a.before_run == "warmup"

    def test_label_axis_records_only_the_label(self):
        params_obj = HVDBParameters(max_logical_hops=2)
        spec = tiny_spec(
            grid={"variant": [{"variant": "k2", "hvdb.params": params_obj}]},
            seeds=(1,),
        )
        (run,) = expand_spec(spec)
        assert run.params == {"variant": "k2"}
        assert run.config.hvdb.params is params_obj
        assert run.run_id == "tiny/variant=k2/seed=1"

    def test_label_axis_distinguishes_cache_keys(self):
        spec = tiny_spec(
            grid={
                "variant": [
                    {"variant": "k2", "hvdb.params": HVDBParameters(max_logical_hops=2)},
                    {"variant": "k6", "hvdb.params": HVDBParameters(max_logical_hops=6)},
                ]
            },
            seeds=(1,),
        )
        a, b = expand_spec(spec)
        assert a.cache_key() != b.cache_key()

    def test_coupled_config_axis_keeps_all_params(self):
        # pre-existing behaviour: no label key -> every override is a param
        spec = tiny_spec(
            grid={"n_nodes": [{"n_nodes": 10, "area_size": 400.0}]}, seeds=(1,)
        )
        (run,) = expand_spec(spec)
        assert run.params == {"n_nodes": 10, "area_size": 400.0}


class TestFixedSweepRunIds:
    """A fixed sweep runs exactly ``expand_spec``'s runs, cold and warm."""

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(seeds=(1, 1, 2)), id="duplicate-seeds"),
            pytest.param(dict(grid={"seed": [3, 4]}, seeds=(1, 2)), id="seed-axis"),
            pytest.param(dict(), id="plain"),
        ],
    )
    def test_run_ids_match_expansion_through_a_cache(self, tmp_path, overrides):
        spec = tiny_spec(**overrides)
        expected = [run.run_id for run in expand_spec(spec)]
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(spec, workers=1, cache_dir=cache_dir)
        warm = run_sweep(spec, workers=1, cache_dir=cache_dir)
        assert [r.run_id for r in cold] == expected
        assert [r.run_id for r in warm] == expected
        assert [r.seed for r in warm] == [r.seed for r in cold]
        assert all(r.from_cache for r in warm)


class TestShardedExecution:
    def test_shards_cover_grid_once_and_merge_matches_unsharded(self, tmp_path):
        spec = tiny_spec()
        reference = run_sweep(spec, workers=1)

        shard_dirs = []
        executed = 0
        for index in (1, 2, 3):
            shard_dir = str(tmp_path / f"shard{index}")
            shard_dirs.append(shard_dir)
            results = run_sweep(spec, workers=1, cache_dir=shard_dir, shard=(index, 3))
            assert all(not r.from_cache for r in results)
            # each shard job runs, and caches, exactly its round-robin slice
            # of the expansion -- no more, no fewer, in expansion order
            expected = shard_runs(expand_spec(spec), index, 3)
            assert [r.run_id for r in results] == [r.run_id for r in expected]
            store = make_store(shard_dir)
            try:
                assert sorted(store.keys()) == sorted(r.cache_key() for r in expected)
            finally:
                store.close()
            executed += len(results)
        assert executed == spec.run_count

        merged_dir = str(tmp_path / "merged")
        copied, skipped = merge_caches(shard_dirs, merged_dir)
        assert (copied, skipped) == (spec.run_count, 0)

        merged = run_sweep(spec, workers=1, cache_dir=merged_dir)
        assert all(r.from_cache for r in merged)
        assert [r.run_id for r in merged] == [r.run_id for r in reference]
        assert [r.metrics for r in merged] == [r.metrics for r in reference]

    def test_merge_is_idempotent(self, tmp_path):
        spec = tiny_spec(seeds=(1,))
        shard_dir = str(tmp_path / "shard")
        run_sweep(spec, workers=1, cache_dir=shard_dir, shard=(1, 1))
        merged_dir = str(tmp_path / "merged")
        first = merge_caches([shard_dir], merged_dir)
        assert first == (spec.run_count, 0)
        again = merge_caches([shard_dir], merged_dir)
        assert again == (0, spec.run_count)

    def test_merge_missing_source_raises(self, tmp_path):
        with pytest.raises(SpecError, match="does not exist"):
            merge_caches([str(tmp_path / "nope")], str(tmp_path / "merged"))


class TestCliSharding:
    @pytest.fixture()
    def tiny_smoke(self, monkeypatch):
        from repro.experiments import specs

        monkeypatch.setitem(
            specs.SPECS,
            "smoke",
            dataclasses.replace(
                specs.get_spec("smoke"), grid={"n_nodes": [10, 12]}, seeds=(1,), duration=8.0
            ),
        )
        return specs.get_spec("smoke")

    def test_sharded_cli_runs_merge_to_identical_artifacts(
        self, tmp_path, capsys, tiny_smoke
    ):
        from repro.experiments.__main__ import main

        ref_out = str(tmp_path / "ref")
        assert (
            main(
                ["run", "smoke", "--cache-dir", str(tmp_path / "ref-cache"),
                 "--out", ref_out, "--workers", "1"]
            )
            == 0
        )
        shard_dirs = []
        for index in (1, 2):
            shard_dir = str(tmp_path / f"shard{index}")
            shard_dirs.append(shard_dir)
            code = main(
                ["run", "smoke", "--shard", f"{index}/2", "--cache-dir", shard_dir,
                 "--out", str(tmp_path / "s"), "--format", "none", "--workers", "1"]
            )
            assert code == 0
        merged_out = str(tmp_path / "merged-out")
        args = ["merge", "smoke", "--cache-dir", str(tmp_path / "merged"),
                "--out", merged_out]
        for shard_dir in shard_dirs:
            args += ["--from", shard_dir]
        assert main(args) == 0
        capsys.readouterr()

        with open(os.path.join(ref_out, "smoke.csv"), "rb") as fh:
            reference_csv = fh.read()
        with open(os.path.join(merged_out, "smoke.csv"), "rb") as fh:
            merged_csv = fh.read()
        assert reference_csv == merged_csv

        # merging again changes nothing
        assert main(args) == 0
        capsys.readouterr()
        with open(os.path.join(merged_out, "smoke.csv"), "rb") as fh:
            assert fh.read() == merged_csv

    def test_cli_merge_incomplete_cache_fails(self, tmp_path, capsys, tiny_smoke):
        from repro.experiments.__main__ import main

        shard_dir = str(tmp_path / "shard1")
        assert (
            main(
                ["run", "smoke", "--shard", "1/2", "--cache-dir", shard_dir,
                 "--out", str(tmp_path / "s"), "--format", "none", "--workers", "1"]
            )
            == 0
        )
        code = main(
            ["merge", "smoke", "--cache-dir", str(tmp_path / "merged"),
             "--from", shard_dir, "--out", str(tmp_path / "m")]
        )
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_cli_rejects_bad_shard(self, tiny_smoke, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "smoke", "--shard", "4/3", "--format", "none"]) == 2
        assert "out of range" in capsys.readouterr().err
