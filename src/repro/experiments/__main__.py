"""Command-line front end for the sweep orchestrator.

::

    python -m repro.experiments list
    python -m repro.experiments protocols [--check-coverage]
    python -m repro.experiments executors
    python -m repro.experiments stores
    python -m repro.experiments run SWEEP [--executor NAME] [--store NAME] ...
    python -m repro.experiments resume SWEEP [...]
    python -m repro.experiments worker --connect HOST:PORT
    python -m repro.experiments export SWEEP --out DIR [...]
    python -m repro.experiments merge SWEEP --cache-dir DEST --from DIR ...
    python -m repro.experiments migrate --from SPEC --to SPEC
    python -m repro.experiments perf SWEEP --baseline PATH --current PATH
    python -m repro.experiments perf SWEEP --current PATH --trend FILE

``run`` executes a registered sweep (see ``list``) through a registered
*executor backend* (see ``executors``: in-process ``serial``, the
default ``process`` pool, or a networked ``tcp`` coordinator drained by
workers on any machine that can reach ``--host``/``--port``), caching
finished runs under ``--cache-dir`` so an interrupted or repeated
invocation only executes what is missing; ``resume`` is ``run`` with the
additional guarantee that it refuses to start from a cold cache
(catching a mistyped ``--cache-dir``).  ``worker`` connects to a live sweep's ``tcp``
coordinator (``--connect HOST:PORT``) and executes the runs it leases
until the driver closes the sweep (see ``docs/executors.md`` and
``docs/networked-executor.md``).
``export`` rebuilds the CSV/JSON artifacts purely from cached results
without running anything.

The cache lives behind a registered *result-store backend* (see
``stores``; ``docs/result-store.md``): everywhere a cache path is
accepted, a bare path means the default ``json`` directory layout and a
store spec like ``sqlite:results.db`` selects another backend
(``--store NAME`` names it explicitly).  The store is sweep-cosmetic --
excluded from cache keys, byte-identical artifacts -- and ``migrate``
copies a cache between backends (it is ``merge`` without a sweep:
content-hash keys make it idempotent).

A sweep whose spec carries an :class:`~repro.experiments.orchestrator.
AdaptiveCI` replication policy runs *adaptively*: each grid point adds
replication seeds until the 95% CI half-width of the policy's metric
meets the target (``unconverged`` points are reported when ``max_seeds``
is exhausted), and ``run`` prints the per-point convergence report.
``--target-ci`` overrides the policy's target, or makes a fixed-seed
sweep adaptive; ``--ci-metric`` picks the metric it applies to.  Every
subcommand makes one :func:`~repro.experiments.orchestrator.sweep` call,
fixed or adaptive alike.

``--shard I/N`` restricts ``run``/``resume`` to a deterministic 1-based
slice of the grid (of the *grid points* when adaptive, so one point's
growing seed set never splits across jobs), so N CI jobs sharing nothing
but their cache directories cover the sweep exactly once; ``merge`` then
folds the shard caches together and exports the full artifact set, and
``perf`` diffs the per-run wall times of two result sets (stores,
exported JSON artifacts, or cache generations) and exits non-zero on a
regression.  ``perf --trend FILE`` additionally appends the current
per-point medians to a JSONL trend history and judges them against the
trailing median of the last ``--trend-window`` entries -- the gate as a
trajectory instead of a single frozen baseline; ``--accept`` blesses a
deliberate slowdown (resetting the trend reference and, with
``--baseline``, rewriting the baseline artifact from the current
results).

``protocols`` lists every registered pluggable component (protocol
stacks, radios, MACs, mobility models) and, with ``--check-coverage``,
exits non-zero unless every registered protocol is exercised by at least
one registered sweep (the CI gate keeping new protocols tested).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from repro.experiments.executors import (
    DEFAULT_EXECUTOR,
    available_executors,
)
from repro.experiments.net import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    NetWorkerError,
    parse_address,
    run_net_worker,
)
from repro.experiments.orchestrator import (
    AdaptiveCI,
    RunResult,
    SpecError,
    SweepReport,
    SweepSpec,
    export_csv,
    export_json,
    merge_caches,
    parse_shard,
    summarize,
    sweep,
)
from repro.experiments.perf import (
    DEFAULT_TOLERANCE,
    DEFAULT_TREND_WINDOW,
    PerfReport,
    TrendReport,
    append_trend,
    check_trend,
    compare_wall_times,
    load_results,
    load_trend,
    trend_entry,
)
from repro.experiments.specs import available_specs, get_spec
from repro.experiments.stores import (
    DEFAULT_STORE,
    StoreError,
    available_stores,
    parse_store_spec,
    store_exists,
)
from repro.metrics.collectors import format_table
from repro.registry import RegistryError

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_OUT_DIR = "artifacts"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, resume and export the repo's experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered sweeps")

    p = sub.add_parser(
        "protocols",
        help="list registered protocols/radios/MACs/mobility models "
        "(--check-coverage: fail unless every protocol has a sweep)",
    )
    p.add_argument(
        "--check-coverage",
        action="store_true",
        help="exit 1 unless every registered protocol is exercised by at "
        "least one registered sweep",
    )

    sub.add_parser(
        "executors",
        help="list registered run-execution backends (--executor choices)",
    )

    sub.add_parser(
        "stores",
        help="list registered result-store backends (--store choices / "
        "store-spec prefixes)",
    )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("sweep", help="registered sweep name (see `list`)")
        p.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            help="run-result cache: a directory, or a store spec like "
            f"sqlite:results.db (default: {DEFAULT_CACHE_DIR})",
        )
        p.add_argument(
            "--store",
            default=None,
            metavar="NAME",
            help="result-store backend for --cache-dir (see `stores`); "
            f"default: the spec's, else the path's prefix, else {DEFAULT_STORE!r}",
        )
        p.add_argument(
            "--out",
            default=DEFAULT_OUT_DIR,
            help=f"artifact output directory (default: {DEFAULT_OUT_DIR})",
        )
        p.add_argument(
            "--format",
            choices=("csv", "json", "both", "none"),
            default="both",
            help="artifact format(s) to write (default: both)",
        )
        p.add_argument(
            "--seeds",
            default=None,
            help="comma-separated replication seeds overriding the spec's",
        )
        p.add_argument(
            "--duration",
            type=float,
            default=None,
            help="simulated seconds per run, overriding the spec's",
        )
        p.add_argument(
            "--target-ci",
            type=float,
            default=None,
            metavar="HALF_WIDTH",
            help="adaptive target: add seeds per grid point until the 95%% CI "
            "half-width of the chosen metric is at most this (overrides the "
            "spec's policy target; makes a fixed-seed sweep adaptive)",
        )
        p.add_argument(
            "--ci-metric",
            default=None,
            metavar="METRIC",
            help="metric the adaptive CI target applies to "
            "(default: the spec policy's metric, or 'pdr')",
        )

    for name, help_text in (
        ("run", "execute a sweep (incremental: cached runs are reused)"),
        ("resume", "continue a previously started sweep from its cache"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        p.add_argument(
            "--workers",
            type=int,
            default=max(1, min(4, os.cpu_count() or 1)),
            help="backend parallelism: pool size for process, locally "
            "spawned worker processes for tcp (0 = rely on externally "
            "attached workers); default: min(4, cpu count)",
        )
        p.add_argument(
            "--executor",
            default=None,
            metavar="NAME",
            help="run-execution backend (see `executors`); default: the "
            f"spec's, else {DEFAULT_EXECUTOR!r}",
        )
        p.add_argument(
            "--host",
            default=DEFAULT_HOST,
            help="tcp executor only: coordinator bind address "
            f"(default: {DEFAULT_HOST}; use 0.0.0.0 for remote workers)",
        )
        p.add_argument(
            "--port",
            type=int,
            default=DEFAULT_PORT,
            help="tcp executor only: coordinator port workers --connect to "
            f"(default: {DEFAULT_PORT}; 0 = ephemeral)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="run without reading or writing the cache",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="ignore cached results and re-run everything",
        )
        p.add_argument(
            "--shard",
            default=None,
            metavar="I/N",
            help="execute only this 1-based shard of the grid (e.g. 2/3); "
            "N jobs sharing a cache directory cover the sweep exactly once",
        )

    p = sub.add_parser("export", help="write artifacts from cached results, running nothing")
    add_common(p)

    p = sub.add_parser(
        "merge",
        help="fold shard caches into one cache directory and export the "
        "merged artifacts (idempotent; fails if runs are still missing)",
    )
    add_common(p)
    p.add_argument(
        "--from",
        dest="sources",
        action="append",
        default=[],
        metavar="STORE",
        help="shard cache (directory or store spec) to fold into "
        "--cache-dir (repeatable)",
    )

    p = sub.add_parser(
        "migrate",
        help="copy every cache entry from one result store into another "
        "(idempotent: content-hash keys make re-runs safe)",
    )
    p.add_argument(
        "--from",
        dest="sources",
        action="append",
        default=[],
        metavar="STORE",
        required=True,
        help="source store (directory or store spec like json:dir, "
        "sqlite:file.db; repeatable)",
    )
    p.add_argument(
        "--to",
        dest="dest",
        required=True,
        metavar="STORE",
        help="destination store (created if missing)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="NAME",
        help="backend for bare paths on both sides (see `stores`); "
        "per-path prefixes win",
    )

    p = sub.add_parser(
        "worker",
        help="attach to a live sweep's tcp coordinator and execute the "
        "runs it leases (multi-machine sweeps)",
    )
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the tcp-executor coordinator (lease staleness "
        "is judged by the coordinator)",
    )
    p.add_argument(
        "--worker-id",
        default=None,
        help="lease-owner label (default: <hostname>-<pid>)",
    )
    p.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="seconds between lease requests while no run is pending "
        "(default: 0.5)",
    )
    p.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after executing this many runs (default: unlimited)",
    )
    p.add_argument(
        "--forever",
        action="store_true",
        help="keep serving sweep after sweep instead of exiting once the "
        "driver closes the sweep (keep reconnecting after the "
        "coordinator says goodbye)",
    )
    p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-run progress output (used by drivers spawned "
        "without --progress)",
    )

    p = sub.add_parser(
        "perf",
        help="diff per-run wall times against a baseline and/or a JSONL "
        "trend history; exit non-zero on a regression beyond the tolerance",
    )
    p.add_argument("sweep", help="registered sweep name (see `list`)")
    p.add_argument(
        "--baseline",
        default=None,
        help="reference wall times: a results JSON artifact, a cache "
        "directory or a store spec (at least one of --baseline/--trend "
        "is required)",
    )
    p.add_argument(
        "--current",
        required=True,
        help="candidate wall times: a results JSON artifact, a cache "
        "directory or a store spec",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown of a grid point's median wall time "
        f"before it counts as a regression (default: {DEFAULT_TOLERANCE})",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="NAME",
        help="result-store backend for cache paths (see `stores`); also "
        "recorded in appended trend entries",
    )
    p.add_argument(
        "--executor",
        default=None,
        metavar="NAME",
        help="measurement context recorded in appended trend entries "
        "(which executor produced the current wall times)",
    )
    p.add_argument(
        "--trend",
        default=None,
        metavar="FILE",
        help="append the current per-point median wall times to this JSONL "
        "trend history and check them against the trailing median of the "
        "last --trend-window entries",
    )
    p.add_argument(
        "--trend-window",
        type=int,
        default=DEFAULT_TREND_WINDOW,
        metavar="K",
        help="trailing trend entries the regression check medians over "
        f"(default: {DEFAULT_TREND_WINDOW})",
    )
    p.add_argument(
        "--accept",
        action="store_true",
        help="bless the current wall times: the appended trend entry is "
        "marked accepted (resetting the trend reference window) and, with "
        "--baseline pointing at a JSON artifact, the artifact is rewritten "
        "from the current results; regressions then exit 0",
    )
    p.add_argument(
        "--baseline-cache-version",
        type=int,
        default=None,
        help="read the baseline cache directory at this CACHE_VERSION generation",
    )
    p.add_argument(
        "--current-cache-version",
        type=int,
        default=None,
        help="read the current cache directory at this CACHE_VERSION generation",
    )
    p.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the comparison as a JSON report (for CI consumption)",
    )
    p.add_argument(
        "--seeds",
        default=None,
        help="comma-separated replication seeds overriding the spec's "
        "(must match the seeds the caches were produced with)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds per run, overriding the spec's",
    )
    return parser


class CliError(Exception):
    """A user-input problem reported as a clean message, not a traceback."""


def _store_path(path: str, store: Optional[str]) -> str:
    """Apply ``--store`` to a bare cache path (an embedded prefix wins)."""
    if store and parse_store_spec(path)[0] is None:
        return f"{store}:{path}"
    return path


def _result_source_exists(path: str, store: Optional[str]) -> bool:
    """True if ``path`` -- store spec, cache dir or JSON artifact -- exists."""
    if store or parse_store_spec(path)[0] is not None:
        return store_exists(path, store=store)
    return os.path.exists(path)


def _customize(spec: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    replacements = {}
    if getattr(args, "seeds", None):
        try:
            replacements["seeds"] = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise CliError(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if getattr(args, "duration", None) is not None:
        replacements["duration"] = args.duration
    return dataclasses.replace(spec, **replacements) if replacements else spec


def _adaptive_policy(
    spec: SweepSpec, args: argparse.Namespace
) -> Optional[AdaptiveCI]:
    """The adaptive policy this invocation should run under, if any.

    A spec-level ``replication`` policy activates adaptively by itself;
    ``--target-ci`` makes a fixed-seed spec adaptive.  ``--target-ci``/
    ``--ci-metric`` override the corresponding policy fields either way.
    """
    policy = spec.replication
    target = args.target_ci
    metric = args.ci_metric
    if policy is None:
        if target is not None:
            return AdaptiveCI(target_half_width=target, metric=metric or "pdr")
        if metric is not None:
            raise CliError("--ci-metric only applies to adaptive runs "
                           "(pass --target-ci, or pick a spec with a policy)")
        return None
    replacements = {}
    if target is not None:
        replacements["target_half_width"] = target
    if metric is not None:
        replacements["metric"] = metric
    return dataclasses.replace(policy, **replacements) if replacements else policy


def _report(spec: SweepSpec, report: SweepReport, args: argparse.Namespace,
            name: Optional[str] = None) -> None:
    """Print the summary (and any convergence) table, then write artifacts."""
    _print_summary(spec, report.results)
    adaptive = report if report.policy is not None else None
    if adaptive is not None:
        _print_convergence(adaptive)
    stem = name or spec.name
    if args.format in ("csv", "both"):
        path = os.path.join(args.out, f"{stem}.csv")
        export_csv(report.results, path)
        print(f"wrote {path}")
    if args.format in ("json", "both"):
        path = os.path.join(args.out, f"{stem}.json")
        export_json(report.results, path, spec=spec, adaptive=adaptive)
        print(f"wrote {path}")


def _print_summary(spec: SweepSpec, results: Sequence[RunResult]) -> None:
    key_metrics = [
        m for m in ("pdr", "mean_delay", "ctrl_pkts", "tx_per_delivery", "qos_satisfaction")
        if results and m in results[0].metrics
    ]
    rows = summarize(results, metrics=key_metrics)
    display = []
    for row in rows:
        out = {k: v for k, v in row.items() if not k.endswith("_ci95")}
        for metric in key_metrics:
            mean = out.pop(f"{metric}_mean", None)
            ci = row.get(f"{metric}_ci95", 0.0)
            if mean is not None:
                out[metric] = f"{mean:g}±{ci:g}" if ci else f"{mean:g}"
        display.append(out)
    print(format_table(display, title=f"{spec.name}: mean ± 95% CI over seeds"))


def _print_convergence(adaptive: SweepReport) -> None:
    policy = adaptive.policy
    rows = [
        {
            "grid_point": p.point,
            "seeds": p.n_seeds,
            "rounds": p.rounds,
            f"{policy.metric}_mean": f"{p.mean:g}",
            "ci95_half_width": f"{p.half_width:g}",
            "status": p.status,
        }
        for p in adaptive.points
    ]
    print(
        format_table(
            rows,
            title=f"{adaptive.sweep}: adaptive replication on {policy.metric!r} "
            f"(target half-width {policy.target_half_width:g}, "
            f"{policy.min_seeds}..{policy.max_seeds} seeds, batch {policy.batch})",
        )
    )
    print(
        f"adaptive: {len(adaptive.converged)}/{len(adaptive.points)} point(s) "
        f"converged; {adaptive.executed} executed + {adaptive.cached} cached = "
        f"{len(adaptive.results)} runs "
        f"(fixed grid at max_seeds: {adaptive.fixed_equivalent_runs} runs)"
    )


def _cmd_list() -> int:
    rows = [
        {
            "sweep": spec.name,
            "runs": spec.run_count,
            "axes": " x ".join(spec.grid.keys()) or "-",
            "seeds": len(spec.seeds),
            "description": spec.description,
        }
        for spec in available_specs()
    ]
    print(format_table(rows, title="Registered sweeps (python -m repro.experiments run NAME)"))
    return 0


def _component_coverage() -> dict:
    """Map registered protocols/radios/MACs to the sweeps exercising them.

    One expansion pass over every registered spec; the result maps each
    component kind (``protocol``/``radio``/``mac``) to ``{name: [sweep
    names]}`` over every *registered* component of that kind.
    """
    from repro.experiments.orchestrator import expand_spec
    from repro.registry import MACS, PROTOCOL_STACKS, RADIOS

    coverage = {
        "protocol": {name: [] for name in PROTOCOL_STACKS.names()},
        "radio": {name: [] for name in RADIOS.names()},
        "mac": {name: [] for name in MACS.names()},
    }
    for spec in available_specs():
        runs = expand_spec(spec)
        for kind in coverage:
            for name in {getattr(run.config, kind) for run in runs}:
                if name in coverage[kind]:
                    coverage[kind][name].append(spec.name)
    return coverage


def _protocol_coverage() -> dict:
    """Map each registered protocol to the sweeps whose grids exercise it."""
    return _component_coverage()["protocol"]


def _cmd_protocols(args: argparse.Namespace) -> int:
    from repro.registry import MOBILITY_MODELS

    coverage = _component_coverage()
    rows = [
        {
            "protocol": name,
            "sweeps": ", ".join(sorted(specs)) or "(none)",
        }
        for name, specs in coverage["protocol"].items()
    ]
    print(format_table(rows, title="Registered protocol stacks and the sweeps exercising them"))
    print()
    components = [
        {"kind": kind, "name": name, "sweeps": ", ".join(sorted(specs)) or "(none)"}
        for kind in ("radio", "mac")
        for name, specs in coverage[kind].items()
    ] + [
        {"kind": "mobility", "name": name, "sweeps": ""}
        for name in MOBILITY_MODELS.names()
    ]
    print(format_table(components, title="Other registered components"))
    if args.check_coverage:
        uncovered = sorted(
            f"{kind} {name!r}"
            for kind, names in coverage.items()
            for name, specs in names.items()
            if not specs
        )
        if uncovered:
            print(
                "protocols: FAIL: registered component(s) exercised by no "
                f"registered sweep: {', '.join(uncovered)} -- add a spec "
                "(or an axis value) covering them",
                file=sys.stderr,
            )
            return 1
        counts = {kind: len(names) for kind, names in coverage.items()}
        print(
            f"protocols: OK ({counts['protocol']} protocols, "
            f"{counts['radio']} radios, {counts['mac']} MACs -- every one "
            "exercised by at least one registered sweep)"
        )
    return 0


def _cmd_executors() -> int:
    rows = [
        {"executor": name, "description": description}
        for name, description in available_executors()
    ]
    print(
        format_table(
            rows,
            title="Registered executor backends "
            f"(run SWEEP --executor NAME; default: {DEFAULT_EXECUTOR})",
        )
    )
    return 0


def _cmd_stores() -> int:
    rows = [
        {"store": name, "description": description}
        for name, description in available_stores()
    ]
    print(
        format_table(
            rows,
            title="Registered result-store backends "
            f"(run SWEEP --store NAME, or prefix cache paths like "
            f"sqlite:results.db; default: {DEFAULT_STORE})",
        )
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    try:
        address = parse_address(args.connect)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not args.quiet:
        print(f"worker: connecting to coordinator at {args.connect}", file=sys.stderr)
    executed = run_net_worker(
        address,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        max_tasks=args.max_tasks,
        forever=args.forever,
        progress=not args.quiet,
    )
    if not args.quiet:
        print(f"worker: executed {executed} run(s) from {args.connect}")
    return 0


def _cmd_run(args: argparse.Namespace, require_cache: bool) -> int:
    spec = _customize(get_spec(args.sweep), args)
    cache_dir: Optional[str] = None if args.no_cache else args.cache_dir
    store = args.store or spec.store
    if require_cache and (
        cache_dir is None or not store_exists(cache_dir, store=store)
    ):
        print(
            f"resume: no cache at {args.cache_dir!r} -- use `run` to start this sweep",
            file=sys.stderr,
        )
        return 2
    shard = parse_shard(args.shard) if args.shard else None
    # only the work-stealing backend takes options; run_sweep resolves
    # the name eagerly (RegistryError with alternatives) before any state
    # is touched
    executor = args.executor or spec.executor or DEFAULT_EXECUTOR
    executor_options = {}
    if executor == "tcp":
        # the tcp coordinator streams results back to this process; the
        # result store stays driver-local and never crosses the wire
        executor_options["host"] = args.host
        executor_options["port"] = args.port
    report = sweep(
        spec,
        _adaptive_policy(spec, args),
        workers=args.workers,
        cache_dir=cache_dir,
        force=args.force,
        progress=True,
        shard=shard,
        executor=executor,
        executor_options=executor_options,
        store=args.store,
    )
    # a shard writes suffixed artifacts so it never masquerades as the
    # full result set; `merge`/`export` produce the unsuffixed ones
    stem = f"{spec.name}.shard-{shard[0]}-of-{shard[1]}" if shard else spec.name
    _report(spec, report, args, name=stem)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if not store_exists(args.cache_dir, store=args.store or spec.store):
        print(f"export: no result store at {args.cache_dir!r}", file=sys.stderr)
        return 2
    report = sweep(
        spec,
        _adaptive_policy(spec, args),
        cache_only=True,
        cache_dir=args.cache_dir,
        store=args.store,
    )
    missing_ids = report.missing
    if not report.results:
        print(
            f"export: no cached results for sweep {spec.name!r} "
            "(if the sweep was run with --seeds/--duration overrides, "
            "pass the same overrides to export)",
            file=sys.stderr,
        )
        return 2
    if missing_ids:
        print(
            f"export: {len(missing_ids)} run(s) not cached (first: "
            f"{missing_ids[0]}); artifact is partial (use `run` to fill the "
            "cache)",
            file=sys.stderr,
        )
    _report(spec, report, args)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if args.sources:
        copied, skipped = merge_caches(
            args.sources, args.cache_dir, store=args.store
        )
        print(
            f"merge: folded {len(args.sources)} shard cache(s) into "
            f"{args.cache_dir}: {copied} new entries, {skipped} already present"
        )
    if not store_exists(args.cache_dir, store=args.store or spec.store):
        print(
            f"merge: no result store at {args.cache_dir!r} "
            "(use --from to fold shard caches into it)",
            file=sys.stderr,
        )
        return 2
    # an adaptive replay re-runs the stopping rule against the merged
    # cache: its run set is whatever the per-point CI tests demand, and
    # any gap shows up as missing/incomplete below
    report = sweep(
        spec,
        _adaptive_policy(spec, args),
        cache_only=True,
        cache_dir=args.cache_dir,
        store=args.store,
    )
    missing = report.missing
    if missing:
        expected = (
            "the adaptive replay" if report.policy else f"{spec.run_count} runs"
        )
        print(
            f"merge: {len(missing)} run(s) of {expected} missing from the "
            f"merged cache (first missing: {missing[0]}); run the remaining "
            "shards (or check --seeds/--duration overrides) before merging",
            file=sys.stderr,
        )
        return 1
    _report(spec, report, args)
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    spec = _customize(get_spec(args.sweep), args)
    if args.baseline is None and args.trend is None:
        raise CliError(
            "nothing to compare against: pass --baseline PATH (two-point "
            "diff) and/or --trend FILE (trajectory check)"
        )
    if args.accept and args.baseline is not None:
        if parse_store_spec(args.baseline)[0] is not None or os.path.isdir(
            args.baseline
        ):
            raise CliError(
                "--accept rewrites a results JSON artifact; "
                f"--baseline {args.baseline!r} is a result store"
            )
    sides = [("current", args.current)]
    if args.baseline is not None:
        sides.insert(0, ("baseline", args.baseline))
    for side, path in sides:
        if not _result_source_exists(path, args.store):
            print(f"perf: {side} {path!r} does not exist", file=sys.stderr)
            return 2
    current = load_results(
        _store_path(args.current, args.store),
        spec,
        cache_version=args.current_cache_version,
    )
    if not current:
        print(
            f"perf: current {args.current!r} holds no results for sweep "
            f"{spec.name!r}",
            file=sys.stderr,
        )
        return 2

    exit_code = 0
    report: Optional[PerfReport] = None
    if args.baseline is not None:
        baseline = load_results(
            _store_path(args.baseline, args.store),
            spec,
            cache_version=args.baseline_cache_version,
        )
        if not baseline:
            print(
                f"perf: baseline {args.baseline!r} holds no results for "
                f"sweep {spec.name!r}",
                file=sys.stderr,
            )
            return 2
        report = compare_wall_times(
            baseline, current, tolerance=args.tolerance, sweep=spec.name
        )
        _print_perf(report)
        if report.regressed:
            exit_code = 1
        else:
            # grid points present in the baseline but absent from the
            # current set mean the comparison is incomplete (partial
            # merge, changed grid) -- that must not pass a CI gate as "no
            # regression".  Points only in the current set
            # (missing-baseline) are informational: new grid points
            # simply have no reference trajectory yet.
            missing_current = [
                p for p in report.points if p.status == "missing-current"
            ]
            if missing_current:
                print(
                    f"perf: {len(missing_current)} grid point(s) have no "
                    f"current results (first: {missing_current[0].point}); "
                    "the comparison is incomplete",
                    file=sys.stderr,
                )
                exit_code = 2

    trend_report: Optional[TrendReport] = None
    if args.trend is not None:
        entry = trend_entry(
            spec.name,
            current,
            store=args.store or parse_store_spec(args.current)[0] or "",
            executor=args.executor or "",
            accepted=args.accept,
        )
        append_trend(args.trend, entry)
        print(f"perf: appended trend entry for {entry.commit[:12] or '(no commit)'} to {args.trend}")
        trend_report = check_trend(
            load_trend(args.trend, sweep=spec.name),
            tolerance=args.tolerance,
            window=args.trend_window,
        )
        _print_trend(trend_report)
        if trend_report.regressed and exit_code == 0:
            exit_code = 1

    if args.report:
        document = {
            key: value.to_dict()
            for key, value in (("comparison", report), ("trend", trend_report))
            if value is not None
        }
        os.makedirs(os.path.dirname(args.report) or ".", exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(
                document["comparison"] if list(document) == ["comparison"] else document,
                fh,
                indent=2,
            )
        print(f"wrote {args.report}")

    if args.accept:
        if args.baseline is not None:
            export_json(current, args.baseline, spec=spec)
            print(f"perf: accepted -- refreshed baseline {args.baseline}")
        return 0
    return exit_code


def _print_trend(report: TrendReport) -> None:
    rows = []
    for point in report.points:
        curve = " -> ".join(f"{v:g}" for v in point.curve[-5:])
        rows.append(
            {
                "grid_point": point.point,
                "trailing_s": (
                    f"{point.trailing_median:g} (n={point.history_n})"
                    if point.history_n
                    else "-"
                ),
                "current_s": f"{point.current_median:g}",
                "ratio": f"{point.ratio:g}" if point.ratio else "-",
                "curve": curve,
                "status": point.status,
            }
        )
    print(
        format_table(
            rows,
            title=f"{report.sweep}: wall-time trend vs trailing median of "
            f"{report.entries} entr{'y' if report.entries == 1 else 'ies'} "
            f"(window {report.window}, tolerance {report.tolerance:g})",
        )
    )
    counts = ", ".join(f"{n} {status}" for status, n in sorted(report.counts().items()))
    verdict = "REGRESSED" if report.regressed else "ok"
    print(f"perf trend: {verdict} ({counts or 'no grid points'})")


def _cmd_migrate(args: argparse.Namespace) -> int:
    copied, skipped = merge_caches(args.sources, args.dest, store=args.store)
    print(
        f"migrate: {copied} entries copied into {args.dest}, "
        f"{skipped} already present"
    )
    return 0


def _print_perf(report: PerfReport) -> None:
    rows = []
    for point in report.points:
        rows.append(
            {
                "grid_point": point.point,
                "baseline_s": f"{point.baseline_median:g} (n={point.baseline_n})",
                "current_s": f"{point.current_median:g} (n={point.current_n})",
                "ratio": f"{point.ratio:g}" if point.ratio else "-",
                "p": f"{point.p_value:g}" if point.p_value is not None else "-",
                "status": point.status,
            }
        )
    print(
        format_table(
            rows,
            title=f"{report.sweep}: wall-time comparison "
            f"(tolerance {report.tolerance:g})",
        )
    )
    counts = ", ".join(f"{n} {status}" for status, n in sorted(report.counts().items()))
    verdict = "REGRESSED" if report.regressed else "ok"
    print(f"perf: {verdict} ({counts or 'no grid points'})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "protocols":
            return _cmd_protocols(args)
        if args.command == "executors":
            return _cmd_executors()
        if args.command == "stores":
            return _cmd_stores()
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "run":
            return _cmd_run(args, require_cache=False)
        if args.command == "resume":
            return _cmd_run(args, require_cache=True)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "migrate":
            return _cmd_migrate(args)
        if args.command == "perf":
            return _cmd_perf(args)
    except (CliError, SpecError, StoreError, RegistryError, NetWorkerError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # a worker is normally detached by Ctrl-C; its completed work is
        # already streamed back, so this is a clean exit
        print(f"{args.command}: interrupted", file=sys.stderr)
        return 130
    except KeyError as exc:
        # unknown sweep name from the registry lookup
        print(f"{args.command}: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
