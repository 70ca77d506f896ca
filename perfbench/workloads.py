"""The benchmark's workloads, their passes, output checks and metrics.

Every workload turns the benchmark seed into inputs for the program --
``ScenarioConfig`` objects or a ``SweepSpec`` -- and hands only those to
it.  Two kinds exist:

* a :class:`ScenarioWorkload` runs ``scenarios`` distinct scenarios, each
  one *pass* of ``build_scenario`` + ``start`` (set-up, timed apart),
  ``Simulator.run`` and ``collect_metrics``, then repeats passes until the
  run's time is used.  Host time is summed over the distinct scenarios,
  so one unusually cheap or costly topology moves it little;
* a :class:`SweepWorkload` runs a generated grid of short runs through
  ``run_sweep`` (process executor, two workers) into a fresh json result
  store, then replays it warm from that store.

Every timed pass runs between two timings of the reference loop
(:mod:`perfbench.calibration`), and host time is reported in its units,
so that the shared host's drift in speed cancels out.

Every pass is checked: invariants of its simulated statistics, the
digest of a repeated pass equals the first one's, a warm replay executes
nothing and returns the cold pass's rows, and a traced pass gives the
same digest as an untraced one.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.protocol import HVDBConfig
from repro.experiments import orchestrator
from repro.experiments.scenarios import PROTOCOLS, ScenarioConfig, build_scenario
from repro.metrics import collectors

from perfbench import calibration, tracing

#: the end-to-end metrics every untraced run reports, with their units;
#: ``ref`` is the host time of one run of the reference loop
#: (:mod:`perfbench.calibration`)
END_TO_END_UNITS: Dict[str, str] = {
    "wall_ref": "ref",
    "setup_s": "s",
    "sim_node_s_per_ref": "node_s/ref",
    "peak_rss_mb": "MiB",
}

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10

#: set-up timings per distinct scenario (one from its pass, the rest
#: from builds that are not run)
SETUP_SAMPLES = 5

#: worker processes of the sweep workload
SWEEP_WORKERS = 2

#: reference-loop runs per timing around a sweep pass; a pass lasts ten
#: seconds or more, and one short run of the loop is too brief a glimpse
#: of the host to stand for all of it
SWEEP_REF_RUNS = 5


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values``.

    Raises :class:`CheckFailed` unless at least :data:`MIN_BEYOND`
    samples lie beyond it, the rule for reporting a percentile at all.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        raise CheckFailed(
            f"p{q * 100:g} of {len(ordered)} samples leaves {len(ordered) - rank} "
            f"beyond it; at least {MIN_BEYOND} are required"
        )
    return ordered[rank - 1]


def derived_seeds(label: str, seed: int, count: int) -> List[int]:
    """``count`` scenario seeds drawn deterministically from ``(label, seed)``."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SimTotals:
    """Simulated statistics summed over runs; the same on every pass of a seed."""

    intended: int = 0
    achieved: int = 0
    transmissions: int = 0
    control_bytes: int = 0
    node_seconds: float = 0.0
    delays: List[float] = field(default_factory=list)

    def add(self, other: "SimTotals") -> None:
        self.intended += other.intended
        self.achieved += other.achieved
        self.transmissions += other.transmissions
        self.control_bytes += other.control_bytes
        self.node_seconds += other.node_seconds
        self.delays.extend(other.delays)

    def metrics(self) -> Dict[str, float]:
        """The simulated output, as per-layer metrics of the metrics layer."""
        return {
            "metrics.pdr": self.achieved / self.intended,
            "metrics.delay_p50_ms": 1000.0 * percentile(self.delays, 0.50),
            "metrics.delay_p95_ms": 1000.0 * percentile(self.delays, 0.95),
            "metrics.tx_per_delivery": self.transmissions / self.achieved,
            "metrics.ctrl_bytes_per_node_s": self.control_bytes / self.node_seconds,
        }


def check_run(label: str, intended: int, achieved: int, pdr: float, work: int) -> None:
    """Invariants of one run's output; ``work`` counts events (or packets)."""
    if not 0 <= achieved <= intended:
        raise CheckFailed(f"{label}: achieved {achieved} outside [0, intended={intended}]")
    if not 0.0 <= pdr <= 1.0:
        raise CheckFailed(f"{label}: pdr {pdr} outside [0, 1]")
    if work <= 0:
        raise CheckFailed(f"{label}: the run did no work")


def expect_same(label: str, value: str, reference: str) -> None:
    if value != reference:
        raise CheckFailed(f"{label}: digest {value} differs from {reference}")


# ---------------------------------------------------------------------------
# scenario workloads
# ---------------------------------------------------------------------------


@dataclass
class ScenarioPass:
    setup: float
    wall: float
    digest: str
    totals: SimTotals


def build(config: ScenarioConfig):
    """Set-up, as a user pays it: build the scenario and start it."""
    scenario = build_scenario(config)
    scenario.start()
    return scenario


def run_pass(config: ScenarioConfig, duration: float) -> ScenarioPass:
    """One scenario: set-up, then simulate and collect metrics (the timed pass)."""
    gc.collect()
    started = time.perf_counter()
    scenario = build(config)
    built = time.perf_counter()
    network = scenario.network
    network.simulator.run(duration)
    report = collectors.collect_metrics(
        network,
        protocol=config.protocol,
        duration=duration,
        backbone_nodes=scenario.backbone_nodes(),
        protocol_stats=scenario.protocol_stats(),
    )
    finished = time.perf_counter()

    delivery = report.delivery
    events = network.simulator.processed_events
    label = f"{config.protocol}/seed={config.seed}"
    check_run(label, delivery.intended_deliveries, delivery.achieved_deliveries,
              delivery.delivery_ratio, events)
    stats = network.stats
    totals = SimTotals(
        intended=delivery.intended_deliveries,
        achieved=delivery.achieved_deliveries,
        transmissions=stats.transmissions,
        control_bytes=stats.control_bytes,
        node_seconds=len(network.nodes) * duration,
        delays=[d for record in network.deliveries.values() for d in record.delays()],
    )
    fingerprint = digest(
        {"row": report.flat_row(), "events": events, "network": dataclasses.asdict(stats)}
    )
    return ScenarioPass(built - started, finished - built, fingerprint, totals)


def time_setup(config: ScenarioConfig) -> float:
    gc.collect()
    started = time.perf_counter()
    build(config)
    return time.perf_counter() - started


def pooled(passes: Sequence[ScenarioPass]) -> SimTotals:
    totals = SimTotals()
    for done in passes:
        totals.add(done.totals)
    return totals


@dataclass(frozen=True)
class ScenarioWorkload:
    """Distinct scenarios, each simulated for ``duration`` seconds."""

    name: str
    scenarios: int
    duration: float
    make_config: Callable[[int], ScenarioConfig]

    def configs(self, seed: int) -> List[ScenarioConfig]:
        return [self.make_config(s) for s in derived_seeds(self.name, seed, self.scenarios)]


# ---------------------------------------------------------------------------
# the sweep workload
# ---------------------------------------------------------------------------


@dataclass
class SweepPass:
    cold_wall: float
    warm_wall: float
    digest: str
    results: List[Any]
    #: CPU seconds of this process and its pool workers in the cold sweep
    cold_cpu: float = 0.0

    def totals(self) -> SimTotals:
        """Pooled over runs; a run's delay sample is its median delay."""
        totals = SimTotals()
        for result in self.results:
            m = result.metrics
            totals.add(SimTotals(
                intended=m["intended_deliveries"],
                achieved=m["achieved_deliveries"],
                transmissions=m["total_tx"],
                control_bytes=m["ctrl_bytes"],
                node_seconds=m["nodes"] * m["duration"],
                delays=[m["median_delay"]] if m["achieved_deliveries"] else [],
            ))
        return totals

    def sweep_metrics(self) -> Dict[str, float]:
        # the checks in run_sweep_pass guarantee every cold run executed
        # and every warm run was served from the store
        runs = len(self.results)
        walls = [result.wall_time for result in self.results]
        return {
            "experiments.executed": runs,
            "experiments.cached": runs,
            "experiments.overhead_s": self.cold_wall - sum(walls) / SWEEP_WORKERS,
            "experiments.sweep_runs_per_s": runs / self.cold_wall,
            "experiments.replay_runs_per_s": runs / self.warm_wall,
            "experiments.run_wall_p50_s": percentile(walls, 0.50),
            "experiments.run_wall_p95_s": percentile(walls, 0.95),
        }


@dataclass(frozen=True)
class SweepWorkload:
    """A generated grid of short runs, swept cold and then replayed warm."""

    name: str
    make_spec: Callable[[Sequence[int]], orchestrator.SweepSpec]
    replications: int

    def spec(self, seed: int) -> orchestrator.SweepSpec:
        return self.make_spec(derived_seeds(self.name, seed, self.replications))

    def setup_spec(self, seed: int) -> orchestrator.SweepSpec:
        """Two runs of the grid's first point: enough to start the pool."""
        spec = self.spec(seed)
        return dataclasses.replace(
            spec,
            name=f"{spec.name}_setup",
            grid={axis: [values[0]] for axis, values in spec.grid.items()},
            seeds=tuple(spec.seeds[:2]),
        )


def sweep(spec: orchestrator.SweepSpec, cache_dir: str) -> List[Any]:
    return orchestrator.run_sweep(
        spec, workers=SWEEP_WORKERS, cache_dir=cache_dir, executor="process"
    )


def cpu_seconds() -> float:
    """CPU seconds of this process and of its children that have ended."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_sweep_pass(spec: orchestrator.SweepSpec, cache_dir: str) -> SweepPass:
    """Cold sweep into an empty store, then a warm replay from it; checked.

    ``run_sweep`` shuts its pool down before it returns, so the workers'
    CPU time is in :func:`cpu_seconds` by then.
    """
    gc.collect()
    cpu = cpu_seconds()
    started = time.perf_counter()
    cold = sweep(spec, cache_dir)
    swept = time.perf_counter()
    cpu = cpu_seconds() - cpu
    warm = sweep(spec, cache_dir)
    replayed = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)

    if any(result.from_cache for result in cold):
        raise CheckFailed("the cold sweep was served from a cache")
    executed = sum(not result.from_cache for result in warm)
    if executed:
        raise CheckFailed(f"the warm replay executed {executed} run(s)")
    rows = [result.row() for result in cold]
    if rows != [result.row() for result in warm]:
        raise CheckFailed("the warm replay returned other rows than the cold sweep")
    for result in cold:
        m = result.metrics
        # rows carry no event count; every run's sources originate packets
        check_run(result.run_id, m["intended_deliveries"], m["achieved_deliveries"],
                  m["pdr"], m["packets_originated"])
    return SweepPass(swept - started, replayed - swept, digest(rows), cold, cpu)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

#: m^2 per node of the paper's E2 constant-density grid
E2_AREA_PER_NODE = 150.0 * 150.0


def _e2_area(n_nodes: int) -> float:
    return math.sqrt(n_nodes * E2_AREA_PER_NODE)


def _hvdb_scale(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="hvdb",
        n_nodes=400,
        area_size=_e2_area(400),
        max_speed=4.0,
        n_groups=4,
        group_size=10,
        traffic_interval=2.0,
        traffic_start=16.0,
        seed=seed,
        hvdb=HVDBConfig(vc_cols=8, vc_rows=8, dimension=4),
    )


def _flood_sinr_contention(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        protocol="flooding",
        radio="sinr",
        mac="csma_ca",
        n_nodes=400,
        area_size=_e2_area(400),
        max_speed=4.0,
        n_groups=4,
        group_size=12,
        traffic_interval=2.0,
        traffic_start=5.0,
        seed=seed,
    )


def _egrid_spec(seeds: Sequence[int]) -> orchestrator.SweepSpec:
    return orchestrator.SweepSpec(
        name="egrid_sweep",
        base=ScenarioConfig(
            area_size=700.0,
            radio_range=250.0,
            max_speed=2.0,
            traffic_start=5.0,
            traffic_interval=1.0,
            group_size=6,
        ),
        grid={"n_nodes": [15, 22, 30, 40], "protocol": list(PROTOCOLS)},
        seeds=tuple(seeds),
        duration=20.0,
    )


#: the workloads by name; why each was chosen is in BENCHMARK.json and
#: perfbench/README.md
WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        ScenarioWorkload(
            name="hvdb_scale",
            scenarios=8,
            duration=36.0,
            make_config=_hvdb_scale,
        ),
        ScenarioWorkload(
            name="flood_sinr_contention",
            scenarios=22,
            duration=15.0,
            make_config=_flood_sinr_contention,
        ),
        SweepWorkload(
            name="egrid_sweep",
            make_spec=_egrid_spec,
            replications=12,
        ),
    )
}


# ---------------------------------------------------------------------------
# measuring a workload
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one benchmark invocation measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    simulated: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    notes: List[str] = field(default_factory=list)

    def attempt(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run one pass; a raised error or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # every failure is reported, none ends the run
            self.failed += 1
            self.notes.append(f"FAILED {label}: {exc!r}")
            return None


@dataclass
class Timed:
    """A pass's host time, raw and in reference-loop units."""

    seconds: float
    refs: float


def timed_pass(calibrator: calibration.Calibrator, fn: Callable[[], Any],
               wall: Callable[[Any], float]) -> Tuple[Any, Timed]:
    """Run ``fn`` between two reference timings; ``wall`` picks its host time.

    Passes run back to back, so the timing after one pass is also the
    timing before the next.
    """
    before = calibrator.latest()
    done = fn()
    after = calibrator.sample()
    seconds = wall(done)
    return done, Timed(seconds, calibration.in_refs(seconds, before, after))


def _conclude(outcome: Outcome, times: List[List[Timed]], setups: List[float],
              totals: SimTotals, fingerprint: str, calibrator: calibration.Calibrator) -> Outcome:
    """The end-to-end metrics and pooled simulated output of a checked run.

    ``times`` holds the timed passes of each distinct input; a pass over
    all inputs costs the sum of their medians.
    """
    simulated = outcome.attempt("pooled statistics", totals.metrics)
    if simulated is None:
        return outcome
    outcome.simulated = simulated
    wall_ref = sum(statistics.median(t.refs for t in ts) for ts in times)
    raw_s = sum(statistics.median(t.seconds for t in ts) for ts in times)
    outcome.metrics = {
        "wall_ref": wall_ref,
        "setup_s": statistics.median(setups),
        "sim_node_s_per_ref": totals.node_seconds / wall_ref,
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.notes.append(
        f"host time, not gated: {raw_s:.4f} s; reference loop median "
        f"{calibrator.median():.6f} s over {len(calibrator.samples)} timings"
    )
    outcome.digest = fingerprint
    return outcome


def measure_scenarios(workload: ScenarioWorkload, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    started = time.perf_counter()
    calibrator = calibration.Calibrator()
    configs = workload.configs(seed)
    setups: List[float] = []
    for config in configs:
        setups.extend(time_setup(config) for _ in range(SETUP_SAMPLES - 1))
    first: List[ScenarioPass] = []
    times: List[List[Timed]] = []
    for k, config in enumerate(configs):
        done = outcome.attempt(f"{workload.name}[{k}]", lambda: timed_pass(
            calibrator, lambda: run_pass(config, workload.duration), lambda p: p.wall))
        if done is None:
            return outcome
        first.append(done[0])
        times.append([done[1]])
        setups.append(done[0].setup)
    repeat = 0
    while repeat == 0 or time.perf_counter() - started < seconds:
        k = repeat % len(configs)
        label = f"{workload.name}[{k}] repeat"

        def again() -> ScenarioPass:
            done = run_pass(configs[k], workload.duration)
            expect_same(label, done.digest, first[k].digest)
            return done

        done = outcome.attempt(label, lambda: timed_pass(calibrator, again, lambda p: p.wall))
        if done is None:
            return outcome
        times[k].append(done[1])
        setups.append(done[0].setup)
        repeat += 1

    return _conclude(outcome, times, setups, pooled(first),
                     digest([d.digest for d in first]), calibrator)


def measure_sweep(workload: SweepWorkload, seed: int, seconds: float, work_dir: str) -> Outcome:
    """Set-up sweeps, then cold+warm passes while a whole one still fits."""
    outcome = Outcome()
    started = time.perf_counter()
    calibrator = calibration.Calibrator(runs=SWEEP_REF_RUNS, processes=SWEEP_WORKERS)
    spec = workload.spec(seed)
    setup_spec = workload.setup_spec(seed)
    setups: List[float] = []
    for i in range(SETUP_SAMPLES):
        cache = os.path.join(work_dir, f"setup-{i}")
        gc.collect()
        t0 = time.perf_counter()
        if outcome.attempt("setup sweep", lambda: sweep(setup_spec, cache)) is None:
            return outcome
        setups.append(time.perf_counter() - t0)
        shutil.rmtree(cache, ignore_errors=True)
    passes: List[SweepPass] = []
    times: List[Timed] = []
    lasted = 0.0
    while len(passes) < 2 or time.perf_counter() - started + lasted < seconds:
        label = f"{workload.name} pass {len(passes)}"
        cache = os.path.join(work_dir, f"cache-{len(passes)}")

        def checked() -> SweepPass:
            done = run_sweep_pass(spec, cache)
            if passes:
                expect_same(label, done.digest, passes[0].digest)
            return done

        t0 = time.perf_counter()
        done = outcome.attempt(label, lambda: timed_pass(calibrator, checked,
                                                         lambda p: p.cold_cpu))
        if done is None:
            return outcome
        lasted = time.perf_counter() - t0
        passes.append(done[0])
        times.append(done[1])

    return _conclude(outcome, [times], setups, passes[0].totals(), passes[0].digest,
                     calibrator)


def measure(workload: Any, seed: int, seconds: float, work_dir: str) -> Outcome:
    """The untraced run: every end-to-end metric, checked."""
    if isinstance(workload, SweepWorkload):
        return measure_sweep(workload, seed, seconds, work_dir)
    return measure_scenarios(workload, seed, seconds)


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

#: one traced round: per-layer metrics, the output digest, the merged
#: trace summary and the traced host time it covers
Round = Tuple[Dict[str, float], str, Dict[str, Any], float]


def _scenario_round(workload: ScenarioWorkload, seed: int, tracer: tracing.Tracer) -> Round:
    """Each scenario untraced, then traced; the same digest both times.

    The tracer keeps the spans of one traced pass at a time; the round's
    totals are the merged summaries of all of them.
    """
    plain: List[ScenarioPass] = []
    summaries: List[Dict[str, Any]] = []
    plain_wall = traced_wall = 0.0
    for k, config in enumerate(workload.configs(seed)):
        untraced = run_pass(config, workload.duration)
        tracer.reset()
        with tracing.Instrumentation(tracer):
            traced = run_pass(config, workload.duration)
        summaries.append(tracer.summary())
        expect_same(f"{workload.name}[{k}] traced", traced.digest, untraced.digest)
        plain.append(untraced)
        plain_wall += untraced.wall
        traced_wall += traced.wall
    summary = tracing.merge(summaries)
    metrics = tracing.layer_metrics(summary)
    metrics.update({key: 0.0 for key in tracing.SWEEP_METRICS})
    metrics.update(pooled(plain).metrics())
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, digest([done.digest for done in plain]), summary, traced_wall


def _sweep_round(workload: SweepWorkload, seed: int, tracer: tracing.Tracer,
                 work_dir: str) -> Round:
    """The cold sweep and warm replay untraced, then traced; the same rows."""
    spec = workload.spec(seed)
    plain = run_sweep_pass(spec, os.path.join(work_dir, "plain"))
    tracer.reset()
    with tracing.Instrumentation(tracer):
        traced = run_sweep_pass(spec, os.path.join(work_dir, "traced"))
    expect_same(f"{workload.name} traced", traced.digest, plain.digest)
    summary = tracer.summary()
    metrics = tracing.layer_metrics(summary)
    metrics.update(plain.sweep_metrics())
    metrics.update(plain.totals().metrics())
    metrics["trace.overhead_s"] = traced.cold_wall - plain.cold_wall
    return metrics, plain.digest, summary, traced.cold_wall


def measure_traced(workload: Any, seed: int, seconds: float, work_dir: str,
                   spans_path: str) -> Outcome:
    """The traced run: every per-layer metric, from rounds of untraced/traced passes.

    Per-layer metrics are medians over rounds; the spans of the last
    traced pass are written to ``spans_path``.
    """
    outcome = Outcome()
    started = time.perf_counter()
    tracer = tracing.Tracer()
    calibrator = calibration.Calibrator()
    calibrator.sample()
    samples: List[Dict[str, float]] = []
    while not samples or time.perf_counter() - started < seconds:
        label = f"{workload.name} traced round {len(samples)}"

        def checked() -> Round:
            if isinstance(workload, SweepWorkload):
                done = _sweep_round(workload, seed, tracer, work_dir)
            else:
                done = _scenario_round(workload, seed, tracer)
            if outcome.digest:
                expect_same(label, done[1], outcome.digest)
            return done

        done = outcome.attempt(label, checked)
        if done is None:
            return outcome
        metrics, outcome.digest, summary, traced_wall = done
        samples.append(metrics)
        calibrator.sample()
    outcome.notes.extend(tracing.format_layer_split(summary, traced_wall))
    tracer.write(spans_path)
    outcome.metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    outcome.metrics["calibration.ref_s"] = calibrator.median()
    return outcome
