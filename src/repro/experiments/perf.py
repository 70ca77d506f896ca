"""Wall-time perf regression tracking across cache generations.

Every cached :class:`~repro.experiments.orchestrator.RunResult` records
the ``wall_time`` its execution took, so two result sets of the same
sweep -- two cache directories, two exported JSON artifacts, or two
:data:`~repro.experiments.orchestrator.CACHE_VERSION` generations inside
one directory -- carry enough information to spot a hot-path regression
without any extra instrumentation.

:func:`compare_wall_times` groups both sides by grid point (the swept
``params`` minus the seed), compares per-point medians, and classifies
each point.  Grouping by grid point -- never by seed count -- is what
keeps the comparison meaningful under *adaptive replication*: two result
sets of the same sweep may carry different numbers of seeds per point
(one side converged earlier, or a policy changed), and medians plus the
rank-based Mann-Whitney test are insensitive to unequal sample sizes.
Classes:

* ``regressed`` -- the current median exceeds the baseline median by more
  than the tolerance fraction; when both sides have enough replications a
  two-sided Mann-Whitney U test must also reject "same distribution", so
  a single noisy seed cannot fail CI;
* ``improved`` -- the symmetric speed-up case;
* ``ok`` -- within tolerance;
* ``missing-baseline`` / ``missing-current`` -- the point exists on only
  one side (a grid change or an incomplete shard merge).

The resulting :class:`PerfReport` serialises to JSON for CI consumption;
the ``python -m repro.experiments perf`` subcommand exits non-zero when
any point regressed.

Beyond the two-point diff, this module keeps a *trend history*: every
``perf --trend`` invocation appends one :class:`TrendEntry` (commit,
timestamp, store/executor, per-point median wall times) to a JSONL file
-- ``benchmarks/trend.jsonl`` in CI -- and :func:`check_trend` judges
the newest entry against the *trailing median* of the last
:data:`DEFAULT_TREND_WINDOW` entries instead of one frozen baseline.  A
slow drift that no single two-point diff would flag shows up as a curve;
a deliberate slowdown is recorded with ``--accept``, which marks the
entry accepted and resets the reference window at it.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import os
import statistics
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.orchestrator import (
    RunResult,
    SpecError,
    SweepSpec,
    _format_value,
    load_json,
    sweep,
)
from repro.experiments.stores import parse_store_spec, store_exists

#: default allowed slowdown of a grid point's median wall time (fraction:
#: 0.25 tolerates up to 25% before flagging)
DEFAULT_TOLERANCE = 0.25

#: significance level for the Mann-Whitney test (only applied when both
#: sides have at least MIN_SAMPLES_FOR_TEST replications)
DEFAULT_ALPHA = 0.05
MIN_SAMPLES_FOR_TEST = 4

#: how many trailing trend entries the regression check medians over
DEFAULT_TREND_WINDOW = 10


def point_label(params: Mapping[str, Any]) -> str:
    """Stable grid-point label: the swept params minus the seed."""
    items = sorted(
        ((k, v) for k, v in params.items() if k != "seed"), key=lambda kv: kv[0]
    )
    return ",".join(f"{k}={_format_value(v)}" for k, v in items) or "base"


def wall_time_groups(results: Sequence[RunResult]) -> Dict[str, List[float]]:
    """Group per-run wall times by grid point, in first-seen order."""
    groups: Dict[str, List[float]] = {}
    for result in results:
        groups.setdefault(point_label(result.params), []).append(
            float(result.wall_time)
        )
    return groups


def mann_whitney_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Mann-Whitney U p-value (normal approximation, tie-averaged).

    A deliberately simple stdlib-only implementation: exactness in the
    far tail does not matter for a CI gate, distinguishing "overlapping
    distributions" from "cleanly shifted" does.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return 1.0
    pooled = sorted(
        [(value, 0) for value in a] + [(value, 1) for value in b],
        key=lambda pair: pair[0],
    )
    # average ranks over ties
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[k] = mean_rank
        i = j + 1
    rank_sum_a = sum(rank for rank, (_, side) in zip(ranks, pooled) if side == 0)
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    sigma = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
    if sigma == 0.0:
        return 1.0
    # continuity correction toward the mean
    z = (u_a - mean_u - math.copysign(0.5, u_a - mean_u)) / sigma if u_a != mean_u else 0.0
    return max(0.0, min(1.0, 2.0 * (1.0 - _normal_cdf(abs(z)))))


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass
class PointComparison:
    """Wall-time verdict for one grid point."""

    point: str
    status: str                       #: ok | improved | regressed | missing-*
    baseline_n: int = 0
    current_n: int = 0
    baseline_median: float = 0.0
    current_median: float = 0.0
    ratio: float = 0.0                #: current median / baseline median
    p_value: Optional[float] = None   #: Mann-Whitney, when enough samples

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class PerfReport:
    """The full comparison: one :class:`PointComparison` per grid point."""

    sweep: str
    tolerance: float
    points: List[PointComparison] = field(default_factory=list)

    @property
    def regressions(self) -> List[PointComparison]:
        return [p for p in self.points if p.status == "regressed"]

    @property
    def improvements(self) -> List[PointComparison]:
        return [p for p in self.points if p.status == "improved"]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for point in self.points:
            counts[point.status] = counts.get(point.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep,
            "tolerance": self.tolerance,
            "regressed": self.regressed,
            "counts": self.counts(),
            "points": [p.to_dict() for p in self.points],
        }


def compare_wall_times(
    baseline: Sequence[RunResult],
    current: Sequence[RunResult],
    tolerance: float = DEFAULT_TOLERANCE,
    alpha: float = DEFAULT_ALPHA,
    sweep: str = "",
) -> PerfReport:
    """Compare two result sets of the same sweep point by point.

    A point regresses when its current median wall time exceeds the
    baseline median by more than ``tolerance`` (a fraction: 0.25 allows a
    25% slowdown) *and* -- when both sides carry at least
    :data:`MIN_SAMPLES_FOR_TEST` replications -- the Mann-Whitney test
    rejects "same distribution" at ``alpha``.  With fewer replications
    the threshold-ratio test decides alone.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    baseline_groups = wall_time_groups(baseline)
    current_groups = wall_time_groups(current)
    report = PerfReport(sweep=sweep, tolerance=tolerance)

    seen = list(baseline_groups)
    seen.extend(p for p in current_groups if p not in baseline_groups)
    for point in seen:
        base_times = baseline_groups.get(point)
        cur_times = current_groups.get(point)
        if base_times is None:
            report.points.append(
                PointComparison(
                    point=point,
                    status="missing-baseline",
                    current_n=len(cur_times or ()),
                    current_median=statistics.median(cur_times) if cur_times else 0.0,
                )
            )
            continue
        if cur_times is None:
            report.points.append(
                PointComparison(
                    point=point,
                    status="missing-current",
                    baseline_n=len(base_times),
                    baseline_median=statistics.median(base_times),
                )
            )
            continue
        base_median = statistics.median(base_times)
        cur_median = statistics.median(cur_times)
        ratio = cur_median / base_median if base_median > 0 else 1.0
        p_value = None
        if min(len(base_times), len(cur_times)) >= MIN_SAMPLES_FOR_TEST:
            p_value = mann_whitney_p(base_times, cur_times)
        status = "ok"
        if ratio > 1.0 + tolerance and (p_value is None or p_value < alpha):
            status = "regressed"
        elif ratio < 1.0 / (1.0 + tolerance) and (p_value is None or p_value < alpha):
            status = "improved"
        report.points.append(
            PointComparison(
                point=point,
                status=status,
                baseline_n=len(base_times),
                current_n=len(cur_times),
                baseline_median=round(base_median, 6),
                current_median=round(cur_median, 6),
                ratio=round(ratio, 4),
                p_value=round(p_value, 6) if p_value is not None else None,
            )
        )
    return report


def load_results(
    path: str, spec: Optional[SweepSpec] = None, cache_version: Optional[int] = None
) -> List[RunResult]:
    """Load one side of a comparison from ``path``.

    ``path`` may be a results JSON artifact (written by ``export`` /
    ``merge`` / :func:`~repro.experiments.orchestrator.export_json`), a
    cache directory, or a store spec (``"sqlite:runs.db"``; any backend
    of :mod:`repro.experiments.stores`).  Reading a store requires
    ``spec`` (stores are keyed by content hash, so the spec must be
    expanded to know which entries belong to the sweep);
    ``cache_version`` addresses an older
    :data:`~repro.experiments.orchestrator.CACHE_VERSION` generation
    inside the same store.  A spec carrying an adaptive replication
    policy is replayed through its stopping rule (one cache-only
    :func:`~repro.experiments.orchestrator.sweep`), since its run set is
    not a static expansion.
    """
    prefix, _location = parse_store_spec(path)
    if prefix is not None or os.path.isdir(path):
        if spec is None:
            raise SpecError(
                f"{path!r} is a result store (cache directory or store "
                "spec); loading wall times from a store requires the sweep "
                "spec to enumerate its entries"
            )
        if prefix is not None and not store_exists(path):
            raise SpecError(f"result store {path!r} does not exist")
        return sweep(
            spec,
            spec.replication,
            cache_only=True,
            version=cache_version,
            cache_dir=path,
        ).results
    if cache_version is not None:
        raise SpecError(
            f"{path!r} is a results JSON artifact, not a cache directory; "
            "a cache-version selector does not apply to it"
        )
    return load_json(path)


# ---------------------------------------------------------------------------
# Trend history: the gate as a trajectory
# ---------------------------------------------------------------------------


@dataclass
class TrendEntry:
    """One recorded point of a sweep's wall-time trajectory.

    Appended (one JSON object per line) to a trend file --
    ``benchmarks/trend.jsonl`` in CI -- by ``perf --trend``.  ``medians``
    maps each grid-point label to its median wall time; ``store`` and
    ``executor`` record the sweep-cosmetic context the times were
    measured under (medians across different stores are comparable --
    the store never changes what executes -- but the context makes an
    environment-induced step in the curve explainable).  ``accepted``
    marks a deliberately-blessed slowdown: :func:`check_trend` never
    reaches past the newest accepted entry, so acceptance resets the
    reference window.
    """

    sweep: str
    recorded_at: str                  #: ISO-8601 UTC timestamp
    commit: str                       #: git commit SHA ("" if unknown)
    store: str                        #: result-store backend ("" if unknown)
    executor: str                     #: executor backend ("" if unknown)
    n_runs: int                       #: results the medians were taken over
    medians: Dict[str, float] = field(default_factory=dict)
    accepted: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrendEntry":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def git_commit() -> str:
    """The commit SHA to stamp into trend entries ("" when unknown).

    CI exports ``GITHUB_SHA``; locally ``git rev-parse`` is asked.  A
    non-repository (e.g. an unpacked source archive) yields "".
    """
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def trend_entry(
    sweep: str,
    results: Sequence[RunResult],
    store: str = "",
    executor: str = "",
    commit: Optional[str] = None,
    recorded_at: Optional[str] = None,
    accepted: bool = False,
) -> TrendEntry:
    """Condense one result set into the entry ``perf --trend`` appends."""
    medians = {
        point: round(statistics.median(times), 6)
        for point, times in wall_time_groups(results).items()
    }
    if recorded_at is None:
        recorded_at = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    return TrendEntry(
        sweep=sweep,
        recorded_at=recorded_at,
        commit=git_commit() if commit is None else commit,
        store=store,
        executor=executor,
        n_runs=len(results),
        medians=medians,
        accepted=accepted,
    )


def append_trend(path: str, entry: TrendEntry) -> None:
    """Append one entry to the JSONL trend file (created on first use)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry.to_dict()) + "\n")


def load_trend(path: str, sweep: Optional[str] = None) -> List[TrendEntry]:
    """Read a trend file, oldest first; optionally one sweep's entries only.

    A missing file is an empty history (the first ``--trend`` run seeds
    it); an undecodable line is skipped rather than poisoning the whole
    history -- trend files are append-only and a torn final line from a
    killed CI job must not fail every later run.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return []
    entries: List[TrendEntry] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            entry = TrendEntry.from_dict(data)
        except (TypeError, ValueError):
            continue
        if sweep is None or entry.sweep == sweep:
            entries.append(entry)
    return entries


@dataclass
class TrendPoint:
    """One grid point's verdict against the trailing window."""

    point: str
    status: str                       #: ok | improved | regressed | new-point | no-history
    history_n: int = 0                #: window entries carrying this point
    trailing_median: float = 0.0      #: median of the window's medians
    current_median: float = 0.0
    ratio: float = 0.0                #: current / trailing (0 when no history)
    #: the point's recent curve, oldest first (window medians + current)
    curve: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class TrendReport:
    """Verdict of the newest trend entry against its trailing window."""

    sweep: str
    tolerance: float
    window: int
    entries: int                      #: history entries actually compared against
    points: List[TrendPoint] = field(default_factory=list)

    @property
    def regressions(self) -> List[TrendPoint]:
        return [p for p in self.points if p.status == "regressed"]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for point in self.points:
            counts[point.status] = counts.get(point.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep,
            "tolerance": self.tolerance,
            "window": self.window,
            "entries": self.entries,
            "regressed": self.regressed,
            "counts": self.counts(),
            "points": [p.to_dict() for p in self.points],
        }


def check_trend(
    entries: Sequence[TrendEntry],
    tolerance: float = DEFAULT_TOLERANCE,
    window: int = DEFAULT_TREND_WINDOW,
) -> TrendReport:
    """Judge the newest entry against the trailing median of its history.

    ``entries`` is one sweep's history, oldest first (the newest entry is
    the one under test).  The reference window is the last ``window``
    earlier entries, truncated at the most recent ``accepted`` one --
    blessing a slowdown restarts the curve there.  Comparing against the
    *median of the window's medians* (not the single previous entry)
    keeps one noisy CI machine from failing the gate, while a sustained
    drift past ``tolerance`` still trips it.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if window < 1:
        raise ValueError(f"trend window must be >= 1, got {window}")
    if not entries:
        raise SpecError("trend history is empty: nothing to check")
    latest = entries[-1]
    history = list(entries[:-1])
    for i in range(len(history) - 1, -1, -1):
        if history[i].accepted:
            history = history[i:]
            break
    history = history[-window:]

    report = TrendReport(
        sweep=latest.sweep,
        tolerance=tolerance,
        window=window,
        entries=len(history),
    )
    for point, current in latest.medians.items():
        values = [e.medians[point] for e in history if point in e.medians]
        if not history:
            status, trailing, ratio = "no-history", 0.0, 0.0
        elif not values:
            status, trailing, ratio = "new-point", 0.0, 0.0
        else:
            trailing = statistics.median(values)
            ratio = current / trailing if trailing > 0 else 1.0
            if ratio > 1.0 + tolerance:
                status = "regressed"
            elif ratio < 1.0 / (1.0 + tolerance):
                status = "improved"
            else:
                status = "ok"
        report.points.append(
            TrendPoint(
                point=point,
                status=status,
                history_n=len(values),
                trailing_median=round(trailing, 6),
                current_median=round(current, 6),
                ratio=round(ratio, 4),
                curve=[round(v, 6) for v in values] + [round(current, 6)],
            )
        )
    return report
