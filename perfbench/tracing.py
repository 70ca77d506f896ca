"""Outside-in per-layer tracing for the benchmark.

Nothing here edits the program: :class:`Instrumentation` wraps the public
entry points of each layer (``Simulator.schedule``, ``Network.transmit``,
``ClusteringService.update``, ...) from the outside while a traced pass
runs, and restores them afterwards.  Every wrapped call records a *span*
(name, start, end, parent) in a :class:`Tracer`; the spans stay in memory
in compact arrays and are written once, at the end, by
:meth:`Tracer.write`.

Event callbacks get a span of their own, named after the layer of the
module that defines the callback (``core.event`` for an HVDB beacon timer,
``network.event`` for a frame delivery), so timer-driven protocol work is
not booked to the event kernel.

A layer's *self time* is a span's duration minus the time its child spans
cover (:func:`self_times`); the per-layer metrics of the benchmark are
sums of self times and counts (:func:`layer_metrics`).

Runs executed in forked worker processes (the ``egrid_sweep`` workload)
are traced in the worker, and their aggregated totals travel back on the
result object (:func:`traced_execute_run`); their individual spans stay
in the worker.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.dsm import DsmAgent
from repro.baselines.flooding import FloodingMulticastAgent
from repro.baselines.sgm import SgmAgent
from repro.baselines.spbm import SpbmAgent
from repro.clustering.service import ClusteringService
from repro.core.protocol import HVDBProtocolAgent, HVDBStack
from repro.experiments import orchestrator, runner
from repro.experiments.executors import ProcessExecutor
from repro.experiments.stores import ResultStore
from repro.metrics import collectors
from repro.mobility.base import MobilityModel
from repro.simulation.engine import PeriodicTimer, Simulator
from repro.simulation.mac import MacModel
from repro.simulation.network import Network
from repro.simulation.node import MobileNode
from repro.simulation.radio import RadioModel
from repro.unicast.router import GeoUnicastAgent

#: (module prefix, layer): the layer an event callback is booked to, by
#: the module that defines it.  First match wins, so specific prefixes
#: come before their package.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.simulation.engine", "engine"),
    ("repro.simulation.network", "network"),
    ("repro.simulation.node", "node"),
    ("repro.simulation.mac", "mac"),
    ("repro.simulation.radio", "radio"),
    ("repro.simulation.phy", "radio"),
    ("repro.simulation.traffic", "traffic"),
    ("repro.simulation", "simulation"),
    ("repro.mobility", "mobility"),
    ("repro.unicast", "unicast"),
    ("repro.core", "core"),
    ("repro.clustering", "clustering"),
    ("repro.baselines", "baselines"),
    ("repro.metrics", "metrics"),
    ("repro.experiments", "experiments"),
)

#: the per-layer metrics a traced run reports, with their units
PER_LAYER_UNITS: Dict[str, str] = {
    "engine.events": "count",
    "engine.scheduled": "count",
    "engine.heap_peak": "count",
    "engine.self_s": "s",
    "mobility.advance_calls": "count",
    "mobility.advance_s": "s",
    "neighbors.queries": "count",
    "neighbors.s": "s",
    "neighbors.mean_degree": "count",
    "network.transmit_calls": "count",
    "network.transmit_self_s": "s",
    "network.frames": "count",
    "network.receptions": "count",
    "network.rx_per_frame": "ratio",
    "network.drops_out_of_range": "count",
    "network.drops_loss": "count",
    "network.drops_ttl": "count",
    "network.drops_duty_cycle": "count",
    "mac.plan_calls": "count",
    "mac.plan_s": "s",
    "mac.airtime_s": "s",
    "radio.rx_prob_calls": "count",
    "radio.rx_prob_s": "s",
    "radio.note_calls": "count",
    "radio.note_s": "s",
    "node.deliver_calls": "count",
    "node.deliver_self_s": "s",
    "unicast.sends": "count",
    "unicast.packets": "count",
    "unicast.self_s": "s",
    "unicast.dropped_no_route": "count",
    "unicast.delivered_ratio": "ratio",
    "core.on_packet_calls": "count",
    "core.self_s": "s",
    "core.timer_s": "s",
    "core.route_beacons_sent": "count",
    "core.summaries_sent": "count",
    "core.model_rebuilds": "count",
    "core.failovers": "count",
    "clustering.updates": "count",
    "clustering.s": "s",
    "clustering.head_changes": "count",
    "baselines.self_s": "s",
    "metrics.collect_s": "s",
    "metrics.pdr": "ratio",
    "metrics.delay_p50_ms": "ms",
    "metrics.delay_p95_ms": "ms",
    "metrics.tx_per_delivery": "tx",
    "metrics.ctrl_bytes_per_node_s": "B/node/s",
    "experiments.executed": "count",
    "experiments.cached": "count",
    "experiments.overhead_s": "s",
    "experiments.sweep_runs_per_s": "1/s",
    "experiments.replay_runs_per_s": "1/s",
    "experiments.run_wall_p50_s": "s",
    "experiments.run_wall_p95_s": "s",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.get_calls": "count",
    "store.get_s": "s",
    "trace.overhead_s": "s",
    "calibration.ref_s": "s",
}

#: the sweep-level metrics :func:`layer_metrics` leaves to the caller
SWEEP_METRICS = (
    "experiments.executed",
    "experiments.cached",
    "experiments.overhead_s",
    "experiments.sweep_runs_per_s",
    "experiments.replay_runs_per_s",
    "experiments.run_wall_p50_s",
    "experiments.run_wall_p95_s",
)

#: protocol counters (``aggregate_stats`` keys) summed per traced run
_PROTOCOL_COUNTERS = (
    "route_beacons_sent",
    "mnt_summaries_sent",
    "ht_summaries_broadcast",
    "model_rebuilds",
    "failovers",
    "cluster_head_changes",
)

#: ``NetworkStats`` fields summed per traced run
_NETWORK_COUNTERS = (
    "transmissions",
    "receptions",
    "drops_out_of_range",
    "drops_loss",
    "drops_ttl",
    "drops_duty_cycle",
    "airtime_seconds",
)


def layer_of_module(module: str) -> str:
    """The layer a module belongs to (``"other"`` outside the program)."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> "array[float]":
    """Per-span self time: duration minus the time child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Spans
    nest strictly (every call returns before its caller does), so the
    part of a parent's interval its children cover is the sum of their
    durations.
    """
    own = array("d", (end - start for start, end in zip(starts, ends)))
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


class Tracer:
    """In-memory span recorder plus counters, for one process.

    Spans live in parallel arrays (name id, parent index, start, end)
    so a traced pass of a few million calls stays small.  Counters are
    sums (``add``) or maxima (``peak``).  Totals absorbed from worker
    processes (:meth:`absorb`) are merged into :meth:`summary`.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.owner_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget every span, counter and absorbed total."""
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self._absorbed: List[Dict[str, Any]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.starts)
        stack = self._stack
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def absorb(self, summary: Dict[str, Any]) -> None:
        """Merge a worker process's :meth:`summary` into this one."""
        self._absorbed.append(summary)

    def summary(self) -> Dict[str, Any]:
        """Span counts and self times by name, plus counters; JSON-safe."""
        spans: Dict[str, List[float]] = {}
        own = self_times(self.parents, self.starts, self.ends)
        names = self.names
        for nid, seconds in zip(self.name_ids, own):
            entry = spans.setdefault(names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
        mine = {"spans": spans, "counters": dict(self.counters), "peaks": dict(self.peaks)}
        return merge([mine] + self._absorbed)

    def write(self, path: str) -> None:
        """Write every span, once: a JSON header line, then raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [
                ["name_id", self.name_ids.typecode],
                ["parent", self.parents.typecode],
                ["start", self.starts.typecode],
                ["end", self.ends.typecode],
            ],
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for values in (self.name_ids, self.parents, self.starts, self.ends):
                fh.write(values.tobytes())


def merge(summaries: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One summary of several: counts, times and counters add, peaks take the maximum."""
    spans: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    peaks: Dict[str, float] = {}
    for summary in summaries:
        for name, (count, seconds) in summary["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in summary["peaks"].items():
            peaks[key] = max(peaks.get(key, 0), value)
    return {"spans": spans, "counters": counters, "peaks": peaks}


def read_spans(path: str) -> List[Tuple[str, int, float, float]]:
    """Read a file written by :meth:`Tracer.write` as (name, parent, start, end)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _field, typecode in header["arrays"]:
            values = array(typecode)
            values.frombytes(fh.read(values.itemsize * header["count"]))
            columns.append(values)
    names = header["names"]
    return [
        (names[nid], parent, start, end)
        for nid, parent, start, end in zip(*columns)
    ]


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

#: the tracer of the installed :class:`Instrumentation`, if any; the
#: forked workers of a traced sweep find their (copied) tracer here
_ACTIVE: Optional[Tracer] = None


def _defining_classes(base: type, method: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``method`` itself."""
    found = [base]
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        if method in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Instrumentation:
    """Wrap every layer's entry points with spans while installed.

    Use as a context manager around a traced pass, and build the
    scenario inside it: objects built earlier captured the unwrapped
    callbacks (timers, cluster listeners).  Uninstalling restores every
    original attribute.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []
        self._layer_ids: Dict[Any, int] = {}

    # -- patch helpers --------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self.tracer
        nid = tracer.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def _span_method(self, base: type, method: str, name: str) -> None:
        for cls in _defining_classes(base, method):
            self._patch(cls, method, self._span(name, cls.__dict__[method]))

    def _callback_layer(self, callback: Callable) -> int:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTimer):
            callback = owner.callback
        func = getattr(callback, "__func__", callback)
        module = getattr(func, "__module__", None) or ""
        # keyed by code and module: every span wrapper shares one code object
        key = (getattr(func, "__code__", None), module)
        nid = self._layer_ids.get(key)
        if nid is None:
            layer = layer_of_module(module)
            nid = self._layer_ids[key] = self.tracer.name_id(f"{layer}.event")
        return nid

    # -- the wrapped entry points ---------------------------------------
    def install(self) -> None:
        global _ACTIVE
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        tracer = self.tracer
        span = self._span_method

        # event kernel: scheduling, and a span per fired callback
        schedule_id = tracer.name_id("engine.schedule")

        def scheduling(original: Callable) -> Callable:
            @functools.wraps(original)
            def schedule(sim, when, callback, priority=0):
                index = tracer.open(schedule_id)
                try:
                    nid = self._callback_layer(callback)

                    def fire(callback=callback, nid=nid):
                        inner = tracer.open(nid)
                        try:
                            callback()
                        finally:
                            tracer.close(inner)

                    event = original(sim, when, fire, priority)
                    tracer.peak("engine.heap_peak", len(sim._heap))
                    return event
                finally:
                    tracer.close(index)

            return schedule

        self._patch(Simulator, "schedule", scheduling(Simulator.schedule))
        self._patch(Simulator, "schedule_at", scheduling(Simulator.schedule_at))
        span(Simulator, "run_until", "engine.run")

        span(MobilityModel, "advance", "mobility.advance")

        neighbors_of = Network.neighbors_of
        query_id = tracer.name_id("neighbors.query")

        @functools.wraps(neighbors_of)
        def counted_neighbors_of(network, node_id):
            index = tracer.open(query_id)
            try:
                result = neighbors_of(network, node_id)
            finally:
                tracer.close(index)
            tracer.add("neighbors.lists", 1)
            tracer.add("neighbors.degree_sum", len(result))
            return result

        self._patch(Network, "neighbors_of", counted_neighbors_of)
        self._patch(
            Network, "are_neighbors", self._span("neighbors.query", Network.are_neighbors)
        )
        span(Network, "transmit", "network.transmit")
        span(MacModel, "plan_transmission", "mac.plan")
        span(RadioModel, "reception_probability_during", "radio.rx_prob")
        span(RadioModel, "note_transmission", "radio.note")
        span(MobileNode, "deliver", "node.deliver")
        span(GeoUnicastAgent, "send", "unicast.send")
        span(GeoUnicastAgent, "on_packet", "unicast.on_packet")
        span(HVDBProtocolAgent, "on_packet", "core.on_packet")
        span(HVDBProtocolAgent, "send_multicast", "core.send_multicast")
        span(HVDBStack, "aggregate_stats", "core.aggregate_stats")
        span(HVDBStack, "_on_cluster_update", "core.model_update")
        span(ClusteringService, "update", "clustering.update")
        for agent in (FloodingMulticastAgent, SgmAgent, DsmAgent, SpbmAgent):
            span(agent, "on_packet", "baselines.on_packet")
            span(agent, "send_multicast", "baselines.send_multicast")
        span(ResultStore, "get", "store.get")
        span(ResultStore, "put", "store.put")

        # metrics collection: a span, and the run's simulated counters
        collect = self._span("metrics.collect", collectors.collect_metrics)

        @functools.wraps(collect)
        def collect_metrics(network, protocol, duration, backbone_nodes=None,
                            protocol_stats=None, group=None):
            report = collect(
                network, protocol, duration, backbone_nodes=backbone_nodes,
                protocol_stats=protocol_stats, group=group,
            )
            _count_run(tracer, network, duration, protocol_stats or {})
            return report

        self._patch(collectors, "collect_metrics", collect_metrics)
        self._patch(runner, "collect_metrics", collect_metrics)
        self._patch(orchestrator, "run_sweep", self._span("experiments.run_sweep",
                                                          orchestrator.run_sweep))

        # sweeps: workers trace their runs and ship the totals back
        map_runs = ProcessExecutor.map_runs

        @functools.wraps(map_runs)
        def traced_map_runs(executor, pending, execute, record, fail, **options):
            def absorbing_record(key, result):
                summary = result.__dict__.pop("perfbench_trace", None)
                if summary is not None:
                    tracer.absorb(summary)
                record(key, result)

            if execute is orchestrator.execute_run:
                execute = traced_execute_run
            return map_runs(executor, pending, execute, absorbing_record, fail, **options)

        self._patch(ProcessExecutor, "map_runs", traced_map_runs)
        _ACTIVE = tracer

    def uninstall(self) -> None:
        global _ACTIVE
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def traced_execute_run(run: Any) -> Any:
    """``execute_run`` for a traced sweep's worker processes.

    A forked worker inherits the installed wrappers and a copy of the
    parent process's tracer; it starts that copy afresh for each run and
    sends the run's totals back as an attribute of the result, which
    :class:`Instrumentation`'s ``record`` wrapper removes before the
    orchestrator sees it.  In the parent process itself (a one-run batch
    runs in-process) the spans land in its tracer directly.
    """
    tracer = _ACTIVE
    if tracer is None or os.getpid() == tracer.owner_pid:
        return orchestrator.execute_run(run)
    tracer.reset()
    result = orchestrator.execute_run(run)
    result.perfbench_trace = tracer.summary()
    return result


def _count_run(tracer: Tracer, network: Network, duration: float,
               protocol_stats: Dict[str, int]) -> None:
    """Add one finished run's simulated counters to ``tracer``."""
    tracer.add("runs", 1)
    tracer.add("engine.events", network.simulator.processed_events)
    for field in _NETWORK_COUNTERS:
        tracer.add(f"net.{field}", getattr(network.stats, field))
    for key in _PROTOCOL_COUNTERS:
        tracer.add(f"proto.{key}", protocol_stats.get(key, 0))
    for node in network.nodes.values():
        for agent in node.agents:
            if isinstance(agent, GeoUnicastAgent):
                tracer.add("unicast.sent", agent.sent)
                tracer.add("unicast.delivered", agent.delivered)
                tracer.add("unicast.dropped_no_route", agent.dropped_no_route)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_self_times(summary: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer: the sum over span names ``<layer>.*``."""
    layers: Dict[str, float] = {}
    for name, (_count, seconds) in summary["spans"].items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric from a summary, except :data:`SWEEP_METRICS`,
    ``trace.overhead_s`` and the simulated output (``metrics.pdr`` ...),
    which the caller measures or pools over the runs of a round."""
    spans = summary["spans"]
    counters = summary["counters"]
    layers = layer_self_times(summary)

    def calls(name: str) -> float:
        return spans.get(name, (0, 0.0))[0]

    def seconds(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    def count(key: str) -> float:
        return counters.get(key, 0)

    frames = count("net.transmissions")
    return {
        "engine.events": count("engine.events"),
        "engine.scheduled": calls("engine.schedule"),
        "engine.heap_peak": summary["peaks"].get("engine.heap_peak", 0),
        "engine.self_s": layers.get("engine", 0.0),
        "mobility.advance_calls": calls("mobility.advance"),
        "mobility.advance_s": layers.get("mobility", 0.0),
        "neighbors.queries": calls("neighbors.query"),
        "neighbors.s": layers.get("neighbors", 0.0),
        "neighbors.mean_degree": _ratio(count("neighbors.degree_sum"),
                                        count("neighbors.lists")),
        "network.transmit_calls": calls("network.transmit"),
        "network.transmit_self_s": seconds("network.transmit"),
        "network.frames": frames,
        "network.receptions": count("net.receptions"),
        "network.rx_per_frame": _ratio(count("net.receptions"), frames),
        "network.drops_out_of_range": count("net.drops_out_of_range"),
        "network.drops_loss": count("net.drops_loss"),
        "network.drops_ttl": count("net.drops_ttl"),
        "network.drops_duty_cycle": count("net.drops_duty_cycle"),
        "mac.plan_calls": calls("mac.plan"),
        "mac.plan_s": layers.get("mac", 0.0),
        "mac.airtime_s": count("net.airtime_seconds"),
        "radio.rx_prob_calls": calls("radio.rx_prob"),
        "radio.rx_prob_s": seconds("radio.rx_prob"),
        "radio.note_calls": calls("radio.note"),
        "radio.note_s": seconds("radio.note"),
        "node.deliver_calls": calls("node.deliver"),
        "node.deliver_self_s": seconds("node.deliver"),
        "unicast.sends": calls("unicast.send"),
        "unicast.packets": calls("unicast.on_packet"),
        "unicast.self_s": layers.get("unicast", 0.0),
        "unicast.dropped_no_route": count("unicast.dropped_no_route"),
        "unicast.delivered_ratio": _ratio(count("unicast.delivered"), count("unicast.sent")),
        "core.on_packet_calls": calls("core.on_packet"),
        "core.self_s": layers.get("core", 0.0) - seconds("core.event"),
        "core.timer_s": seconds("core.event"),
        "core.route_beacons_sent": count("proto.route_beacons_sent"),
        "core.summaries_sent": count("proto.mnt_summaries_sent")
        + count("proto.ht_summaries_broadcast"),
        "core.model_rebuilds": count("proto.model_rebuilds"),
        "core.failovers": count("proto.failovers"),
        "clustering.updates": calls("clustering.update"),
        "clustering.s": layers.get("clustering", 0.0),
        "clustering.head_changes": count("proto.cluster_head_changes"),
        "baselines.self_s": layers.get("baselines", 0.0),
        "metrics.collect_s": layers.get("metrics", 0.0),
        "store.put_calls": calls("store.put"),
        "store.put_s": seconds("store.put"),
        "store.get_calls": calls("store.get"),
        "store.get_s": seconds("store.get"),
    }


def format_layer_split(summary: Dict[str, Any], wall: float) -> Iterable[str]:
    """Lines of a table: self time per layer and its share of ``wall``."""
    layers = layer_self_times(summary)
    yield f"{'layer':<12} {'self_s':>10} {'share':>7}"
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        yield f"{layer:<12} {seconds:>10.4f} {_ratio(seconds, wall):>7.1%}"
