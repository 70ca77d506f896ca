"""Protocol-fingerprint regression suite.

Pins one small seeded scenario per registered multicast protocol (HVDB
and its four baselines) against the golden capture in
``tests/data/protocol_fingerprints.json``.  Each scenario records:

* every figure of ``MetricsReport.flat_row()``;
* ``Simulator.processed_events`` -- the number of events the kernel ran;
* ``dataclasses.asdict(NetworkStats)`` -- the physical transmission,
  reception and drop counters.

Everything must match exactly: a change to the event kernel, the
transmit path, unicast forwarding, rng-draw order or any protocol's
handlers shows up here, so hot-path rewrites that claim to change no
simulated bit are checked against it.  HVDB runs at 100 nodes at the E2
density (one node per 150 m x 150 m), where its backbone, geo-unicast
and clustering all carry load; the baselines run at 60 nodes.

The golden also records the ``CACHE_VERSION`` it was captured under.
Regenerate deliberately (after an intended behaviour change, and after
bumping ``CACHE_VERSION``) with::

    PYTHONPATH=src python tests/test_protocol_fingerprint.py

and review the golden diff like source code.  Regeneration refuses to
write changed metric rows under an unbumped ``CACHE_VERSION``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from goldens import StaleCacheVersion, write_golden
from repro.core.protocol import HVDBConfig
from repro.experiments import orchestrator
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import PROTOCOLS, ScenarioConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "protocol_fingerprints.json"

#: constant node density of the E2 scalability grid: m^2 per node
E2_AREA_PER_NODE = 150.0 * 150.0

#: (node count, simulated seconds) of each protocol's scenario
SCENARIO_SIZE = {
    "hvdb": (100, 40.0),
    "flooding": (60, 25.0),
    "sgm": (60, 25.0),
    "dsm": (60, 25.0),
    "spbm": (60, 25.0),
}


def fingerprint_config(protocol: str) -> ScenarioConfig:
    """The one seeded E2-density scenario fingerprinting ``protocol``."""
    n_nodes, _ = SCENARIO_SIZE[protocol]
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=n_nodes,
        area_size=math.sqrt(n_nodes * E2_AREA_PER_NODE),
        max_speed=4.0,
        group_size=max(8, n_nodes // 10),
        traffic_interval=1.0,
        traffic_start=10.0,
        seed=11,
        hvdb=HVDBConfig(vc_cols=8, vc_rows=8, dimension=4),
    )


def protocol_fingerprint(protocol: str) -> dict:
    result = run_scenario(
        fingerprint_config(protocol), duration=SCENARIO_SIZE[protocol][1]
    )
    network = result.scenario.network
    return {
        "metrics": result.report.flat_row(),
        "processed_events": network.simulator.processed_events,
        "network_stats": dataclasses.asdict(network.stats),
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = load_golden()


def test_golden_covers_every_registered_protocol():
    """Registering a protocol without recording its fingerprint fails here."""
    assert set(GOLDEN["scenarios"]) == set(PROTOCOLS)


def test_golden_records_current_cache_version():
    assert GOLDEN["cache_version"] == orchestrator.CACHE_VERSION


@pytest.mark.parametrize("protocol", sorted(GOLDEN["scenarios"]))
def test_protocol_fingerprint_matches_golden(protocol):
    got = protocol_fingerprint(protocol)
    golden = GOLDEN["scenarios"][protocol]
    assert got["processed_events"] == golden["processed_events"]
    assert got["network_stats"] == golden["network_stats"]
    row, golden_row = got["metrics"], golden["metrics"]
    assert set(row) == set(golden_row), "metric column set drifted"
    mismatches = {
        key: (row[key], golden_row[key])
        for key in golden_row
        if row[key] != golden_row[key]
    }
    assert not mismatches, (
        f"protocol fingerprint drifted for {protocol}: {mismatches} -- if the "
        "change is intentional, bump CACHE_VERSION and regenerate the golden "
        "(see module docstring)"
    )


class TestWriteGolden:
    """The regeneration guard shared with the physics golden."""

    def _golden(self, tmp_path, rows, version):
        path = tmp_path / "golden.json"
        write_golden(path, {"rows": rows}, "rows", cache_version=version)
        return path

    def test_stamps_current_cache_version(self, tmp_path):
        path = tmp_path / "golden.json"
        write_golden(path, {"rows": {"a": 1.5}}, "rows")
        assert json.loads(path.read_text()) == {
            "rows": {"a": 1.5},
            "cache_version": orchestrator.CACHE_VERSION,
        }

    def test_unchanged_rows_rewrite_under_same_version(self, tmp_path):
        path = self._golden(tmp_path, {"a": [1, 2]}, 4)
        write_golden(path, {"rows": {"a": (1, 2)}, "extra": 1}, "rows", cache_version=4)
        assert json.loads(path.read_text())["extra"] == 1

    def test_changed_rows_refused_without_bump(self, tmp_path):
        path = self._golden(tmp_path, {"a": 1.5}, 4)
        before = path.read_text()
        for version in (3, 4):
            with pytest.raises(StaleCacheVersion, match="bump CACHE_VERSION"):
                write_golden(path, {"rows": {"a": 1.25}}, "rows", cache_version=version)
        assert path.read_text() == before

    def test_changed_rows_written_after_bump(self, tmp_path):
        path = self._golden(tmp_path, {"a": 1.5}, 4)
        write_golden(path, {"rows": {"a": 1.25}}, "rows", cache_version=5)
        assert json.loads(path.read_text()) == {"rows": {"a": 1.25}, "cache_version": 5}


def regenerate() -> None:
    """Recompute every protocol fingerprint and rewrite the golden JSON."""
    doc = {"scenarios": {name: protocol_fingerprint(name) for name in PROTOCOLS}}
    write_golden(GOLDEN_PATH, doc, "scenarios")
    print(f"regenerated {GOLDEN_PATH} ({len(doc['scenarios'])} protocols)")


if __name__ == "__main__":
    regenerate()
