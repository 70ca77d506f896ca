"""Unit tests for greedy geographic unicast routing."""

import pytest

from repro.geo.geometry import Point
from repro.simulation.agent import ProtocolAgent
from repro.simulation.packet import Packet, PacketKind, data_packet
from repro.unicast.greedy import greedy_next_hop, path_stretch, recovery_next_hop
from repro.unicast.router import GEO_PROTOCOL, GeoUnicastAgent

from tests.conftest import make_static_network


class TestGreedySelection:
    SRC, DST = Point(0.0, 0.0), Point(100.0, 0.0)

    def test_picks_neighbor_with_most_progress(self):
        neighbors = {1: Point(50.0, 0.0), 2: Point(80.0, 0.0), 3: Point(20.0, 50.0)}
        nxt = greedy_next_hop(self.SRC, self.DST, neighbors, neighbors.__getitem__)
        assert nxt == 2

    def test_returns_none_without_progress(self):
        neighbors = {1: Point(-50.0, 0.0), 2: Point(0.0, -60.0)}
        assert greedy_next_hop(self.SRC, self.DST, neighbors, neighbors.__getitem__) is None

    def test_excluded_neighbors_skipped(self):
        neighbors = {1: Point(80.0, 0.0), 2: Point(60.0, 0.0)}
        nxt = greedy_next_hop(
            self.SRC, self.DST, neighbors, neighbors.__getitem__, exclude={1}
        )
        assert nxt == 2

    def test_empty_neighbors(self):
        assert greedy_next_hop(Point(0.0, 0.0), Point(1.0, 1.0), [], {}.__getitem__) is None

    def test_recovery_ignores_progress_requirement(self):
        neighbors = {1: Point(-50.0, 0.0), 2: Point(-20.0, 0.0)}
        nxt = recovery_next_hop(
            self.SRC, self.DST, neighbors, neighbors.__getitem__, visited=set()
        )
        assert nxt == 2

    def test_recovery_skips_visited(self):
        neighbors = {1: Point(-20.0, 0.0), 2: Point(-50.0, 0.0)}
        nxt = recovery_next_hop(
            self.SRC, self.DST, neighbors, neighbors.__getitem__, visited={1}
        )
        assert nxt == 2

    def test_recovery_all_visited(self):
        neighbors = {1: Point(-20.0, 0.0)}
        nxt = recovery_next_hop(
            self.SRC, self.DST, neighbors, neighbors.__getitem__, visited={1}
        )
        assert nxt is None

    def test_path_stretch(self):
        straight = [Point(0.0, 0.0), Point(50.0, 0.0), Point(100.0, 0.0)]
        assert path_stretch(straight) == pytest.approx(1.0)
        detour = [Point(0.0, 0.0), Point(50.0, 50.0), Point(100.0, 0.0)]
        assert path_stretch(detour) > 1.0
        assert path_stretch([Point(0.0, 0.0)]) == 1.0


class SinkAgent(ProtocolAgent):
    """Records inner packets arriving at this node."""

    protocol_name = "sink"

    def __init__(self):
        super().__init__()
        self.received = []

    def on_packet(self, packet, from_node):
        if packet.protocol == "sink":
            self.received.append((packet, from_node))


def build_geo_network(positions, radio_range=150.0):
    net = make_static_network(positions, radio_range=radio_range)
    sinks = {}
    for node in net.nodes.values():
        node.attach_agent(GeoUnicastAgent())
        sink = SinkAgent()
        node.attach_agent(sink)
        sinks[node.node_id] = sink
    return net, sinks


def inner_packet(source, size=100):
    return Packet(
        kind=PacketKind.DATA,
        protocol="sink",
        msg_type="data",
        source=source,
        size_bytes=size,
        created_at=0.0,
    )


class TestGeoUnicastAgent:
    def test_multi_hop_delivery_along_line(self):
        positions = {i: Point(100.0 * i + 10.0, 500.0) for i in range(6)}
        net, sinks = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=5)
        net.simulator.run(2.0)
        assert len(sinks[5].received) == 1
        packet, _ = sinks[5].received[0]
        assert packet.hops == 5
        # intermediate nodes forwarded but did not deliver the inner packet
        assert sinks[3].received == []

    def test_local_delivery_without_radio(self):
        positions = {0: Point(10.0, 10.0), 1: Point(900.0, 900.0)}
        net, sinks = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=0)
        assert len(sinks[0].received) == 1
        assert net.stats.transmissions == 0

    def test_drop_when_destination_unreachable(self):
        positions = {0: Point(10.0, 10.0), 1: Point(900.0, 900.0)}
        net, sinks = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=1)
        net.simulator.run(2.0)
        assert sinks[1].received == []
        assert geo.dropped_no_route >= 1

    def test_drop_when_destination_dead(self):
        positions = {0: Point(10.0, 500.0), 1: Point(110.0, 500.0)}
        net, sinks = build_geo_network(positions)
        net.node(1).fail()
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=1)
        net.simulator.run(2.0)
        assert sinks[1].received == []

    def test_recovery_routes_around_void(self):
        # a concave "C"-shaped topology: greedy progress from node 1 stalls,
        # recovery must walk around the rim
        positions = {
            0: Point(100.0, 500.0),
            1: Point(220.0, 500.0),   # local maximum towards destination
            2: Point(220.0, 380.0),
            3: Point(340.0, 380.0),
            4: Point(460.0, 420.0),
            5: Point(460.0, 500.0),   # destination (out of range of 1)
        }
        net, sinks = build_geo_network(positions, radio_range=130.0)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0), dest_node=5)
        net.simulator.run(3.0)
        assert len(sinks[5].received) == 1

    def test_counters(self):
        positions = {i: Point(100.0 * i + 10.0, 500.0) for i in range(4)}
        net, _ = build_geo_network(positions)
        geo0 = net.node(0).agent(GEO_PROTOCOL)
        geo0.send(inner_packet(0), dest_node=3)
        net.simulator.run(2.0)
        geo3 = net.node(3).agent(GEO_PROTOCOL)
        assert geo0.sent == 1
        assert geo3.delivered == 1
        middle = net.node(1).agent(GEO_PROTOCOL)
        assert middle.forwarded >= 1

    def test_envelope_size_includes_overhead(self):
        positions = {0: Point(10.0, 500.0), 1: Point(110.0, 500.0)}
        net, _ = build_geo_network(positions)
        geo = net.node(0).agent(GEO_PROTOCOL)
        geo.send(inner_packet(0, size=200), dest_node=1)
        assert net.stats.transmitted_bytes > 200
