"""The simulated MANET: nodes + mobility + radio + MAC + bookkeeping.

The :class:`Network` owns the simulation kernel, moves nodes according to
the configured mobility model, answers neighbourhood queries through a
spatial hash, carries out physical transmissions (applying radio reception
probability, MAC delay and loss) and keeps the global delivery ledger the
metrics layer reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.geo.area import Area
from repro.geo.geometry import Point, Vector
from repro.geo.grid import SpatialHash
from repro.mobility.base import MobilityModel
from repro.registry import MACS, RADIOS
from repro.simulation.engine import PeriodicTimer, Simulator
from repro.simulation.mac import MacModel
from repro.simulation.node import MobileNode
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.radio import RadioModel

#: registered names resolved when a NetworkConfig omits radio/mac
DEFAULT_RADIO = "unit_disk"
DEFAULT_MAC = "csma"


@dataclass
class NetworkConfig:
    """Static configuration of a simulated network.

    ``radio`` and ``mac`` are model *instances* (scenario assembly builds
    them from the registered names in ``ScenarioConfig``); left unset,
    they resolve through the :mod:`repro.registry` defaults
    (:data:`DEFAULT_RADIO` / :data:`DEFAULT_MAC`) rather than hard-coding
    any concrete class here.
    """

    area: Area
    radio: Optional[RadioModel] = None
    mac: Optional[MacModel] = None
    mobility_step: float = 1.0       #: seconds between mobility updates
    seed: Optional[int] = None       #: seed for loss/jitter randomness
    max_packet_hops: int = 64        #: safety TTL on physical hops
    unicast_retries: int = 3         #: link-layer ARQ attempts for unicast frames

    def __post_init__(self) -> None:
        # bootstrap=False: the default entries are registered by
        # radio.py/mac.py, imported above -- resolving them must not pull
        # the experiments layer into bare simulation-object construction
        if self.radio is None:
            self.radio = RADIOS.get(DEFAULT_RADIO, bootstrap=False)(None)
        if self.mac is None:
            self.mac = MACS.get(DEFAULT_MAC, bootstrap=False)(None)


@dataclass
class DeliveryRecord:
    """Ledger entry for one originated multicast data packet."""

    uid: int
    group: int
    source: int
    sent_at: float
    intended: Set[int]
    delivered: Dict[int, float] = field(default_factory=dict)

    @property
    def delivery_ratio(self) -> float:
        if not self.intended:
            return 1.0
        return len(self.delivered) / len(self.intended)

    def delays(self) -> List[float]:
        return [t - self.sent_at for t in self.delivered.values()]


@dataclass
class NetworkStats:
    """Aggregate transmission counters (physical transmissions)."""

    transmissions: int = 0
    transmitted_bytes: int = 0
    control_transmissions: int = 0
    control_bytes: int = 0
    data_transmissions: int = 0
    data_bytes: int = 0
    receptions: int = 0
    drops_out_of_range: int = 0
    drops_loss: int = 0
    drops_ttl: int = 0
    drops_duty_cycle: int = 0        #: frames the MAC refused (duty-cycle budget)
    airtime_seconds: float = 0.0     #: total medium occupancy, retries included


class Network:
    """A mobile ad hoc network under simulation."""

    def __init__(
        self,
        config: NetworkConfig,
        mobility: MobilityModel,
        simulator: Optional[Simulator] = None,
    ) -> None:
        self.config = config
        self.mobility = mobility
        self.simulator = simulator or Simulator()
        self.rng = random.Random(config.seed)
        self.nodes: Dict[int, MobileNode] = {}
        self.stats = NetworkStats()
        self.deliveries: Dict[int, DeliveryRecord] = {}
        self._neighbor_cache: Optional[Dict[int, List[int]]] = None
        self._mobility_timer: Optional[PeriodicTimer] = None
        self._started = False

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_node(self, node: MobileNode) -> MobileNode:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        if node.node_id not in self.mobility.node_ids:
            raise ValueError(
                f"node {node.node_id} has no mobility state; "
                "create the mobility model with all node ids first"
            )
        node.bind_network(self)
        self.nodes[node.node_id] = node
        state = self.mobility.state(node.node_id)
        node.location_service.record(state.position, state.velocity, self.simulator.now)
        return node

    def add_nodes(self, nodes: Iterable[MobileNode]) -> None:
        for node in nodes:
            self.add_node(node)

    def node(self, node_id: int) -> MobileNode:
        return self.nodes[node_id]

    def alive_nodes(self) -> List[MobileNode]:
        return [n for n in self.nodes.values() if n.alive]

    # ------------------------------------------------------------------
    # positions / neighbours
    # ------------------------------------------------------------------
    def position_of(self, node_id: int) -> Point:
        return self.mobility.position(node_id)

    def velocity_of(self, node_id: int) -> Vector:
        return self.mobility.velocity(node_id)

    def neighbors_of(self, node_id: int) -> List[int]:
        """Alive nodes currently within radio range of ``node_id``.

        Returns the neighbour table's own list, not a copy: it is valid
        until the next mobility tick or failure and callers must not
        mutate it (copy it first to keep or edit it).
        """
        return self._neighbor_table().get(node_id, [])

    def are_neighbors(self, a: int, b: int) -> bool:
        return b in self._neighbor_table().get(a, [])

    def _invalidate_neighbors(self) -> None:
        self._neighbor_cache = None

    def _neighbor_table(self) -> Dict[int, List[int]]:
        if self._neighbor_cache is not None:
            return self._neighbor_cache
        radio = self.config.radio
        index: SpatialHash[int] = SpatialHash(radio.nominal_range)
        positions: Dict[int, Point] = {}
        for node_id, node in self.nodes.items():
            if not node.alive:
                continue
            pos = self.mobility.position(node_id)
            positions[node_id] = pos
            index.insert(node_id, pos)
        table: Dict[int, List[int]] = {}
        for node_id, pos in positions.items():
            table[node_id] = [
                other
                for other in index.candidates(pos)
                if other != node_id and radio.in_range(pos, positions[other])
            ]
        self._neighbor_cache = table
        return table

    def connectivity_components(self) -> List[Set[int]]:
        """Connected components of the current physical topology."""
        table = self._neighbor_table()
        remaining = set(table.keys())
        components: List[Set[int]] = []
        while remaining:
            start = remaining.pop()
            comp = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for nb in table.get(current, []):
                    if nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            components.append(comp)
            remaining -= comp
        return components

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once :meth:`start` has run (agents notified, mobility ticking)."""
        return self._started

    def start(self) -> None:
        """Start mobility updates and notify every agent."""
        if self._started:
            raise RuntimeError("network already started")
        self._started = True
        self._mobility_timer = PeriodicTimer(
            self.simulator,
            self.config.mobility_step,
            self._mobility_tick,
            initial_delay=self.config.mobility_step,
            priority=-10,
        )
        for node in self.nodes.values():
            for agent in node.agents:
                agent.on_start()

    def run(self, duration: float) -> None:
        """Start (if needed) and run for ``duration`` simulated seconds."""
        if not self._started:
            self.start()
        self.simulator.run(duration)

    def stop(self) -> None:
        if self._mobility_timer is not None:
            self._mobility_timer.stop()
        for node in self.nodes.values():
            for agent in node.agents:
                agent.on_stop()

    def _mobility_tick(self) -> None:
        self.mobility.advance(self.config.mobility_step)
        now = self.simulator.now
        for node_id, node in self.nodes.items():
            state = self.mobility.state(node_id)
            node.location_service.record(state.position, state.velocity, now)
        self._invalidate_neighbors()

    # ------------------------------------------------------------------
    # physical transmission
    # ------------------------------------------------------------------
    def transmit(
        self, sender: int, packet: Packet, destination: Optional[int] = None
    ) -> None:
        """Carry out one physical transmission (broadcast or unicast).

        The MAC resolves the frame into a :class:`~repro.simulation.mac.
        TxPlan` (delay, loss probability, airtime, or an outright
        duty-cycle denial); the radio is told about the frame's on-air
        interval before reception at each candidate receiver is decided,
        so interference-aware radios can hold every concurrent frame
        against it.  The delivery is scheduled after the MAC delay.
        """
        sender_node = self.nodes[sender]
        if not sender_node.alive:
            return
        if packet.hops >= self.config.max_packet_hops:
            self.stats.drops_ttl += 1
            return
        position = self.mobility.position
        sender_pos = position(sender)
        neighbor_ids = self.neighbors_of(sender)
        contenders = len(neighbor_ids)
        now = self.simulator.now
        radio = self.config.radio
        plan = self.config.mac.plan_transmission(
            sender, now, packet.size_bytes, contenders, self.rng
        )
        if not plan.proceed:
            self.stats.drops_duty_cycle += 1
            return
        self._count_transmission(packet)
        self.stats.airtime_seconds += plan.airtime
        radio.note_transmission(sender, sender_pos, now, now + plan.airtime)
        delay = plan.delay
        airtime = plan.airtime
        mac_loss = plan.loss_probability

        if destination is not None:
            targets = (destination,) if destination in neighbor_ids else ()
            if not targets:
                self.stats.drops_out_of_range += 1
        else:
            targets = neighbor_ids

        # Unicast frames benefit from link-layer ARQ (802.11-style retries);
        # broadcast frames are fire-and-forget.
        attempts = 1 + (self.config.unicast_retries if destination is not None else 0)
        nodes = self.nodes
        draw = self.rng.random
        reception_probability = radio.reception_probability_during
        schedule = self.simulator.schedule
        for target in targets:
            receiver = nodes.get(target)
            if receiver is None or not receiver.alive:
                continue
            target_pos = position(target)
            total_delay = delay
            received = False
            for attempt in range(attempts):
                attempt_start = now + attempt * delay
                p_rx = reception_probability(
                    sender,
                    sender_pos,
                    target,
                    target_pos,
                    attempt_start,
                    attempt_start + airtime,
                )
                if draw() < p_rx and draw() >= mac_loss:
                    received = True
                    break
                # a failed attempt costs another frame time (and is counted
                # as an extra physical transmission occupying the medium)
                if attempt + 1 < attempts:
                    total_delay += delay
                    self._count_transmission(packet)
                    self.stats.airtime_seconds += airtime
                    retry_start = now + (attempt + 1) * delay
                    radio.note_transmission(
                        sender, sender_pos, retry_start, retry_start + airtime
                    )
            if not received:
                self.stats.drops_loss += 1
                continue
            copy = packet.copy_for_forwarding()
            copy.hops += 1
            schedule(
                total_delay, lambda r=receiver, c=copy, s=sender: self._deliver(r, c, s)
            )

    def _deliver(self, receiver: MobileNode, packet: Packet, sender: int) -> None:
        self.stats.receptions += 1
        receiver.deliver(packet, sender)

    def _count_transmission(self, packet: Packet) -> None:
        self.stats.transmissions += 1
        self.stats.transmitted_bytes += packet.size_bytes
        if packet.kind is PacketKind.DATA:
            self.stats.data_transmissions += 1
            self.stats.data_bytes += packet.size_bytes
        else:
            self.stats.control_transmissions += 1
            self.stats.control_bytes += packet.size_bytes

    # ------------------------------------------------------------------
    # delivery ledger
    # ------------------------------------------------------------------
    def register_data_packet(self, packet: Packet, intended: Iterable[int]) -> None:
        """Record an originated multicast data packet and its intended receivers."""
        intended_set = {i for i in intended if i != packet.source}
        self.deliveries[packet.uid] = DeliveryRecord(
            uid=packet.uid,
            group=packet.group if packet.group is not None else -1,
            source=packet.source,
            sent_at=self.simulator.now,
            intended=intended_set,
        )

    def note_delivery(self, packet: Packet, node_id: int) -> None:
        """Record that ``node_id`` received application data packet ``packet``."""
        record = self.deliveries.get(packet.uid)
        if record is None:
            return
        if node_id in record.intended and node_id not in record.delivered:
            record.delivered[node_id] = self.simulator.now

    def group_members(self, group: int) -> List[int]:
        """Node ids currently joined to ``group`` (alive nodes only)."""
        return [
            node_id
            for node_id, node in self.nodes.items()
            if node.alive and node.is_member(group)
        ]

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.nodes[node_id].fail()
        self._invalidate_neighbors()

    def recover_nodes(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.nodes[node_id].recover()
        self._invalidate_neighbors()
