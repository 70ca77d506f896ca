"""Interference-aware physical layer: SINR/capture radio + CSMA/CA MAC.

The paper evaluates HVDB over an idealized unit-disk radio and an
abstract contention model.  This module ports the physical-layer realism
the ROADMAP calls for -- RSSI from log-distance path loss, per-frame
SINR against the sum of concurrent interferers plus the noise floor, a
capture threshold deciding reception, frame airtime derived from size
and bitrate, binary exponential backoff and an optional per-node
duty-cycle budget -- as *registered components*:

* :class:`SinrRadio` (``register_radio("sinr")``) keeps per-transmission
  bookkeeping of concurrent senders in an :class:`InterferenceMap`
  (backed by the same :class:`~repro.geo.grid.SpatialHash` the neighbour
  table uses) and decodes a frame iff its RSSI clears the receiver
  sensitivity *and* its SINR clears the capture threshold.
* :class:`CsmaCaMac` (``register_mac("csma_ca")``) models carrier-sense
  deferral (DIFS + uniformly drawn backoff slots from a binary
  exponential contention window), frame airtime
  ``phy_overhead + 8 * size / bitrate``, a collision probability from
  slotted contention, and a sliding-window duty-cycle budget that gates
  transmissions per sender.

Both components are parameterised by typed config dataclasses
(:class:`SinrRadioConfig`, :class:`CsmaCaMacConfig`) that live as
``sinr`` / ``csma_ca`` sections on
:class:`~repro.experiments.scenarios.ScenarioConfig`, so sweep grids
address them with dotted axes (``"sinr.capture_db"``,
``"csma_ca.duty_cycle"``) exactly like the per-protocol sections.
Model equations and a unit-disk-vs-SINR comparison recipe are documented
in ``docs/physical-layer.md``; the timing semantics of the interference
bookkeeping (who counts as concurrent) are described on
:meth:`SinrRadio.reception_probability_during`.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.geo.geometry import Point, distance
from repro.geo.grid import SpatialHash
from repro.registry import register_mac, register_radio
from repro.simulation.mac import MacModel, TxPlan
from repro.simulation.radio import RadioModel

#: nominal range used when a radio is built without a ScenarioConfig
DEFAULT_RANGE_M = 250.0


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level in milliwatts to dBm."""
    if mw <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(mw)


def sinr_db(signal_dbm: float, interferer_dbms: List[float], noise_floor_dbm: float) -> float:
    """Signal-to-interference-plus-noise ratio in dB.

    The denominator is the *power sum* of every concurrent interferer
    plus the thermal noise floor, so adding an interferer can only lower
    the result (the monotonicity the property suite locks down).
    """
    total_mw = dbm_to_mw(noise_floor_dbm) + sum(dbm_to_mw(v) for v in interferer_dbms)
    return signal_dbm - mw_to_dbm(total_mw)


# ---------------------------------------------------------------------------
# Configuration sections (dotted sweep axes: "sinr.capture_db", ...)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinrRadioConfig:
    """Parameters of the :class:`SinrRadio` (``ScenarioConfig.sinr``).

    With ``reference_loss_db`` left ``None`` the path loss is
    *calibrated* so that the RSSI at ``ScenarioConfig.radio_range``
    equals ``sensitivity_dbm`` -- the SINR radio then has exactly the
    same connectivity disc as the unit-disk radio it replaces, and every
    difference in results is attributable to interference and capture,
    not to a different topology.
    """

    tx_power_dbm: float = 16.0          #: transmit power
    path_loss_exponent: float = 3.0     #: log-distance exponent (2=free space)
    reference_distance: float = 1.0     #: metres; path loss anchor d0
    reference_loss_db: Optional[float] = None  #: PL(d0); None = calibrate to radio_range
    sensitivity_dbm: float = -90.0      #: minimum decodable RSSI
    noise_floor_dbm: float = -100.0     #: thermal noise power
    capture_db: float = 6.0             #: minimum SINR to decode under interference
    interference_range_factor: float = 1.8  #: interferers counted within factor * range


@dataclass(frozen=True)
class CsmaCaMacConfig:
    """Parameters of the :class:`CsmaCaMac` (``ScenarioConfig.csma_ca``).

    ``duty_cycle`` is the fraction of airtime a node may occupy within
    any trailing ``duty_cycle_window`` seconds; ``1.0`` (the default)
    disables the budget.  The contention window for ``c`` contenders is
    ``cw_min << stage`` with ``stage = min(max_backoff_stage,
    bit_length(c) - 1)``, i.e. the window doubles as the contender count
    doubles, up to the configured maximum stage.
    """

    bitrate_bps: float = 2_000_000.0    #: payload bitrate (classic 802.11 figure)
    phy_overhead_s: float = 192e-6      #: preamble + PLCP header airtime
    base_latency: float = 0.001         #: propagation + processing per hop
    slot_time: float = 20e-6            #: backoff slot
    difs: float = 50e-6                 #: carrier-sense deferral before backoff
    cw_min: int = 16                    #: initial contention window (slots)
    max_backoff_stage: int = 5          #: window doublings cap: cw <= cw_min << stage
    duty_cycle: float = 1.0             #: airtime fraction per window; 1.0 = unlimited
    duty_cycle_window: float = 10.0     #: seconds of trailing window


# ---------------------------------------------------------------------------
# Per-transmission bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransmissionRecord:
    """One frame on the air: who transmitted where, over which interval."""

    sender: int
    position: Point
    start: float
    end: float

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and self.end > start


class InterferenceMap:
    """Active-transmission ledger with spatial-hash interferer lookup.

    :meth:`note` records a frame's on-air interval; :meth:`concurrent`
    answers "which frames overlap this interval within ``radius`` of
    this receiver?".  Lookup reuses :class:`~repro.geo.grid.SpatialHash`
    with the interference radius as the cell size, so the 3x3 cell probe
    is guaranteed to cover every interferer in range; expired records
    (ended before the current time) are pruned as new ones arrive, which
    keeps the ledger at the handful of frames genuinely in flight.

    The index is built lazily by the first query and then kept up to
    date incrementally: a new record is inserted into it, and only a
    prune drops it (the next query rebuilds it from the surviving
    ledger).  Buckets therefore always hold records in ledger order, so
    candidate order is the same as a rebuild on every query would give.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("interference cell size must be positive")
        self._cell_size = cell_size
        self._records: List[TransmissionRecord] = []
        self._index: Optional[SpatialHash] = None

    def __len__(self) -> int:
        return len(self._records)

    def note(self, record: TransmissionRecord, now: float) -> None:
        """Record a frame; drops every record already ended at ``now``."""
        if record.end <= record.start:
            raise ValueError("transmission interval must have positive length")
        if self._records and self._records[0].end < now:
            self._records = [r for r in self._records if r.end >= now]
            self._index = None
        self._records.append(record)
        if self._index is not None:
            # appending keeps every bucket in ledger order, exactly as
            # the rebuild in concurrent() would lay it out
            self._index.insert(record, record.position)

    def concurrent(
        self,
        receiver_pos: Point,
        start: float,
        end: float,
        radius: float,
        exclude_sender: Optional[int] = None,
    ) -> List[TransmissionRecord]:
        """Frames overlapping ``[start, end]`` within ``radius`` of the receiver."""
        if not self._records:
            return []
        if self._index is None:
            index: SpatialHash = SpatialHash(self._cell_size)
            for record in self._records:
                index.insert(record, record.position)
            self._index = index
        return [
            record
            for record in self._index.candidates(receiver_pos)
            if record.sender != exclude_sender
            and record.overlaps(start, end)
            and distance(record.position, receiver_pos) <= radius + 1e-9
        ]


# ---------------------------------------------------------------------------
# SINR/capture radio
# ---------------------------------------------------------------------------


class SinrRadio(RadioModel):
    """Log-distance RSSI + SINR capture radio (registered as ``sinr``).

    RSSI at distance ``d`` follows the log-distance path-loss model::

        rssi(d) = tx_power - (PL(d0) + 10 * n * log10(d / d0))

    A frame is decoded iff ``rssi >= sensitivity_dbm`` *and* its SINR
    against the power sum of concurrent interferers plus the noise floor
    clears ``capture_db`` (the capture effect: the strongest of several
    colliding frames can still be received).  A node that is itself
    transmitting during the frame's interval cannot receive it
    (half-duplex).
    """

    interference_aware = True

    def __init__(
        self,
        config: Optional[SinrRadioConfig] = None,
        range_hint: float = DEFAULT_RANGE_M,
    ) -> None:
        config = config or SinrRadioConfig()
        if config.path_loss_exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if config.reference_distance <= 0:
            raise ValueError("reference distance must be positive")
        if config.interference_range_factor < 1.0:
            raise ValueError("interference_range_factor must be >= 1")
        if config.noise_floor_dbm >= config.tx_power_dbm:
            raise ValueError("noise floor must lie below the transmit power")
        if range_hint <= 0:
            raise ValueError("radio range must be positive")
        self.config = config
        n, d0 = config.path_loss_exponent, config.reference_distance
        if config.reference_loss_db is None:
            # calibrate PL(d0) so rssi(range_hint) == sensitivity: identical
            # connectivity disc to the unit-disk radio at the same range
            self.reference_loss_db = (
                config.tx_power_dbm
                - config.sensitivity_dbm
                - 10.0 * n * math.log10(max(range_hint, d0) / d0)
            )
            self._range = float(range_hint)
        else:
            self.reference_loss_db = config.reference_loss_db
            margin = config.tx_power_dbm - self.reference_loss_db - config.sensitivity_dbm
            if margin < 0:
                raise ValueError(
                    "link budget closes nowhere: tx_power - reference_loss "
                    "is already below sensitivity at the reference distance"
                )
            self._range = d0 * 10.0 ** (margin / (10.0 * n))
        self._interference_radius = self._range * config.interference_range_factor
        self._active = InterferenceMap(self._interference_radius)

    # -- link budget ---------------------------------------------------
    @property
    def nominal_range(self) -> float:
        return self._range

    @property
    def interference_radius(self) -> float:
        """Distance within which a concurrent sender counts as an interferer."""
        return self._interference_radius

    def rssi_at(self, d: float) -> float:
        """Received signal strength (dBm) at distance ``d`` metres."""
        d = max(d, self.config.reference_distance)
        path_loss = self.reference_loss_db + 10.0 * self.config.path_loss_exponent * math.log10(
            d / self.config.reference_distance
        )
        return self.config.tx_power_dbm - path_loss

    def in_range(self, a: Point, b: Point) -> bool:
        return distance(a, b) <= self._range + 1e-9

    def reception_probability(self, a: Point, b: Point) -> float:
        """Interference-free reception: the link budget against noise alone."""
        d = distance(a, b)
        if d > self._range + 1e-9:
            return 0.0
        signal = self.rssi_at(d)
        if signal < self.config.sensitivity_dbm - 1e-9:
            return 0.0
        return 1.0 if sinr_db(signal, [], self.config.noise_floor_dbm) >= self.config.capture_db else 0.0

    # -- concurrent-transmission bookkeeping ---------------------------
    def note_transmission(self, sender: int, position: Point, start: float, end: float) -> None:
        self._active.note(TransmissionRecord(sender, position, start, end), now=start)

    def reception_probability_during(
        self,
        sender: int,
        sender_pos: Point,
        receiver: int,
        receiver_pos: Point,
        start: float,
        end: float,
    ) -> float:
        """Capture decision against the frames on the air over ``[start, end]``.

        Interference is evaluated against transmissions *already noted*
        when this frame is decided: the transmit path notes each frame
        before deciding its receivers, so frames sent at the same
        simulated instant interfere with every frame decided after them.
        (Capture is therefore resolved in decision order -- a
        deterministic one-sided approximation of symmetric collision
        resolution that keeps the classic radios' draw sequence intact.)
        """
        d = distance(sender_pos, receiver_pos)
        if d > self._range + 1e-9:
            return 0.0
        signal = self.rssi_at(d)
        if signal < self.config.sensitivity_dbm - 1e-9:
            return 0.0
        interferers = self._active.concurrent(
            receiver_pos, start, end, self._interference_radius, exclude_sender=sender
        )
        if any(record.sender == receiver for record in interferers):
            return 0.0  # half-duplex: a transmitting node cannot receive
        interference = [self.rssi_at(distance(r.position, receiver_pos)) for r in interferers]
        ratio = sinr_db(signal, interference, self.config.noise_floor_dbm)
        return 1.0 if ratio >= self.config.capture_db else 0.0


# ---------------------------------------------------------------------------
# CSMA/CA MAC
# ---------------------------------------------------------------------------


class CsmaCaMac(MacModel):
    """Slotted CSMA/CA link layer (registered as ``csma_ca``).

    Frame airtime is ``phy_overhead_s + 8 * size_bytes / bitrate_bps``
    (strictly increasing in frame size, strictly decreasing in bitrate).
    Before a frame, the sender defers ``difs`` plus a uniformly drawn
    number of backoff slots from ``[0, cw)``; the contention window
    doubles with the contender population up to ``max_backoff_stage``.
    The collision probability for ``c`` contenders picking slots from a
    ``cw``-slot window is ``1 - (1 - 1/cw) ** c`` -- in [0, 1] by
    construction, clamped anyway to honour the :class:`MacModel`
    contract.  An optional duty-cycle budget caps each sender's airtime
    over a sliding window; a frame over budget is denied outright
    (``TxPlan.proceed=False``, surfaced as ``drops_duty_cycle``).
    """

    def __init__(self, config: Optional[CsmaCaMacConfig] = None) -> None:
        config = config or CsmaCaMacConfig()
        if config.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if config.phy_overhead_s < 0 or config.base_latency < 0:
            raise ValueError("latency parameters must be non-negative")
        if config.slot_time < 0 or config.difs < 0:
            raise ValueError("slot_time and difs must be non-negative")
        if config.cw_min < 1:
            raise ValueError("cw_min must be >= 1")
        if config.max_backoff_stage < 0:
            raise ValueError("max_backoff_stage must be >= 0")
        if not 0 < config.duty_cycle <= 1:
            raise ValueError("duty_cycle must be in (0, 1] (1 disables the budget)")
        if config.duty_cycle_window <= 0:
            raise ValueError("duty_cycle_window must be positive")
        self.config = config
        #: per-sender (start_time, airtime) ledger for the duty-cycle window
        self._usage: Dict[int, Deque[Tuple[float, float]]] = {}
        #: frames denied by the duty-cycle budget (mirrored into NetworkStats)
        self.duty_cycle_denials = 0

    # -- timing --------------------------------------------------------
    def airtime(self, size_bytes: int) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return self.config.phy_overhead_s + (size_bytes * 8.0) / self.config.bitrate_bps

    def contention_window(self, contenders: int) -> int:
        """Slots in the backoff window for ``contenders`` rivals (capped)."""
        if contenders < 0:
            raise ValueError("contenders must be non-negative")
        stage = min(self.config.max_backoff_stage, max(0, int(contenders).bit_length() - 1))
        return self.config.cw_min << stage

    def transmission_delay(self, size_bytes: int, contenders: int) -> float:
        """Deterministic expected delay: mean backoff of ``(cw - 1) / 2`` slots."""
        cw = self.contention_window(contenders)
        return (
            self.config.base_latency
            + self.config.difs
            + 0.5 * (cw - 1) * self.config.slot_time
            + self.airtime(size_bytes)
        )

    def loss_probability(self, contenders: int) -> float:
        cw = self.contention_window(contenders)
        collision = 1.0 - (1.0 - 1.0 / cw) ** contenders
        return min(1.0, max(0.0, collision))

    # -- per-frame plan ------------------------------------------------
    def plan_transmission(
        self,
        sender: int,
        now: float,
        size_bytes: int,
        contenders: int,
        rng: random.Random,
    ) -> TxPlan:
        airtime = self.airtime(size_bytes)
        if not self._admit(sender, now, airtime):
            self.duty_cycle_denials += 1
            return TxPlan(proceed=False, delay=0.0, loss_probability=1.0, airtime=airtime)
        slots = rng.randrange(self.contention_window(contenders))
        delay = (
            self.config.base_latency
            + self.config.difs
            + slots * self.config.slot_time
            + airtime
        )
        return TxPlan(
            proceed=True,
            delay=delay,
            loss_probability=self.loss_probability(contenders),
            airtime=airtime,
        )

    def _admit(self, sender: int, now: float, airtime: float) -> bool:
        """Charge ``airtime`` against the sender's sliding duty-cycle window.

        Usage is committed at admission time, so for any time ``t`` the
        airtime of frames started within ``(t - window, t]`` never
        exceeds ``duty_cycle * window`` -- the invariant the property
        suite checks over arbitrary windows.
        """
        if self.config.duty_cycle >= 1.0:
            return True
        window = self.config.duty_cycle_window
        ledger = self._usage.setdefault(sender, deque())
        while ledger and ledger[0][0] <= now - window:
            ledger.popleft()
        used = sum(used_airtime for _start, used_airtime in ledger)
        if used + airtime > self.config.duty_cycle * window + 1e-12:
            return False
        ledger.append((now, airtime))
        return True

    def window_usage(self, sender: int, now: float) -> float:
        """Airtime ``sender`` has committed within the trailing window."""
        window = self.config.duty_cycle_window
        return sum(
            airtime
            for start, airtime in self._usage.get(sender, ())
            if start > now - window
        )


# ---------------------------------------------------------------------------
# Registered factories
# ---------------------------------------------------------------------------


@register_radio("sinr")
def _sinr_radio(config=None) -> SinrRadio:
    """Registered factory: SINR/capture radio calibrated to ``config.radio_range``."""
    if config is None:
        return SinrRadio()
    return SinrRadio(config.sinr, range_hint=config.radio_range)


@register_mac("csma_ca")
def _csma_ca_mac(config=None) -> CsmaCaMac:
    """Registered factory: slotted CSMA/CA from the ``csma_ca`` config section."""
    return CsmaCaMac() if config is None else CsmaCaMac(config.csma_ca)
