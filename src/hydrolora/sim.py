"""Deterministic, columnar simulation of a LoRaWAN uplink network.

One end device sits at every water-network node; gateways sit wherever the
placement strategy put them.  SFs are assigned once by ADR before traffic
starts (steady-state view).  No device reacts to another (no ACKs, no
retransmissions), so every stage works on whole arrays.

Traffic: each device consumes its own substream of the master seed in blocks
of 256 draws.  Poisson traffic alternates ``exponential(256)`` gaps with
``integers(256)`` channel picks.  Periodic traffic draws a ``uniform`` phase
(unless ``first_offset_s`` fixes it), then alternates ``integers(256)`` with
the jitter draws, made only when ``jitter_s > 0``.  Start times are one
sequential cumulative sum of ``max(gap, airtime / duty_cycle_limit)`` (the
first start is not floored), exactly ``max(t + gap, t + floor)`` per uplink
since rounding is monotone.  A device stops at the horizon or when its
battery cannot afford another uplink, and draws more blocks while it can go on.
Devices are walked ``_DEVICES_PER_BLOCK`` at a time, each block through all
of its rounds, so the round arrays stay that many rows tall.

Reception model, first order: a gateway hears a copy of an uplink iff the
static link RSSI clears the SF sensitivity.  Uplinks are ordered by start
time, then device index; an earlier uplink a and a later uplink b overlap iff
they share channel and SF (different SFs are orthogonal) and
``time_b < time_a + airtime`` (half-open windows).  At each of its device's
hearable gateways an overlapped copy survives iff it beats the strongest
overlapping copy there by the capture threshold.  A packet is delivered if
any gateway keeps a copy; its best gateway is the strongest one that does.

Energy is transmit-only: each uplink costs V * I * airtime.  Per-device
energy is count * cost (the cost is constant per device once ADR fixed the
SF), which keeps the closed-form energy identity exact.

Determinism: traffic and shadowing draws come from purpose-keyed substreams
of the master seed, one per device, so results are bit-identical for equal
inputs and independent of gateway layout.

Traffic store: a device's uplinks depend only on the seed, the traffic model,
the channel count, the horizon and the device's duty-cycle floor and battery
cap (both functions of its SF), never on the gateways.  A ``TrafficStore``
keeps what ``_traffic`` drew for each device under exactly those inputs, and
the ``repr`` of each start time once an export has written it, so the runs
of a sweep that share a seed draw and format each (device, SF) once.
``simulate`` without a store uses a private one: there is one traffic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csvio import floats, text, write_csv
from .errors import NoDevices, NoGateways
from .inp import WaterNetwork
from .lora import EnergyModel, PropagationModel, RadioConfig, airtime, assign_sfs, link_rssi_matrix
from .rng import substream, substream_states

ROUND = 256  # draws per block: the unit in which a device consumes its substream
_DEVICES_PER_BLOCK = 256  # devices whose rounds are drawn at a time, which bounds the memory of the round arrays
OUTCOMES = ("delivered", "no_coverage", "collided")
BATTERY_SAMPLE_S = 3600.0  # battery.csv is hourly


@dataclass(frozen=True)
class TrafficModel:
    """Uplink traffic pattern of every device.

    ``poisson`` draws exponential inter-arrival times with the given mean.
    ``periodic`` transmits every period plus uniform jitter in
    [-jitter_s, +jitter_s], starting at ``first_offset_s`` (a uniform random
    phase in [0, period) when None).
    """

    mode: str = "poisson"
    period_s: float = 300.0
    jitter_s: float = 0.0
    first_offset_s: float | None = None

    def __post_init__(self):
        if self.mode not in ("poisson", "periodic"):
            raise ValueError(f"unknown traffic mode {self.mode!r}")
        if not 0 < self.period_s < math.inf:
            raise ValueError("period_s must be finite and positive")
        if not 0 <= self.jitter_s < math.inf:
            raise ValueError("jitter_s must be finite and nonnegative")
        if self.first_offset_s is not None and not 0 <= self.first_offset_s < math.inf:
            raise ValueError("first_offset_s must be finite and nonnegative")


def _per_device(field: str) -> property:
    """The column ``field`` of the run's device table, read for every uplink."""
    return property(lambda self: self.devices[field][self.device_index])


@dataclass(frozen=True)
class Transmissions:
    """Every uplink attempt of a run as columns, in start order (time, then
    device index), storing only what differs per uplink: ``channel_index``
    indexes ``channels_hz``, ``outcome_code`` OUTCOMES, ``best_gw_index``
    the strongest gateway that kept a copy (-1: none did), and ``store_row``
    the uplink's row in ``store``, which holds its formatted start time.
    ``device_id``, ``sf``, ``airtime_s`` and ``best_rssi_dbm`` are read from
    ``devices``."""

    time_s: np.ndarray
    device_index: np.ndarray
    channel_index: np.ndarray
    outcome_code: np.ndarray
    best_gw_index: np.ndarray
    store_row: np.ndarray
    devices: np.recarray  # the run's device table, SimulationResult.devices
    channels_hz: np.ndarray  # int64
    gateway_ids: tuple[str, ...]
    store: TrafficStore

    device_id, sf, airtime_s, best_rssi_dbm = map(_per_device, ("id", "sf", "airtime_s", "best_rssi_dbm"))

    def __len__(self) -> int:
        return len(self.time_s)

    @property
    def channel_hz(self) -> np.ndarray:
        return self.channels_hz[self.channel_index]

    @property
    def outcome(self) -> np.ndarray:
        return np.array(OUTCOMES)[self.outcome_code]

    @property
    def best_gw(self) -> np.ndarray:
        return np.array([*self.gateway_ids, ""])[self.best_gw_index]


@dataclass
class WirelessFeatures:
    """Network totals, plus every device's SF as the view ``devices.sf``."""

    sf_per_device: np.ndarray
    sf_histogram: dict[int, int]
    sent: int
    delivered: int
    lost_no_coverage: int
    lost_collision: int
    pdr: float
    mean_sf: float


@dataclass
class EnergyReport:
    """Joules consumed over the horizon plus sampled battery trajectories."""

    total_j: float
    sample_times_s: np.ndarray
    battery_j: np.ndarray  # shape (devices, samples)


@dataclass
class SimulationResult:
    """One run.  ``devices`` is a record array, one row per device in network
    node order, with the fields ``id``, ``sf``, ``airtime_s``,
    ``coverage_marginal``, ``best_rssi_dbm``, ``sent``, ``delivered``,
    ``lost_no_coverage``, ``lost_collision``, ``energy_j`` and ``battery_j``
    (left at the end), each stored only there; ``records`` reads them from it."""

    devices: np.recarray
    records: Transmissions
    features: WirelessFeatures
    energy: EnergyReport
    link_rssi_dbm: np.ndarray  # (N, K) static received power


def _traffic(seed: int, traffic: TrafficModel, n_channels: int, min_gap: np.ndarray,
             max_sends: np.ndarray, horizon_s: float):
    """Start times, device indices and channel picks of every uplink, in no particular
    order.  Devices are walked ``_DEVICES_PER_BLOCK`` at a time; each round of a block
    draws one row per still-active device, in the documented order."""
    n = len(min_gap)
    periodic = traffic.mode == "periodic"
    active = np.flatnonzero(max_sends > 0)
    if horizon_s == 0 or not active.size:  # nothing to send: derive no substream state
        return np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # One generator draws every row: each device's substream state is swapped
    # in before its row and read back after, so later rounds resume it exactly.
    rng = np.random.Generator(np.random.PCG64(0))
    sent = np.zeros(n, dtype=np.int64)
    last = np.zeros(n)  # start of each device's latest uplink
    # Periodic: the gap the next round starts with; the first round starts at the phase.
    pending = np.full(n, 0.0 if traffic.first_offset_s is None else traffic.first_offset_s)
    # Start times, device indices and channel picks, filled up to ``size``.  Each is
    # regrown to twice what it must hold, one column at a time; the pages past
    # ``size`` are never written, so they are never resident.
    columns, size = [np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)], 0
    for lo in range(0, active.size, _DEVICES_PER_BLOCK):
        block = active[lo:lo + _DEVICES_PER_BLOCK]
        states = dict(zip(block.tolist(), substream_states(seed, "traffic", last=block.tolist())))
        first = True
        while block.size:
            gaps = np.zeros((block.size, ROUND))
            picks = np.empty((block.size, ROUND), dtype=np.int64)
            for row, i in enumerate(block.tolist()):
                rng.bit_generator.state = states[i]
                if not periodic:
                    gaps[row] = rng.exponential(traffic.period_s, size=ROUND)
                elif first and traffic.first_offset_s is None:
                    pending[i] = rng.uniform(0.0, traffic.period_s)
                picks[row] = rng.integers(0, n_channels, size=ROUND)
                if periodic and traffic.jitter_s > 0:
                    gaps[row] = rng.uniform(-traffic.jitter_s, traffic.jitter_s, size=ROUND)
                states[i] = rng.bit_generator.state
            if periodic:
                # Uplink s waits for the gap drawn after uplink s - 1: shift by one.
                drawn = np.maximum(traffic.period_s + gaps, 0.0)
                gaps[:, 0] = pending[block]
                gaps[:, 1:] = drawn[:, :-1]
                pending[block] = drawn[:, -1]
            steps = np.maximum(gaps, min_gap[block, None])
            if first:
                steps[:, 0] = gaps[:, 0]  # the first start is not floored
            else:
                steps = np.hstack([last[block, None], steps])
            times = np.cumsum(steps, axis=1)[:, -ROUND:]

            count = np.minimum((times < horizon_s).sum(axis=1), max_sends[block] - sent[block])
            take = np.arange(ROUND) < count[:, None]
            end = size + int(count.sum())
            if end > len(columns[0]):
                for c, column in enumerate(columns):
                    columns[c] = np.empty(2 * end, dtype=column.dtype)
                    columns[c][:size] = column[:size]
            for column, part in zip(columns, (times[take], np.repeat(block, count), picks[take])):
                column[size:end] = part
            size = end
            sent[block] += count
            last[block] = times[:, -1]
            block = block[(count == ROUND) & (sent[block] < max_sends[block])]
            first = False
    for column in columns:
        column.resize(size, refcheck=False)
    return tuple(columns)


class TrafficStore:
    """The uplinks ``_traffic`` drew for each device, kept for later runs.

    A store serves one seed, traffic model, channel count, horizon and device
    count; using it with others raises ValueError.  Within it a device's
    uplinks are keyed by its duty-cycle floor and battery cap, the only
    per-device inputs of ``_traffic``, so a device whose SF changes is drawn
    again.  The uplinks of one draw are appended device by device: start
    times (float64), channel picks (the smallest integer type) and, filled
    the first time an export writes them, the ``repr`` of each start time as
    bytes.  An uplink costs 9 bytes, plus the width of the longest formatted
    start time once exported (18 bytes in a 1 h or a 24 h sweep).
    """

    def __init__(self):
        self._inputs = None  # (seed, traffic, channel count, horizon, device count) served
        self._variants: dict[tuple[float, int], int] = {}  # (floor, cap) -> row of the tables below
        self._first = self._count = None  # [variant, device]: first uplink (-1: not drawn), uplinks drawn
        self._time_s = np.zeros(0)
        self._pick = None
        self._text = np.zeros(0, dtype="S1")  # b"" until formatted

    def __len__(self) -> int:
        return len(self._time_s)

    def uplinks(self, seed: int, traffic: TrafficModel, n_channels: int, min_gap: np.ndarray,
                max_sends: np.ndarray, horizon_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Store rows and device indices of the uplinks of
        ``_traffic(seed, traffic, n_channels, min_gap, max_sends, horizon_s)``,
        device by device; only devices not stored under their (floor, cap) are drawn."""
        n = len(min_gap)
        inputs = (seed, traffic, n_channels, horizon_s, n)
        if self._inputs is None:
            self._inputs = inputs
            self._first = np.zeros((0, n), dtype=np.int64)
            self._count = np.zeros((0, n), dtype=np.int64)
            self._pick = np.zeros(0, dtype=np.min_scalar_type(n_channels - 1))
        elif inputs != self._inputs:
            raise ValueError(f"this traffic store holds (seed, traffic, channels, horizon_s, devices) = "
                             f"{self._inputs}, not {inputs}")
        pairs, variant = np.unique(np.rec.fromarrays([min_gap, max_sends]), return_inverse=True)
        variant = np.array([self._variants.setdefault(pair, len(self._variants))
                            for pair in pairs.tolist()])[variant]
        if len(self._variants) > len(self._first):  # new rows: nothing drawn yet
            grow = len(self._variants) - len(self._first)
            self._first = np.vstack([self._first, np.full((grow, n), -1, dtype=np.int64)])
            self._count = np.vstack([self._count, np.zeros((grow, n), dtype=np.int64)])
        cell = (variant, np.arange(n))
        first, count = self._first[cell], self._count[cell]

        miss = first < 0
        time_s, device, pick = _traffic(seed, traffic, n_channels, min_gap, np.where(miss, max_sends, 0),
                                        horizon_s)
        size, drawn = len(self), np.bincount(device, minlength=n)
        by_device = np.argsort(device, kind="stable")
        del device
        # Grown in place, which realloc can do without a second copy.  No view
        # of a column leaves the store (its reads are copies), so the
        # reference count check, which a profiler's reference trips, is off.
        self._time_s.resize(size + len(by_device), refcheck=False)
        self._time_s[size:] = time_s[by_device]
        del time_s
        self._pick.resize(size + len(by_device), refcheck=False)
        self._pick[size:] = pick[by_device]
        del pick, by_device
        first[miss] = size + (np.cumsum(drawn) - drawn)[miss]
        count[miss] = drawn[miss]
        self._first[cell], self._count[cell] = first, count

        # Rows first[d] .. first[d] + count[d] - 1 of each device d in turn.
        row = np.repeat(first - (np.cumsum(count) - count), count)
        row += np.arange(len(row))
        return row, np.repeat(np.arange(n), count)

    def time_s(self, rows: np.ndarray) -> np.ndarray:
        """Start times of the uplinks at ``rows``, a copy."""
        return self._time_s.take(rows)

    def pick(self, rows: np.ndarray) -> np.ndarray:
        """Channel picks of the uplinks at ``rows``, a copy."""
        return self._pick.take(rows)

    def start_text(self, rows: np.ndarray):
        """The csvio column of the ``repr`` of the start times at ``rows``."""
        return self._start_fields, rows

    def _start_fields(self, rows: np.ndarray) -> list[str]:
        """The ``repr`` of the start times at ``rows``, formatting those no
        export has written yet."""
        if len(self._text) < len(self):
            self._text.resize(len(self), refcheck=False)
        new = rows[self._text[rows] == b""]
        if new.size:
            text = np.array(list(map(repr, self._time_s[new].tolist())), dtype=np.bytes_)
            if text.itemsize > self._text.itemsize:
                self._text = self._text.astype(text.dtype)
            self._text[new] = text
        return list(map(bytes.decode, self._text[rows].tolist()))


def _unique_below(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of integers in [0, size), found
    by marking and ranking them in one size-long array instead of by sorting."""
    rank = np.zeros(size, dtype=np.intp)
    rank[values] = 1
    distinct = np.flatnonzero(rank)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[values]


def _outcomes(time_s, device, group, group_airtime_s, link_rssi, hearable, capture_db):
    """Outcome code and best gateway index of every uplink, given in start order;
    ``group`` numbers each uplink's (channel, SF) group, and ``group_airtime_s``
    holds each group's airtime.

    Overlap: within a group the airtime is constant, so an uplink's partners
    are its nearest predecessors in the group; sweep offsets d = 1, 2, ...
    over the uplinks that still overlapped at d - 1.  Capture is resolved
    only for overlapped uplinks of covered devices, at their hearable
    gateways, strongest first: the first gateway where the copy beats every
    partner by the threshold is the strongest surviving one.  An uncontested
    copy of a covered device goes to its strongest gateway: hearability is a
    per-device RSSI threshold, so that gateway clears it whenever any does.
    """
    by_group = np.argsort(group, kind="stable")
    g, t = group[by_group], time_s[by_group]
    end = group_airtime_s[g]
    end += t
    later_parts, earlier_parts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    later, d = np.flatnonzero((g[1:] == g[:-1]) & (t[1:] < end[:-1])) + 1, 1  # d = 1 over slices
    while later.size:
        later_parts.append(by_group[later])
        earlier_parts.append(by_group[later - d])
        later, d = later[later > d], d + 1
        later = later[(g[later] == g[later - d]) & (t[later] < end[later - d])]
    del by_group, g, t, end
    receiver = np.concatenate(later_parts + earlier_parts)
    interferer = np.concatenate(earlier_parts + later_parts)
    del later_parts, earlier_parts

    hear_any = hearable.any(axis=1)
    outcome = np.where(hear_any, 0, 1).astype(np.int8)[device]  # delivered, else no_coverage
    best_gw = np.where(hear_any, link_rssi.argmax(axis=1), -1)[device]
    covered = hear_any[device[receiver]]
    contested, slot = _unique_below(receiver[covered], len(device))
    interferer = device[interferer[covered]]
    del receiver, covered
    outcome[contested], best_gw[contested] = OUTCOMES.index("collided"), -1

    # Hearable gateways of each device with a contested uplink, strongest first;
    # stable, so equals keep index order.
    contenders, contender = _unique_below(device[contested], len(hearable))
    hear_dev, hear_gw = np.nonzero(hearable[contenders])
    hear_gw = hear_gw[np.lexsort((-link_rssi[contenders[hear_dev], hear_gw], hear_dev))]
    first_gw = np.searchsorted(hear_dev, np.arange(len(contenders) + 1))
    # A contested uplink tries the gateways hear_gw[at:at + tries] in turn.
    at, tries = first_gw[contender], np.diff(first_gw)[contender]
    del contender
    undecided, rank = np.arange(len(contested)), 0
    gw_of = np.zeros(len(contested), dtype=np.int64)
    while undecided.size:
        gw_of[undecided] = hear_gw[at[undecided] + rank]
        strongest = np.full(len(contested), -np.inf)
        np.maximum.at(strongest, slot, link_rssi[interferer, gw_of[slot]])
        own = link_rssi[device[contested[undecided]], gw_of[undecided]]
        won = own >= strongest[undecided] + capture_db
        outcome[contested[undecided[won]]] = OUTCOMES.index("delivered")
        best_gw[contested[undecided[won]]] = gw_of[undecided[won]]
        rank += 1
        undecided = undecided[~won & (tries[undecided] > rank)]
        keep = np.isin(slot, undecided, kind="table")  # its sorting path imports numpy.ma (15 ms)
        slot, interferer = slot[keep], interferer[keep]
    return outcome, best_gw


def simulate(
    net: WaterNetwork,
    gateways,
    cfg: RadioConfig = RadioConfig(),
    energy_model: EnergyModel = EnergyModel(),
    horizon_s: float = 86_400.0,
    seed: int = 0,
    *,
    propagation: PropagationModel = PropagationModel(),
    traffic: TrafficModel = TrafficModel(),
    store: TrafficStore | None = None,
) -> SimulationResult:
    """Run one uplink scenario: ADR, traffic, overlap and capture, energy.

    ``gateways`` is a GatewaySet or any (K, 2) coordinate sequence.  Identical
    inputs and seed reproduce the transmission stream bit-exactly.  A device
    stops transmitting when its battery cannot afford the next uplink; the
    duty-cycle limit postpones a draw that would start too early.  ADR picks
    each SF inside ``cfg``'s SF range, so ``sf_min == sf_max`` pins every
    device to one SF.  Battery levels are sampled hourly from time 0.
    ``store`` keeps each device's uplinks for later runs of the same seed,
    traffic model, channels and horizon (see ``TrafficStore``); the result
    is the same with or without one.
    """
    positions = getattr(gateways, "positions", gateways)
    gw_xy = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if net.node_count == 0:
        raise NoDevices("network has no nodes to host devices")
    if gw_xy.shape[0] == 0 or gw_xy.size == 0:
        raise NoGateways("need at least one gateway")
    if gw_xy.ndim != 2 or gw_xy.shape[1] != 2 or not np.isfinite(gw_xy).all():
        raise NoGateways(f"gateways must be finite (K, 2) coordinates, got an array of shape {gw_xy.shape}")
    if not 0 <= horizon_s < math.inf:
        raise ValueError("horizon_s must be finite and nonnegative")

    n, k = net.node_count, len(gw_xy)

    shadowing = None
    if propagation.shadowing_sigma_db > 0:
        shadowing = substream(seed, "shadowing").normal(0.0, propagation.shadowing_sigma_db, size=(n, k))
    link_rssi = link_rssi_matrix(net.coordinates(), gw_xy, cfg, propagation, shadowing)

    best_rssi = link_rssi.max(axis=1)
    sfs, marginal = assign_sfs(best_rssi, cfg)

    # Per-SF tables, indexed by sf - sf_min, then per device.
    airtimes = [airtime(sf, cfg) for sf in cfg.sfs()]
    energies = [energy_model.uplink_energy_j(cfg.tx_power_dbm, a) for a in airtimes]
    # Uplinks the battery affords, as Python float floor division.
    sends_by_sf = [min(int(energy_model.initial_battery_j // e), np.iinfo(np.int64).max) for e in energies]
    sf_slot = sfs - cfg.sf_min
    airtime_s = np.array(airtimes)[sf_slot]
    uplink_j = np.array(energies)[sf_slot]
    max_sends = np.array(sends_by_sf, dtype=np.int64)[sf_slot]
    # Duty cycle caps the start-to-start pace at airtime / limit.
    min_gap = airtime_s / cfg.duty_cycle_limit
    sensitivity = np.array([cfg.sensitivity_dbm[sf] for sf in cfg.sfs()])[sf_slot]

    store = TrafficStore() if store is None else store
    row, device = store.uplinks(seed, traffic, len(cfg.channels_hz), min_gap, max_sends, horizon_s)
    time_s = store.time_s(row)
    row = row.astype(np.min_scalar_type(len(store)))
    # Start order, one column at a time, so that at most one column is held twice.
    order = np.lexsort((device, time_s))
    time_s = time_s[order]
    device = device[order]
    row = row[order]
    del order
    pick = store.pick(row)
    # (channel, SF) group numbers in the smallest integer type that holds them.
    group = pick.astype(np.min_scalar_type(len(cfg.channels_hz) * len(airtimes) - 1))
    group *= len(airtimes)
    group += sf_slot.astype(group.dtype)[device]
    outcome, best_gw = _outcomes(time_s, device, group, np.tile(airtimes, len(cfg.channels_hz)), link_rssi,
                                 link_rssi >= sensitivity[:, None], cfg.capture_threshold_db)

    sent = np.bincount(device, minlength=n)
    counts = [np.bincount(device[outcome == code], minlength=n) for code in range(len(OUTCOMES))]
    # Energy: per-device count times constant per-uplink cost, exact.
    energy_j = sent * uplink_j
    devices = np.rec.fromarrays(
        [net.nodes.id, sfs, airtime_s, marginal, best_rssi, sent, *counts,
         energy_j, energy_model.initial_battery_j - energy_j],
        names="id,sf,airtime_s,coverage_marginal,best_rssi_dbm,sent,delivered,lost_no_coverage,lost_collision,"
              "energy_j,battery_j")
    records = Transmissions(
        time_s=time_s, device_index=device, channel_index=pick, outcome_code=outcome, best_gw_index=best_gw,
        store_row=row, devices=devices, channels_hz=np.asarray(cfg.channels_hz, dtype=np.int64),
        gateway_ids=tuple(f"gw{j:03d}" for j in range(k)), store=store,
    )

    sample_times = np.arange(0.0, horizon_s + BATTERY_SAMPLE_S / 2, BATTERY_SAMPLE_S)
    # An uplink drains the battery from the first sample at or after its start.
    slot = np.searchsorted(sample_times, time_s, side="left")
    width = len(sample_times) + 1
    slot += device * width
    drained = np.bincount(slot, minlength=n * width).reshape(n, width).cumsum(axis=1)
    battery = energy_model.initial_battery_j - drained[:, :-1] * uplink_j[:, None]

    delivered, lost_nc, lost_col = (int(c.sum()) for c in counts)
    features = WirelessFeatures(
        sf_per_device=devices.sf, sf_histogram={sf: int((sfs == sf).sum()) for sf in cfg.sfs()},
        sent=len(time_s), delivered=delivered, lost_no_coverage=lost_nc, lost_collision=lost_col,
        pdr=delivered / len(time_s) if len(time_s) else math.nan, mean_sf=float(sfs.mean()),
    )
    energy = EnergyReport(total_j=sum(energy_j.tolist()), sample_times_s=sample_times, battery_j=battery)
    return SimulationResult(devices=devices, records=records, features=features, energy=energy,
                            link_rssi_dbm=link_rssi)


def export_wireless_csv(result: SimulationResult, outdir) -> dict[str, Path]:
    """Write the wireless result CSVs under ``outdir``.

    transmissions.csv: time_s,device_id,channel_hz,sf,airtime_s,best_gw,best_rssi_dbm,outcome
    energy.csv:        device_id,sent,delivered,lost_no_coverage,lost_collision,energy_j,battery_end_j
    battery.csv:       time_s,device_id,battery_j   (hourly samples)

    Row order is deterministic: transmissions by (time, device id), energy by
    device order, battery time-major.  Numbers are written as ``repr``.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {name: outdir / f"{name}.csv" for name in ("transmissions", "energy", "battery")}
    devices, recs = result.devices, result.records
    ids = devices.id.tolist()
    id_fields, every_device = text(ids)

    id_rank = np.empty(len(ids), dtype=np.int64)
    id_rank[sorted(every_device.tolist(), key=ids.__getitem__)] = every_device
    order = slice(None)  # start order is already export order unless two uplinks start at once
    if not (recs.time_s[1:] > recs.time_s[:-1]).all():
        order = np.lexsort((id_rank[recs.device_index], recs.time_s))
    device = recs.device_index[order]
    write_csv(paths["transmissions"], "time_s,device_id,channel_hz,sf,airtime_s,best_gw,best_rssi_dbm,outcome", [
        recs.store.start_text(recs.store_row[order]), (id_fields, device),
        text(recs.channels_hz.tolist(), recs.channel_index[order]),
        text(devices.sf.tolist(), device), text(devices.airtime_s.tolist(), device),
        text([*recs.gateway_ids, ""], recs.best_gw_index[order]),
        text(devices.best_rssi_dbm.tolist(), device), text(OUTCOMES, recs.outcome_code[order]),
    ])
    fields = ("sent", "delivered", "lost_no_coverage", "lost_collision", "energy_j", "battery_j")
    write_csv(paths["energy"], "device_id,sent,delivered,lost_no_coverage,lost_collision,energy_j,battery_end_j",
              [(id_fields, every_device)] + [(None, devices[field]) for field in fields])
    samples = len(result.energy.sample_times_s)
    write_csv(paths["battery"], "time_s,device_id,battery_j", [
        text(result.energy.sample_times_s.tolist(), np.repeat(np.arange(samples), len(ids))),
        (id_fields, np.tile(every_device, samples)), floats(result.energy.battery_j.T.ravel()),
    ])
    return paths
