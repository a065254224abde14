"""Reference oracle: the heap-driven event-loop simulator, kept verbatim.

This is the uplink simulator as it stood before the columnar core in
``hydrolora.sim`` replaced it: one ``TransmissionRecord`` per uplink, a
``heapq`` queue of (time, device) entries, chunked per-device draws and a
pairwise collision loop, plus its CSV exporter and the scalar ADR scan.  The
only edits are the dropped ``EndDeviceState`` fields (index, x, y, period_s)
and the dropped ``force_sf`` and ``battery_sample_s`` parameters (samples are
hourly, and a one-SF ``RadioConfig`` range pins every device's SF).  It seeds
its generators with its own copy of the substream formula, one SeedSequence
per device, not with the vectorised derivation in ``hydrolora.rng``.
Its result types (``EndDeviceState``, ``WirelessFeatures``, ``EnergyReport``)
are its own copies, so the oracle shares no result type with the code under
test.  The differential test in ``test_sim_oracle.py`` requires the shipped
simulator to match it bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hydrolora.errors import NoDevices, NoGateways
from hydrolora.inp import WaterNetwork
from hydrolora.lora import EnergyModel, PropagationModel, RadioConfig, airtime, link_rssi_matrix
from hydrolora.sim import TrafficModel


def substream(*keys) -> np.random.Generator:
    """The substream formula as numpy spells it, kept apart from ``hydrolora.rng``."""
    text = "\x1f".join(str(k) for k in keys)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


def _smallest_feasible_sf(best_rssi_dbm: float, cfg: RadioConfig) -> tuple[int, bool]:
    budget = best_rssi_dbm - cfg.adr_margin_db
    for sf in cfg.sfs():
        if cfg.sensitivity_dbm[sf] <= budget:
            return sf, False
    return cfg.sf_max, True


@dataclass(slots=True)
class EndDeviceState:
    """Final per-device state after a run."""

    id: str
    sf: int
    coverage_marginal: bool
    battery_j: float
    sent: int = 0
    delivered: int = 0
    lost_no_coverage: int = 0
    lost_collision: int = 0
    energy_j: float = 0.0


@dataclass
class WirelessFeatures:
    """Per-device radio figures plus network totals."""

    sf_per_device: np.ndarray
    best_rssi_dbm: np.ndarray
    pdr_per_device: np.ndarray
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

    per_device_j: np.ndarray
    total_j: float
    sample_times_s: np.ndarray
    battery_j: np.ndarray  # shape (devices, samples)


@dataclass(slots=True)
class TransmissionRecord:
    """One uplink attempt and its network-wide outcome."""

    time_s: float
    device_id: str
    device_index: int
    channel_hz: int
    sf: int
    airtime_s: float
    gateway_rssi_dbm: np.ndarray  # shared (K,) view of the static link budget
    outcome: str = ""  # delivered | no_coverage | collided
    best_gw: str = ""  # strongest surviving gateway, empty if none
    best_rssi_dbm: float = math.nan


@dataclass
class ReferenceResult:
    devices: list[EndDeviceState]
    records: list[TransmissionRecord]
    features: WirelessFeatures
    energy: EnergyReport
    link_rssi_dbm: np.ndarray  # (N, K) static received power
    gateway_ids: list[str]
    horizon_s: float
    seed: int
    cfg: RadioConfig
    energy_model: EnergyModel


class _DeviceTraffic:
    """Chunked draws from one device's private substream.

    The call sequence per device is fixed by its own event history, so the
    stream is independent of how events interleave across devices.
    """

    __slots__ = ("rng", "traffic", "n_channels", "_gaps", "_gap_pos", "_channels", "_chan_pos")

    def __init__(self, seed: int, index: int, traffic: TrafficModel, n_channels: int):
        self.rng = substream(seed, "traffic", index)
        self.traffic = traffic
        self.n_channels = n_channels
        self._gaps: list[float] = []
        self._gap_pos = 0
        self._channels: list[int] = []
        self._chan_pos = 0

    def first_start(self) -> float:
        if self.traffic.mode == "periodic":
            if self.traffic.first_offset_s is not None:
                return self.traffic.first_offset_s
            return float(self.rng.uniform(0.0, self.traffic.period_s))
        return self.next_gap()

    def next_gap(self) -> float:
        if self._gap_pos >= len(self._gaps):
            if self.traffic.mode == "poisson":
                gaps = self.rng.exponential(self.traffic.period_s, size=256)
            else:
                jitter = self.traffic.jitter_s
                offsets = self.rng.uniform(-jitter, jitter, size=256) if jitter > 0 else np.zeros(256)
                gaps = np.maximum(self.traffic.period_s + offsets, 0.0)
            self._gaps = gaps.tolist()
            self._gap_pos = 0
        gap = self._gaps[self._gap_pos]
        self._gap_pos += 1
        return gap

    def next_channel(self) -> int:
        if self._chan_pos >= len(self._channels):
            self._channels = self.rng.integers(0, self.n_channels, size=256).tolist()
            self._chan_pos = 0
        channel = self._channels[self._chan_pos]
        self._chan_pos += 1
        return channel


def _assign_sfs(best_rssi: np.ndarray, cfg: RadioConfig) -> tuple[np.ndarray, np.ndarray]:
    sfs = np.empty(len(best_rssi), dtype=np.int64)
    marginal = np.zeros(len(best_rssi), dtype=bool)
    for i, value in enumerate(best_rssi):
        sfs[i], marginal[i] = _smallest_feasible_sf(float(value), cfg)
    return sfs, marginal


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
) -> ReferenceResult:
    """Run one uplink scenario: ADR, traffic event loop, collision resolution.

    ``gateways`` is a GatewaySet or any (K, 2) coordinate sequence.  Identical
    inputs and seed reproduce the transmission stream bit-exactly.  A device
    stops transmitting when its battery cannot afford the next uplink; the
    duty-cycle limit postpones a draw that would start too early.
    """
    positions = getattr(gateways, "positions", gateways)
    gw_xy = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if net.node_count == 0:
        raise NoDevices("network has no nodes to host devices")
    if gw_xy.shape[0] == 0 or gw_xy.size == 0:
        raise NoGateways("need at least one gateway")
    if horizon_s < 0:
        raise ValueError("horizon_s must be nonnegative")

    n = net.node_count
    k = gw_xy.shape[0]
    device_xy = net.coordinates()
    gateway_ids = [f"gw{j:03d}" for j in range(k)]

    shadowing = None
    if propagation.shadowing_sigma_db > 0:
        shadowing = substream(seed, "shadowing").normal(0.0, propagation.shadowing_sigma_db, size=(n, k))
    link_rssi = link_rssi_matrix(device_xy, gw_xy, cfg, propagation, shadowing)

    best_rssi = link_rssi.max(axis=1)
    sfs, marginal = _assign_sfs(best_rssi, cfg)

    airtime_by_sf = {sf: airtime(sf, cfg) for sf in cfg.sfs()}
    energy_by_sf = {sf: energy_model.uplink_energy_j(cfg.tx_power_dbm, airtime_by_sf[sf]) for sf in cfg.sfs()}
    # Duty cycle caps the start-to-start pace at airtime / limit.
    min_gap_by_sf = {sf: airtime_by_sf[sf] / cfg.duty_cycle_limit for sf in cfg.sfs()}

    sens_of = {sf: cfg.sensitivity_dbm[sf] for sf in cfg.sfs()}

    # Per-device fast-path reception facts (static geometry).
    hearable = link_rssi >= np.array([sens_of[sf] for sf in sfs])[:, None]
    hear_any = hearable.any(axis=1)
    masked = np.where(hearable, link_rssi, -np.inf)
    best_hear_gw = masked.argmax(axis=1)

    devices = [
        EndDeviceState(
            id=node.id, sf=int(sfs[i]), coverage_marginal=bool(marginal[i]),
            battery_j=energy_model.initial_battery_j,
        )
        for i, node in enumerate(net.nodes)
    ]

    # Event loop: one (time, device) entry per pending transmission.
    streams = [_DeviceTraffic(seed, i, traffic, len(cfg.channels_hz)) for i in range(n)]
    max_sends = [int(energy_model.initial_battery_j // energy_by_sf[int(sfs[i])]) for i in range(n)]
    records: list[TransmissionRecord] = []
    tx_times: list[list[float]] = [[] for _ in range(n)]

    heap: list[tuple[float, int]] = []
    if horizon_s > 0:
        for i in range(n):
            start = streams[i].first_start()
            if start < horizon_s and max_sends[i] > 0:
                heapq.heappush(heap, (start, i))

    while heap:
        t, i = heapq.heappop(heap)
        stream = streams[i]
        channel = int(cfg.channels_hz[stream.next_channel()])
        dev = devices[i]
        dev.sent += 1
        tx_times[i].append(t)
        duration = airtime_by_sf[dev.sf]
        records.append(
            TransmissionRecord(
                time_s=t, device_id=dev.id, device_index=i, channel_hz=channel,
                sf=dev.sf, airtime_s=duration, gateway_rssi_dbm=link_rssi[i],
            )
        )
        if dev.sent >= max_sends[i]:
            continue  # battery cannot afford another uplink
        next_t = max(t + stream.next_gap(), t + min_gap_by_sf[dev.sf])
        if next_t < horizon_s:
            heapq.heappush(heap, (next_t, i))

    _resolve_outcomes(records, link_rssi, hear_any, best_hear_gw, sens_of, gateway_ids,
                      cfg.capture_threshold_db, devices)

    # Energy: per-device count times constant per-uplink cost, exact.
    per_device_j = np.array([devices[i].sent * energy_by_sf[devices[i].sf] for i in range(n)])
    for i in range(n):
        devices[i].energy_j = float(per_device_j[i])
        devices[i].battery_j = energy_model.initial_battery_j - devices[i].energy_j

    battery_sample_s = 3600.0
    sample_times = np.arange(0.0, horizon_s + battery_sample_s / 2, battery_sample_s)
    if len(sample_times) == 0:
        sample_times = np.array([0.0])
    battery = np.empty((n, len(sample_times)))
    for i in range(n):
        counts = np.searchsorted(np.asarray(tx_times[i]), sample_times, side="right")
        battery[i] = energy_model.initial_battery_j - counts * energy_by_sf[devices[i].sf]

    features = _collect_features(devices, sfs, best_rssi, cfg)
    total_j = sum(float(v) for v in per_device_j)
    energy = EnergyReport(per_device_j=per_device_j, total_j=total_j,
                          sample_times_s=sample_times, battery_j=battery)
    return ReferenceResult(
        devices=devices, records=records, features=features, energy=energy,
        link_rssi_dbm=link_rssi, gateway_ids=gateway_ids, horizon_s=horizon_s,
        seed=seed, cfg=cfg, energy_model=energy_model,
    )


def _resolve_outcomes(records, link_rssi, hear_any, best_hear_gw, sens_of, gateway_ids,
                      capture_db, devices) -> None:
    """Classify every transmission as delivered, no_coverage, or collided.

    Overlap windows are half-open [start, start + airtime): copies whose
    intervals merely touch do not interfere.  For each record the strongest
    overlapping same-channel same-SF interferer per gateway is tracked; a
    copy survives where it beats that maximum by the capture threshold.
    """
    interference: dict[int, np.ndarray] = {}
    active: dict[tuple[int, int], list[tuple[float, int]]] = {}

    for pos, rec in enumerate(records):  # records are in start-time order
        key = (rec.channel_hz, rec.sf)
        group = active.setdefault(key, [])
        group[:] = [(end, other) for end, other in group if end > rec.time_s]
        for _end, other in group:
            other_rec = records[other]
            row_self = link_rssi[rec.device_index]
            row_other = link_rssi[other_rec.device_index]
            for a, b_row in ((pos, row_other), (other, row_self)):
                existing = interference.get(a)
                if existing is None:
                    interference[a] = b_row.copy()
                else:
                    np.maximum(existing, b_row, out=existing)
        group.append((rec.time_s + rec.airtime_s, pos))

    for pos, rec in enumerate(records):
        i = rec.device_index
        row = link_rssi[i]
        rec.best_rssi_dbm = float(row.max())
        dev = devices[i]
        if not hear_any[i]:
            rec.outcome = "no_coverage"
            dev.lost_no_coverage += 1
            continue
        strongest = interference.get(pos)
        if strongest is None:
            rec.outcome = "delivered"
            rec.best_gw = gateway_ids[int(best_hear_gw[i])]
            dev.delivered += 1
            continue
        surviving = (row >= sens_of[rec.sf]) & (row >= strongest + capture_db)
        if surviving.any():
            rec.outcome = "delivered"
            rec.best_gw = gateway_ids[int(np.where(surviving, row, -np.inf).argmax())]
            dev.delivered += 1
        else:
            rec.outcome = "collided"
            dev.lost_collision += 1


def _collect_features(devices, sfs, best_rssi, cfg: RadioConfig) -> WirelessFeatures:
    sent = sum(d.sent for d in devices)
    delivered = sum(d.delivered for d in devices)
    lost_nc = sum(d.lost_no_coverage for d in devices)
    lost_col = sum(d.lost_collision for d in devices)
    pdr_per_device = np.array([d.delivered / d.sent if d.sent else math.nan for d in devices])
    histogram = {sf: int((sfs == sf).sum()) for sf in cfg.sfs()}
    return WirelessFeatures(
        sf_per_device=sfs.copy(), best_rssi_dbm=best_rssi.copy(), pdr_per_device=pdr_per_device,
        sf_histogram=histogram, sent=sent, delivered=delivered,
        lost_no_coverage=lost_nc, lost_collision=lost_col,
        pdr=delivered / sent if sent else math.nan,
        mean_sf=float(sfs.mean()),
    )


def _fmt(value) -> str:
    return repr(float(value))


def export_wireless_csv(result: ReferenceResult, outdir) -> dict[str, Path]:
    """Write the wireless result CSVs under ``outdir``.

    transmissions.csv: time_s,device_id,channel_hz,sf,airtime_s,best_gw,best_rssi_dbm,outcome
    energy.csv:        device_id,sent,delivered,lost_no_coverage,lost_collision,energy_j,battery_end_j
    battery.csv:       time_s,device_id,battery_j   (hourly samples)

    Row order is deterministic: transmissions by (time, device id), energy by
    device order, battery time-major.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {name: outdir / f"{name}.csv" for name in ("transmissions", "energy", "battery")}

    with open(paths["transmissions"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "device_id", "channel_hz", "sf", "airtime_s",
                         "best_gw", "best_rssi_dbm", "outcome"])
        for rec in sorted(result.records, key=lambda r: (r.time_s, r.device_id)):
            writer.writerow([_fmt(rec.time_s), rec.device_id, rec.channel_hz, rec.sf,
                             _fmt(rec.airtime_s), rec.best_gw, _fmt(rec.best_rssi_dbm), rec.outcome])

    with open(paths["energy"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["device_id", "sent", "delivered", "lost_no_coverage",
                         "lost_collision", "energy_j", "battery_end_j"])
        for dev in result.devices:
            writer.writerow([dev.id, dev.sent, dev.delivered, dev.lost_no_coverage,
                             dev.lost_collision, _fmt(dev.energy_j), _fmt(dev.battery_j)])

    with open(paths["battery"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "device_id", "battery_j"])
        for t_idx, t in enumerate(result.energy.sample_times_s):
            for i, dev in enumerate(result.devices):
                writer.writerow([_fmt(t), dev.id, _fmt(result.energy.battery_j[i, t_idx])])

    return paths
