"""LoRa radio primitives: configuration, time on air, link budget, ADR.

All radio numbers (sensitivities, margins, capture threshold, propagation
defaults) are widely used reference values and every one is overridable
through the config objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSf
from .placement import _sq_dist

# Typical 125 kHz sensitivities per SF.
DEFAULT_SENSITIVITY_DBM = {7: -123.0, 8: -126.0, 9: -129.0, 10: -132.0, 11: -134.5, 12: -137.0}

# EU868 default uplink channels.
DEFAULT_CHANNELS_HZ = (868_100_000, 868_300_000, 868_500_000)


@dataclass(frozen=True)
class RadioConfig:
    """Uplink radio parameters shared by every device in a run."""

    sf_min: int = 7
    sf_max: int = 12
    bandwidth_hz: int = 125_000
    coding_rate_denominator: int = 1  # 1..4 meaning 4/5..4/8
    preamble_symbols: int = 8
    explicit_header: bool = True
    payload_bytes: int = 20
    tx_power_dbm: float = 14.0
    channels_hz: tuple[int, ...] = DEFAULT_CHANNELS_HZ
    duty_cycle_limit: float = 0.01
    sensitivity_dbm: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_SENSITIVITY_DBM))
    adr_margin_db: float = 10.0
    capture_threshold_db: float = 6.0

    def __post_init__(self):
        if not (7 <= self.sf_min <= self.sf_max <= 12):
            raise ValueError(f"SF range must sit inside 7..12, got {self.sf_min}..{self.sf_max}")
        if self.bandwidth_hz <= 0 or self.preamble_symbols < 0:
            raise ValueError("bandwidth_hz must be positive and preamble_symbols nonnegative")
        if not 1 <= self.payload_bytes <= 222:
            raise ValueError(f"payload_bytes must be in [1, 222], got {self.payload_bytes}")
        if self.coding_rate_denominator not in (1, 2, 3, 4):
            raise ValueError("coding_rate_denominator must be 1..4 (4/5..4/8)")
        if not 0.0 < self.duty_cycle_limit <= 1.0:
            raise ValueError("duty_cycle_limit must be in (0, 1]")
        if not self.channels_hz:
            raise ValueError("at least one channel required")
        if any(hz <= 0 for hz in self.channels_hz):
            raise ValueError(f"every channels_hz entry must be positive, got {list(self.channels_hz)}")
        for name in ("tx_power_dbm", "adr_margin_db", "capture_threshold_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for sf in self.sfs():
            if not math.isfinite(self.sensitivity_dbm.get(sf, math.nan)):
                raise ValueError(f"sensitivity_dbm needs a finite entry for SF{sf}")
        values = [self.sensitivity_dbm[sf] for sf in self.sfs()]
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ValueError("sensitivity_dbm must strictly decrease with SF")

    def sfs(self) -> range:
        return range(self.sf_min, self.sf_max + 1)


@dataclass(frozen=True)
class EnergyModel:
    """Transmit-only energy accounting: E = V * I * airtime per uplink.

    Receive-window cost is off the ledger by default; setting
    ``rx_energy_per_uplink_j`` adds a flat per-uplink term for the windows
    that follow every transmission.
    """

    supply_voltage_v: float = 3.3
    tx_current_a: dict[float, float] = field(default_factory=lambda: {14.0: 0.028})
    initial_battery_j: float = 10_000.0
    rx_energy_per_uplink_j: float = 0.0

    def __post_init__(self):
        if not all(0 < value < math.inf for value in (self.supply_voltage_v, *self.tx_current_a.values())):
            raise ValueError("supply_voltage_v and every tx_current_a value must be finite and positive")
        if not (0 <= self.initial_battery_j < math.inf and 0 <= self.rx_energy_per_uplink_j < math.inf):
            raise ValueError("initial_battery_j and rx_energy_per_uplink_j must be finite and nonnegative")

    def current_for(self, tx_power_dbm: float) -> float:
        try:
            return self.tx_current_a[tx_power_dbm]
        except KeyError:
            raise ValueError(f"no current draw configured for {tx_power_dbm} dBm") from None

    def tx_energy_j(self, tx_power_dbm: float, airtime_s: float) -> float:
        return self.supply_voltage_v * self.current_for(tx_power_dbm) * airtime_s

    def uplink_energy_j(self, tx_power_dbm: float, airtime_s: float) -> float:
        return self.tx_energy_j(tx_power_dbm, airtime_s) + self.rx_energy_per_uplink_j


def airtime(sf: int, cfg: RadioConfig) -> float:
    """Time on air in seconds for one uplink at the given spreading factor.

    Symbol time is 2^SF / BW.  The payload symbol count is
    8 + max(ceil((8*PL - 4*SF + 28 + 16 - 20*H) / (4*(SF - 2*DE))) * (CR + 4), 0)
    with H = 0 for an explicit header, and low-data-rate optimization
    (DE = 1) active for SF >= 11 at 125 kHz.  The preamble adds 4.25 symbol
    durations on top of the configured preamble symbols.
    """
    if sf not in cfg.sfs():
        raise InvalidSf(f"SF{sf} outside configured range {cfg.sf_min}..{cfg.sf_max}")
    t_sym = (2**sf) / cfg.bandwidth_hz
    de = 1 if sf >= 11 and cfg.bandwidth_hz == 125_000 else 0
    h = 0 if cfg.explicit_header else 1
    numerator = 8 * cfg.payload_bytes - 4 * sf + 28 + 16 - 20 * h
    payload_symbols = 8 + max(
        math.ceil(numerator / (4 * (sf - 2 * de))) * (cfg.coding_rate_denominator + 4), 0
    )
    return (cfg.preamble_symbols + 4.25 + payload_symbols) * t_sym


@dataclass(frozen=True)
class PropagationModel:
    """Log-distance path loss with optional per-link log-normal shadowing."""

    ref_loss_db: float = 128.95
    ref_distance_m: float = 1000.0
    exponent: float = 2.32
    shadowing_sigma_db: float = 0.0

    def __post_init__(self):
        values = (self.ref_loss_db, self.ref_distance_m, self.exponent, self.shadowing_sigma_db)
        if (not all(map(math.isfinite, values)) or self.ref_distance_m <= 0 or self.exponent <= 0
                or self.shadowing_sigma_db < 0):
            raise ValueError("propagation parameters must be finite, ref_distance_m and exponent positive "
                             "and shadowing_sigma_db nonnegative")


def path_loss_db(distance_m, model: PropagationModel = PropagationModel()):
    """Deterministic path loss in dB; distances are clamped to 1 m.  Works in
    place on one copy of the distances."""
    loss = _path_loss_in_place(np.array(distance_m, dtype=np.float64), model)
    return float(loss) if np.isscalar(distance_m) else loss


def _path_loss_in_place(distance: np.ndarray, model: PropagationModel) -> np.ndarray:
    """``path_loss_db`` of a float64 array, written over it."""
    np.maximum(distance, 1.0, out=distance)
    distance /= model.ref_distance_m
    np.log10(distance, out=distance)
    distance *= 10.0 * model.exponent
    distance += model.ref_loss_db
    return distance


def link_rssi_matrix(
    device_xy: np.ndarray,
    gateway_xy: np.ndarray,
    cfg: RadioConfig,
    model: PropagationModel = PropagationModel(),
    shadowing_db: np.ndarray | None = None,
) -> np.ndarray:
    """Received power of every device at every gateway, shape (N, K).

    ``shadowing_db`` is an optional (N, K) realization added to the path
    loss; it is drawn once per device-gateway pair by the caller so repeated
    evaluations see the same channel.
    """
    device_xy = np.asarray(device_xy, dtype=np.float64)
    gateway_xy = np.asarray(gateway_xy, dtype=np.float64)
    with np.errstate(over="ignore"):  # squares past the float range are inf: RSSI -inf
        distance = _sq_dist(device_xy, gateway_xy)
    np.sqrt(distance, out=distance)
    loss = _path_loss_in_place(distance, model)
    if shadowing_db is not None:
        loss += shadowing_db
    return np.subtract(cfg.tx_power_dbm, loss, out=loss)


def assign_sfs(best_rssi_dbm, cfg: RadioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Smallest SF whose sensitivity clears each best-gateway RSSI minus the ADR
    margin, or the largest SF flagged coverage-marginal where none does."""
    budget = np.asarray(best_rssi_dbm, dtype=np.float64)[..., None] - cfg.adr_margin_db
    feasible = np.array([cfg.sensitivity_dbm[sf] for sf in cfg.sfs()]) <= budget  # upward closed in SF
    marginal = ~feasible.any(axis=-1)
    return np.where(marginal, cfg.sf_max, cfg.sf_min + feasible.argmax(axis=-1)).astype(np.int64), marginal


def smallest_feasible_sf(best_rssi_dbm: float, cfg: RadioConfig) -> tuple[int, bool]:
    """Scalar ``assign_sfs``: the SF and the coverage-marginal flag."""
    sf, marginal = assign_sfs(best_rssi_dbm, cfg)
    return int(sf), bool(marginal)

