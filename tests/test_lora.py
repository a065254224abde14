"""Radio primitive tests: airtime against an exact-arithmetic oracle, path
loss closed forms, and ADR minimality against an exhaustive scan."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hydrolora import (
    EnergyModel,
    PropagationModel,
    RadioConfig,
    airtime,
    assign_sfs,
    link_rssi_matrix,
    path_loss_db,
    smallest_feasible_sf,
)
from hydrolora.errors import InvalidSf
from hydrolora.rng import substream


def oracle_airtime(sf, payload, explicit_header, bw=125_000, cr_denom=1, preamble=8):
    """Independent time-on-air calculator in exact rational arithmetic."""
    de = 1 if sf >= 11 and bw == 125_000 else 0
    h = 0 if explicit_header else 1
    numerator = 8 * payload - 4 * sf + 28 + 16 - 20 * h
    denominator = 4 * (sf - 2 * de)
    ceiling = -(-numerator // denominator)  # exact integer ceil
    payload_symbols = 8 + max(ceiling * (cr_denom + 4), 0)
    total_symbols = Fraction(preamble) + Fraction(17, 4) + payload_symbols
    return float(total_symbols * Fraction(2**sf, bw))


class TestAirtime:
    def test_against_oracle_all_cases(self):
        """SF 7..12 x payload {1,20,51,222} x both header modes, to 1 us."""
        for explicit in (True, False):
            for payload in (1, 20, 51, 222):
                cfg = RadioConfig(payload_bytes=payload, explicit_header=explicit)
                for sf in range(7, 13):
                    expected = oracle_airtime(sf, payload, explicit)
                    assert airtime(sf, cfg) == pytest.approx(expected, abs=1e-6)

    def test_known_sf7_value(self):
        # 20 B, CR 4/5, 8-symbol preamble, explicit header, 125 kHz:
        # 55.25 symbols of 1.024 ms.
        assert airtime(7, RadioConfig()) == pytest.approx(0.056576, abs=1e-6)

    def test_strictly_increasing_in_sf(self):
        cfg = RadioConfig()
        values = [airtime(sf, cfg) for sf in range(7, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sf12_to_sf7_ratio_exceeds_16(self):
        cfg = RadioConfig()
        assert airtime(12, cfg) / airtime(7, cfg) > 16

    def test_zero_payload_rejected(self):
        with pytest.raises(ValueError):
            RadioConfig(payload_bytes=0)

    def test_out_of_range_sf_rejected(self):
        with pytest.raises(InvalidSf):
            airtime(6, RadioConfig())
        with pytest.raises(InvalidSf):
            airtime(13, RadioConfig())


class TestRadioConfigValidation:
    def test_sensitivity_must_decrease(self):
        table = dict(RadioConfig().sensitivity_dbm)
        table[9] = table[8] + 1
        with pytest.raises(ValueError):
            RadioConfig(sensitivity_dbm=table)

    @pytest.mark.parametrize("sf", [7, 9, 12])
    def test_sensitivity_entry_required_for_every_sf(self, sf):
        table = dict(RadioConfig().sensitivity_dbm)
        del table[sf]
        with pytest.raises(ValueError, match=f"SF{sf}"):
            RadioConfig(sensitivity_dbm=table)

    def test_entries_outside_sf_range_not_required(self):
        cfg = RadioConfig(sf_min=8, sf_max=9, sensitivity_dbm={8: -126.0, 9: -129.0})
        assert list(cfg.sfs()) == [8, 9]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_sensitivity_entry_must_be_finite(self, value):
        table = dict(RadioConfig().sensitivity_dbm)
        table[10] = value
        with pytest.raises(ValueError, match="SF10"):
            RadioConfig(sensitivity_dbm=table)

    @pytest.mark.parametrize("field", ["tx_power_dbm", "adr_margin_db", "capture_threshold_db"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_level_fields_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RadioConfig(**{field: value})

    @pytest.mark.parametrize("channels", [(0,), (868_100_000, -5)])
    def test_channels_must_be_positive(self, channels):
        with pytest.raises(ValueError, match="channels_hz"):
            RadioConfig(channels_hz=channels)

    def test_duty_cycle_bounds(self):
        with pytest.raises(ValueError):
            RadioConfig(duty_cycle_limit=0.0)

    def test_payload_upper_bound(self):
        with pytest.raises(ValueError):
            RadioConfig(payload_bytes=223)


class TestEnergyModel:
    def test_energy_per_transmission(self):
        model = EnergyModel()
        t = airtime(7, RadioConfig())
        assert model.tx_energy_j(14.0, t) == pytest.approx(3.3 * 0.028 * t)
        assert model.tx_energy_j(14.0, t) > 0

    def test_unknown_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel().tx_energy_j(20.0, 0.05)


class TestPathLoss:
    def test_reference_distance(self):
        model = PropagationModel()
        assert path_loss_db(1000.0, model) == pytest.approx(128.95)

    def test_decade_with_exponent_two(self):
        model = PropagationModel(exponent=2.0)
        assert path_loss_db(10_000.0, model) == pytest.approx(model.ref_loss_db + 20.0)

    def test_clamped_below_one_meter(self):
        model = PropagationModel()
        assert path_loss_db(0.01, model) == path_loss_db(1.0, model)

    def test_monotone_nondecreasing(self):
        model = PropagationModel()
        distances = np.linspace(1, 20_000, 200)
        losses = path_loss_db(distances, model)
        assert np.all(np.diff(losses) >= 0)

    def test_matches_closed_form_random(self):
        rng = substream(77, "pathloss")
        model = PropagationModel()
        for d in rng.uniform(1, 15_000, size=50):
            expected = 128.95 + 10 * 2.32 * np.log10(d / 1000.0)
            assert path_loss_db(float(d), model) == pytest.approx(expected)

    @pytest.mark.parametrize("model", [PropagationModel(), PropagationModel(ref_loss_db=120.0, ref_distance_m=40.0,
                                                                         exponent=3.7)])
    def test_in_place_link_budget_keeps_the_bits_of_the_expression(self, model):
        """``path_loss_db`` and ``link_rssi_matrix`` work in place on one array;
        each value must equal ``tx - (ref + 10 * n * log10(max(d, 1) / d0) + shadowing)``."""
        rng = substream(78, "pathloss")
        devices, gateways = rng.uniform(-9e3, 9e3, (300, 2)), rng.uniform(-9e3, 9e3, (7, 2))
        devices[:3] = gateways[:3] + [[0.0, 0.0], [0.3, 0.0], [0.0, 1.0]]  # below, at the 1 m clamp
        shadowing = rng.normal(0.0, 6.0, (300, 7))
        distance = np.sqrt(((devices[:, None] - gateways[None]) ** 2).sum(axis=2))
        loss = model.ref_loss_db + 10.0 * model.exponent * np.log10(np.maximum(distance, 1.0) / model.ref_distance_m)
        assert np.array_equal(path_loss_db(distance, model), loss)
        assert [path_loss_db(d, model) for d in distance[0].tolist()] == loss[0].tolist()
        cfg = RadioConfig()
        assert np.array_equal(link_rssi_matrix(devices, gateways, cfg, model), cfg.tx_power_dbm - loss)
        assert np.array_equal(link_rssi_matrix(devices, gateways, cfg, model, shadowing),
                              cfg.tx_power_dbm - (loss + shadowing))

    def test_path_loss_leaves_its_argument_unchanged(self):
        """``link_rssi_matrix`` overwrites its own distances; ``path_loss_db`` copies."""
        distance = np.array([[0.0, 0.5, 1.0], [999.5, 1e3, 2.5e4]])
        before = distance.copy()
        path_loss_db(distance)
        assert np.array_equal(distance, before)

    def test_matrix_shape_and_shadowing(self):
        cfg = RadioConfig()
        devices = np.array([[0.0, 0.0], [100.0, 0.0]])
        gateways = np.array([[0.0, 0.0], [0.0, 500.0], [1000.0, 0.0]])
        base = link_rssi_matrix(devices, gateways, cfg)
        assert base.shape == (2, 3)
        shadow = np.full((2, 3), 3.0)
        shifted = link_rssi_matrix(devices, gateways, cfg, shadowing_db=shadow)
        assert np.allclose(base - shifted, 3.0)


def adr(device, gateways, cfg, model=PropagationModel()):
    """ADR as ``simulate`` runs it: the best-gateway link budget, then
    ``assign_sfs``.  Returns the SF, the coverage-marginal flag and the best RSSI."""
    best = link_rssi_matrix(np.atleast_2d(device), gateways, cfg, model).max(axis=1)
    sfs, marginal = assign_sfs(best, cfg)
    return int(sfs[0]), bool(marginal[0]), float(best[0])


class TestAdrAssign:
    def test_colocated_device_gets_sf7(self):
        sf, marginal, _ = adr((0.0, 0.0), [(0.0, 0.0)], RadioConfig())
        assert sf == 7 and not marginal

    def test_below_sf12_budget_marks_marginal(self):
        sf, marginal, _ = adr((0.0, 0.0), [(50_000.0, 0.0)], RadioConfig())
        assert sf == 12 and marginal

    def test_minimality_against_brute_force(self):
        """For random geometries the assignment equals scanning SF 7..12 for
        the first one whose sensitivity clears best RSSI minus margin."""
        cfg = RadioConfig()
        model = PropagationModel()
        rng = substream(2024, "adr")
        for _ in range(300):
            device = rng.uniform(0, 8000, size=2)
            gateways = rng.uniform(0, 8000, size=(int(rng.integers(1, 6)), 2))
            got_sf, got_marginal, best = adr(tuple(device), gateways, cfg, model)

            budget = best - cfg.adr_margin_db
            expected_sf, expected_marginal = 12, True
            for sf in range(7, 13):
                if cfg.sensitivity_dbm[sf] <= budget:
                    expected_sf, expected_marginal = sf, False
                    break
            assert (got_sf, got_marginal) == (expected_sf, expected_marginal)
            if not got_marginal:
                # minimality: no smaller SF also satisfies the margin test
                for sf in range(7, got_sf):
                    assert cfg.sensitivity_dbm[sf] > budget

    def test_margin_override_changes_assignment(self):
        base = RadioConfig()
        loose = dataclasses.replace(base, adr_margin_db=0.0)
        device, gateways = (0.0, 0.0), [(2500.0, 0.0)]
        assert adr(device, gateways, loose)[0] <= adr(device, gateways, base)[0]

    def test_smallest_feasible_threshold_edges(self):
        cfg = RadioConfig()
        # exactly on the SF8 sensitivity: qualifies for SF8
        sf, marginal = smallest_feasible_sf(cfg.sensitivity_dbm[8] + cfg.adr_margin_db, cfg)
        assert (sf, marginal) == (8, False)

    def test_assign_sfs_array_matches_scalar_scan(self):
        """The array form agrees with the per-value SF scan, edges included,
        under a narrowed SF range."""
        for cfg in (RadioConfig(), RadioConfig(sf_min=8, sf_max=10)):
            edges = [cfg.sensitivity_dbm[sf] + cfg.adr_margin_db for sf in cfg.sfs()]
            rssi = np.array(edges + [e - 1e-9 for e in edges] + [-200.0, -60.0, np.nan, np.inf, -np.inf])
            sfs, marginal = assign_sfs(rssi, cfg)
            assert sfs.dtype == np.int64 and marginal.dtype == bool
            for value, sf, flag in zip(rssi.tolist(), sfs.tolist(), marginal.tolist()):
                budget = value - cfg.adr_margin_db
                expected = next(((s, False) for s in cfg.sfs() if cfg.sensitivity_dbm[s] <= budget),
                                (cfg.sf_max, True))
                assert (sf, flag) == expected
                assert smallest_feasible_sf(value, cfg) == expected
