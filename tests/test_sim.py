"""Simulator tests: traffic statistics, collisions, capture, duty cycle,
battery, energy identities, and deterministic replay."""

import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest

from hydrolora import (
    EnergyModel,
    PropagationModel,
    RadioConfig,
    TrafficModel,
    airtime,
    build_network,
    simulate,
    synthetic_wds,
    tokenize_inp,
)
from hydrolora import sim
from hydrolora.errors import NoGateways
from hydrolora.sim import ROUND, export_wireless_csv
from tests.conftest import make_network
from tests.reference_sim import _DeviceTraffic

ONE_CHANNEL = RadioConfig(channels_hz=(868_100_000,))


def single_device_net():
    text = (
        "[JUNCTIONS]\n D1 10 1\n A0 10 0\n"
        "[PIPES]\n P1 D1 A0 10 0.3 130\n"
        "[COORDINATES]\n D1 0 0\n A0 100000 100000\n"
    )
    net = build_network(tokenize_inp(text))
    net.nodes = net.nodes[:1]  # lone device at the origin
    net.links = net.links[:0]
    return net


def check_conservation(result):
    for dev in result.devices:
        assert dev.sent == dev.delivered + dev.lost_no_coverage + dev.lost_collision
    assert result.energy.total_j == sum(d.energy_j for d in result.devices)


class TestSingleLink:
    def test_closed_form_traffic_and_energy(self):
        net = single_device_net()
        cfg = RadioConfig()
        for seed in range(5):
            result = simulate(net, [(10.0, 0.0)], cfg, horizon_s=86_400.0, seed=seed)
            dev = result.devices[0]
            assert dev.sf == 7
            assert abs(dev.sent - 288) <= 4 * math.sqrt(288)
            assert result.features.pdr == 1.0
            expected = dev.sent * EnergyModel().tx_energy_j(14.0, airtime(7, cfg))
            assert dev.energy_j == expected  # exact: count times constant cost
            check_conservation(result)

    def test_zero_horizon(self, monkeypatch):
        def no_state(*keys, last):
            raise AssertionError("a substream state was derived with nothing to send")
        monkeypatch.setattr("hydrolora.sim.substream_states", no_state)
        result = simulate(single_device_net(), [(10.0, 0.0)], horizon_s=0.0, seed=1)
        assert result.features.sent == 0
        assert result.energy.total_j == 0.0
        assert len(result.records) == 0
        half_uplink = EnergyModel(initial_battery_j=0.5 * EnergyModel().tx_energy_j(14.0, airtime(7, RadioConfig())))
        assert simulate(single_device_net(), [(10.0, 0.0)], energy_model=half_uplink, seed=1).features.sent == 0

    @pytest.mark.parametrize("horizon_s", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_horizon_rejected(self, horizon_s):
        with pytest.raises(ValueError, match="horizon_s"):
            simulate(single_device_net(), [(10.0, 0.0)], horizon_s=horizon_s)

    def test_no_gateways_rejected(self):
        with pytest.raises(NoGateways):
            simulate(single_device_net(), np.empty((0, 2)), horizon_s=10.0)

    @pytest.mark.parametrize("gateways", [
        [(math.nan, 0.0)], [(10.0, math.inf)], [(10.0, 0.0), (-math.inf, 5.0)],  # non-finite
        np.zeros((2, 3)), [[0.0]], np.zeros((1, 2, 2)),  # not (K, 2)
    ])
    def test_gateways_must_be_finite_k_by_2(self, gateways):
        with pytest.raises(NoGateways, match=r"finite \(K, 2\)"):
            simulate(single_device_net(), gateways, horizon_s=10.0)


    def test_gateway_beyond_float_squares_is_out_of_range(self):
        """A finite gateway whose squared distance overflows is heard nowhere
        (RSSI -inf), and no overflow warning is printed."""
        net = build_network(tokenize_inp(synthetic_wds(30, 2, seed=3, area_m=(3000.0, 2000.0))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate(net, [(1e200, 0.0), (500.0, 500.0)], horizon_s=600.0)
        assert np.all(result.link_rssi_dbm[:, 0] == -np.inf)
        delivered = result.records.outcome == "delivered"
        assert delivered.any() and set(result.records.best_gw[delivered].tolist()) == {"gw001"}


class TestRecords:
    def test_uplinks_store_only_per_uplink_columns(self):
        """A device's id, SF, airtime and best RSSI are stored once, in
        ``devices``, and read for each uplink through ``device_index``."""
        net = build_network(tokenize_inp(synthetic_wds(30, 2, seed=3)))
        result = simulate(net, [tuple(net.coordinates().min(axis=0))], horizon_s=1800.0, seed=4)  # SF7 to SF12
        recs, devices = result.records, result.devices
        assert [field.name for field in dataclasses.fields(recs)] == [
            "time_s", "device_index", "channel_index", "outcome_code", "best_gw_index", "store_row",
            "devices", "channels_hz", "gateway_ids", "store"]
        assert recs.store.time_s(recs.store_row).tolist() == recs.time_s.tolist()
        assert recs.store.pick(recs.store_row).tolist() == recs.channel_index.tolist()
        assert recs.devices is devices and len(set(devices.sf.tolist())) > 1 and len(recs) > 100
        for name, field in [("device_id", "id"), ("sf", "sf"), ("airtime_s", "airtime_s"),
                            ("best_rssi_dbm", "best_rssi_dbm")]:
            assert getattr(recs, name).tolist() == devices[field][recs.device_index].tolist()
        assert devices.airtime_s.tolist() == [airtime(sf, RadioConfig()) for sf in devices.sf.tolist()]
        assert recs.channel_hz.dtype == np.int64
        assert recs.channel_hz.tolist() == [RadioConfig().channels_hz[c] for c in recs.channel_index.tolist()]


class TestCollisions:
    def two_device_net(self, xy1, xy2):
        text = (
            "[JUNCTIONS]\n D1 10 1\n D2 10 1\n"
            f"[PIPES]\n P1 D1 D2 10 0.3 130\n"
            f"[COORDINATES]\n D1 {xy1[0]} {xy1[1]}\n D2 {xy2[0]} {xy2[1]}\n"
        )
        return build_network(tokenize_inp(text))

    def test_equal_power_simultaneous_both_lost(self):
        """Same start, channel, SF, equal RSSI at the only gateway: no capture."""
        net = self.two_device_net((10, 0), (-10, 0))
        traffic = TrafficModel(mode="periodic", period_s=600.0, first_offset_s=0.0)
        result = simulate(net, [(0.0, 0.0)], ONE_CHANNEL, horizon_s=300.0, traffic=traffic, seed=0)
        assert result.records.outcome.tolist() == ["collided", "collided"]
        assert all(gw == "" for gw in result.records.best_gw)
        check_conservation(result)

    def test_capture_keeps_stronger_copy(self):
        net = self.two_device_net((10, 0), (2000, 0))
        traffic = TrafficModel(mode="periodic", period_s=600.0, first_offset_s=0.0)
        result = simulate(net, [(0.0, 0.0)], dataclasses.replace(ONE_CHANNEL, sf_max=7), horizon_s=300.0,
                          traffic=traffic, seed=0)
        outcomes = dict(zip(result.records.device_id.tolist(), result.records.outcome.tolist()))
        assert outcomes == {"D1": "delivered", "D2": "collided"}

    def test_different_channels_do_not_collide(self):
        net = self.two_device_net((10, 0), (-10, 0))
        cfg = RadioConfig(channels_hz=(868_100_000, 868_300_000))
        traffic = TrafficModel(mode="periodic", period_s=600.0, first_offset_s=0.0)
        # seed chosen so the two devices draw different channels at t=0
        for seed in range(20):
            result = simulate(net, [(0.0, 0.0)], cfg, horizon_s=300.0, traffic=traffic, seed=seed)
            channels = result.records.channel_hz.tolist()
            if channels[0] != channels[1]:
                assert all(outcome == "delivered" for outcome in result.records.outcome)
                return
        pytest.fail("no seed produced distinct channels")

    def test_different_sf_orthogonal(self):
        # D2 sits where ADR gives it a larger SF; same channel, same start.
        net = self.two_device_net((10, 0), (2000, 0))
        traffic = TrafficModel(mode="periodic", period_s=600.0, first_offset_s=0.0)
        result = simulate(net, [(0.0, 0.0)], ONE_CHANNEL, horizon_s=300.0, traffic=traffic, seed=0)
        sfs = dict(zip(result.records.device_id.tolist(), result.records.sf.tolist()))
        assert sfs["D1"] != sfs["D2"]
        assert all(outcome == "delivered" for outcome in result.records.outcome)

    def test_out_of_range_device_no_coverage(self):
        net = self.two_device_net((10, 0), (60_000, 0))
        result = simulate(net, [(0.0, 0.0)], ONE_CHANNEL, horizon_s=1800.0, seed=3)
        recs = result.records
        outcomes = {outcome for outcome, device in zip(recs.outcome, recs.device_id) if device == "D2"}
        assert outcomes == {"no_coverage"}
        d2 = result.devices[1]
        assert d2.coverage_marginal and d2.sf == 12
        check_conservation(result)

    def test_non_overlapping_same_channel_delivered(self):
        net = self.two_device_net((10, 0), (-10, 0))
        # offsets 0 and none: periodic offset applies to both; stagger via period
        traffic = TrafficModel(mode="periodic", period_s=200.0, first_offset_s=None)
        result = simulate(net, [(0.0, 0.0)], ONE_CHANNEL, horizon_s=600.0, traffic=traffic, seed=5)
        starts = sorted(result.records.time_s.tolist())
        tx_len = result.records.airtime_s[0]
        if all(b - a >= tx_len for a, b in zip(starts, starts[1:])):
            assert all(outcome == "delivered" for outcome in result.records.outcome)


class TestDutyCycleAndBattery:
    def test_duty_cycle_floor_on_start_to_start_gap(self):
        net = single_device_net()
        cfg = dataclasses.replace(ONE_CHANNEL, duty_cycle_limit=0.5)
        traffic = TrafficModel(period_s=0.01)  # poisson, far below the floor
        result = simulate(net, [(10.0, 0.0)], cfg, horizon_s=60.0, traffic=traffic, seed=2)
        floor = airtime(7, cfg) / 0.5
        times = result.records.time_s.tolist()
        gaps = np.diff(times)
        assert np.all(gaps >= floor - 1e-9)
        assert result.features.sent > 100  # pinned to the floor, not the mean

    def test_rx_toggle_adds_flat_per_uplink_cost(self):
        net = single_device_net()
        cfg = RadioConfig()
        base = simulate(net, [(10.0, 0.0)], cfg, EnergyModel(), horizon_s=7200.0, seed=1)
        with_rx = simulate(net, [(10.0, 0.0)], cfg,
                           EnergyModel(rx_energy_per_uplink_j=0.001), horizon_s=7200.0, seed=1)
        sent = base.devices[0].sent
        assert with_rx.devices[0].sent == sent  # same traffic stream
        assert with_rx.energy.total_j == pytest.approx(base.energy.total_j + 0.001 * sent)

    def test_battery_exhaustion_halts_device(self):
        net = single_device_net()
        cfg = RadioConfig()
        per_tx = EnergyModel().tx_energy_j(14.0, airtime(7, cfg))
        model = EnergyModel(initial_battery_j=3.5 * per_tx)
        result = simulate(net, [(10.0, 0.0)], cfg, model, horizon_s=86_400.0, seed=0)
        dev = result.devices[0]
        assert dev.sent == 3
        assert dev.battery_j == pytest.approx(0.5 * per_tx)
        assert dev.battery_j >= 0.0

    def test_battery_trajectory_monotone_and_sampled_hourly(self):
        net = single_device_net()
        result = simulate(net, [(10.0, 0.0)], horizon_s=86_400.0, seed=4)
        times = result.energy.sample_times_s
        assert times[0] == 0.0 and times[-1] == 86_400.0 and len(times) == 25
        trajectory = result.energy.battery_j[0]
        assert np.all(np.diff(trajectory) <= 0)  # battery never increases
        assert trajectory[0] == EnergyModel().initial_battery_j
        assert trajectory[-1] == pytest.approx(result.devices[0].battery_j)


class TestEnergyProperties:
    def net(self):
        return make_network(8, [(i, i + 1) for i in range(1, 8)],
                            demands={i: 1 for i in range(1, 9)},
                            coords={i: (i * 50, (i % 3) * 40) for i in range(1, 9)})

    def test_energy_additivity(self):
        result = simulate(self.net(), [(200.0, 40.0)], horizon_s=7200.0, seed=9)
        assert result.energy.total_j == sum(d.energy_j for d in result.devices)
        per_tx = {d.id: EnergyModel().tx_energy_j(14.0, airtime(d.sf, RadioConfig()))
                  for d in result.devices}
        for dev in result.devices:
            assert dev.energy_j == dev.sent * per_tx[dev.id]

    def test_forcing_higher_sf_costs_strictly_more(self):
        traffic = TrafficModel(mode="periodic", period_s=300.0, first_offset_s=0.0)
        energies = []
        for sf in range(7, 13):
            result = simulate(self.net(), [(200.0, 40.0)], RadioConfig(sf_min=sf, sf_max=sf), horizon_s=7200.0,
                              seed=1, traffic=traffic)
            energies.append(result.energy.total_j)
            assert result.features.sent == 8 * 24  # fixed traffic counts
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_adding_gateway_never_hurts(self):
        net = self.net()
        base = simulate(net, [(200.0, 40.0)], horizon_s=3600.0, seed=6)
        more = simulate(net, [(200.0, 40.0), (350.0, 0.0)], horizon_s=3600.0, seed=6)
        assert np.all(more.devices.best_rssi_dbm >= base.devices.best_rssi_dbm)
        assert np.all(more.features.sf_per_device <= base.features.sf_per_device)


class TestDeterminism:
    def test_identical_seed_identical_records(self):
        net = make_network(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        a = simulate(net, [(30.0, 0.0)], horizon_s=3600.0, seed=12)
        b = simulate(net, [(30.0, 0.0)], horizon_s=3600.0, seed=12)
        columns = ("time_s", "device_id", "channel_hz", "sf", "outcome")
        assert [getattr(a.records, c).tolist() for c in columns] == \
               [getattr(b.records, c).tolist() for c in columns]
        assert a.energy.total_j == b.energy.total_j

    def test_different_seed_differs(self):
        net = make_network(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        a = simulate(net, [(30.0, 0.0)], horizon_s=3600.0, seed=12)
        b = simulate(net, [(30.0, 0.0)], horizon_s=3600.0, seed=13)
        assert a.records.time_s.tolist() != b.records.time_s.tolist()

    def test_traffic_stream_independent_of_gateways(self):
        """Same seed, different placement: identical uplink times when the
        duty cycle cannot bite (paired-comparison design)."""
        net = self.shared_net = make_network(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        cfg = RadioConfig(sf_min=7, sf_max=7, duty_cycle_limit=1.0)
        near = simulate(net, [(20.0, 0.0)], cfg, horizon_s=3600.0, seed=8)
        far = simulate(net, [(2500.0, 0.0)], cfg, horizon_s=3600.0, seed=8)
        assert near.records.time_s.tolist() == far.records.time_s.tolist()

    def test_shadowing_fixed_per_pair(self):
        from hydrolora import PropagationModel

        net = make_network(4, [(1, 2), (2, 3), (3, 4)])
        prop = PropagationModel(shadowing_sigma_db=6.0)
        a = simulate(net, [(20.0, 0.0)], horizon_s=600.0, seed=3, propagation=prop)
        b = simulate(net, [(20.0, 0.0)], horizon_s=600.0, seed=3, propagation=prop)
        assert np.array_equal(a.link_rssi_dbm, b.link_rssi_dbm)
        c = simulate(net, [(20.0, 0.0)], horizon_s=600.0, seed=4, propagation=prop)
        assert not np.array_equal(a.link_rssi_dbm, c.link_rssi_dbm)


def sorted_traffic(columns):
    time_s, device, pick = columns
    order = np.lexsort((device, time_s))
    return time_s[order].tolist(), device[order].tolist(), pick[order].tolist()


def per_device_traffic(seed, traffic, n_channels, min_gap, max_sends, horizon_s):
    """The uplinks of each device in turn, drawn lazily through the oracle's own
    ``integers``/``exponential``/``uniform`` calls, sorted like ``sorted_traffic``."""
    uplinks = []
    for i in range(len(min_gap) if horizon_s > 0 else 0):
        stream = _DeviceTraffic(seed, i, traffic, n_channels)
        t, sent = stream.first_start(), 0
        while sent < max_sends[i] and t < horizon_s:
            uplinks.append((t, i, stream.next_channel()))
            sent += 1
            t = max(t + stream.next_gap(), t + min_gap[i])
    return tuple(map(list, zip(*sorted(uplinks)))) if uplinks else ([], [], [])


class TestTrafficRounds:
    """``_traffic`` walks devices a block at a time; that may not change a draw."""

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    @pytest.mark.parametrize("traffic", [
        TrafficModel(mode="poisson", period_s=2.0),
        TrafficModel(mode="periodic", period_s=2.0),
        TrafficModel(mode="periodic", period_s=2.0, jitter_s=1.5),
        TrafficModel(mode="periodic", period_s=2.0, first_offset_s=0.75),
        TrafficModel(mode="periodic", period_s=2.0, jitter_s=0.5, first_offset_s=3.0),
    ], ids=["poisson", "periodic", "jitter", "offset", "jitter-offset"])
    @pytest.mark.parametrize("n_channels", [1, 3, 2**31 + 1])
    def test_any_block_size_gives_the_per_device_stream(self, monkeypatch, block, traffic, n_channels):
        """About four rounds per device, some cut short by the battery or the
        duty-cycle floor, some never sending, against the per-device oracle."""
        monkeypatch.setattr(sim, "_DEVICES_PER_BLOCK", block)
        min_gap = np.array([0.0, 0.5, 3.0, 0.0, 1.0] * 4)
        max_sends = np.array([10**6, 1, 0, 300, 257, 600, 2, 10**6, 256, 5] * 2, dtype=np.int64)
        args = (3, traffic, n_channels, min_gap, max_sends, 2000.0)
        expected = per_device_traffic(*args)
        assert len(expected[0]) > 3 * ROUND
        assert sorted_traffic(sim._traffic(*args)) == expected


class TestBestGateway:
    """An uplink's best gateway is the strongest hearable one, the first by
    index among equals: ``np.where(hearable, rssi, -inf).argmax(axis=1)``."""

    @pytest.mark.parametrize("seed", range(40))
    def test_best_gateway_is_the_masked_argmax(self, seed):
        rng = np.random.default_rng(seed)
        n, k, uplinks = rng.integers(1, 9), rng.integers(1, 6), rng.integers(0, 60)
        link_rssi = rng.choice([-140.0, -125.0, -120.0, -120.0, -110.0, -np.inf], size=(n, k))  # ties
        hearable = link_rssi >= rng.choice([-130.0, -122.0, -115.0], size=n)[:, None]
        masked = np.where(hearable.any(axis=1), np.where(hearable, link_rssi, -np.inf).argmax(axis=1), -1)
        time_s = np.sort(rng.choice([0.0, 0.5, 1.0, 2.0, 7.0], size=uplinks))
        device = rng.integers(0, n, size=uplinks)
        group = rng.integers(0, 2, size=uplinks).astype(np.uint8)
        airtime = np.array([0.8, 1.6])
        # With no capture threshold every covered copy survives at its strongest gateway, contested or not.
        outcome, best_gw = sim._outcomes(time_s, device, group, airtime, link_rssi, hearable, -np.inf)
        assert best_gw.tolist() == masked[device].tolist()
        assert outcome.tolist() == np.where(masked[device] >= 0, 0, 1).tolist()

    @pytest.mark.parametrize("exponent", [0.0, -2.0])
    def test_non_positive_exponent_is_rejected_before_a_nan_link(self, exponent):
        """With exponent 0 a gateway whose distance overflows to inf got a NaN
        path loss (0 * inf), and the NaN link won the argmax."""
        net = build_network(tokenize_inp(synthetic_wds(30, 2, seed=3)))
        with pytest.raises(ValueError, match="exponent positive"):
            simulate(net, [(1e200, 0.0), (500.0, 500.0)], horizon_s=600.0,
                     propagation=PropagationModel(exponent=exponent))


class TestExport:
    def test_empty_results_header_only(self, tmp_path):
        result = simulate(single_device_net(), [(10.0, 0.0)], horizon_s=0.0, seed=1)
        paths = export_wireless_csv(result, tmp_path)
        lines = paths["transmissions"].read_text().splitlines()
        assert lines == ["time_s,device_id,channel_hz,sf,airtime_s,best_gw,best_rssi_dbm,outcome"]
        energy_lines = paths["energy"].read_text().splitlines()
        assert energy_lines[0] == "device_id,sent,delivered,lost_no_coverage,lost_collision,energy_j,battery_end_j"
        assert len(energy_lines) == 2  # device row present with zero counters

    def test_single_transmission_row(self, tmp_path):
        traffic = TrafficModel(mode="periodic", period_s=600.0, first_offset_s=5.0)
        result = simulate(single_device_net(), [(10.0, 0.0)], ONE_CHANNEL,
                          horizon_s=400.0, traffic=traffic, seed=0)
        paths = export_wireless_csv(result, tmp_path)
        rows = paths["transmissions"].read_text().splitlines()
        assert len(rows) == 2
        time_s, airtime_s, best_rssi_dbm = (getattr(result.records, c).tolist()[0]
                                            for c in ("time_s", "airtime_s", "best_rssi_dbm"))
        assert rows[1] == (f"{time_s!r},D1,868100000,7,{airtime_s!r},"
                           f"gw000,{best_rssi_dbm!r},delivered")

    def test_float_channels_written_as_integer_hz(self, tmp_path):
        """A library caller's ``868.1e6`` is written as ``868100000``, as an int is."""
        paths = {}
        for name, channels in [("float", (868.1e6, 868.3e6, 868.5e6)), ("int", RadioConfig().channels_hz)]:
            result = simulate(single_device_net(), [(10.0, 0.0)], RadioConfig(channels_hz=channels),
                              horizon_s=7200.0, seed=2)
            paths[name] = export_wireless_csv(result, tmp_path / name)["transmissions"]
        with open(paths["float"], newline="") as handle:
            hz = {row[2] for row in list(csv.reader(handle))[1:]}
        assert hz == {"868100000", "868300000", "868500000"}
        assert paths["float"].read_bytes() == paths["int"].read_bytes()

    def test_reexport_of_loaded_export_is_byte_identical(self, tmp_path):
        result = simulate(single_device_net(), [(10.0, 0.0)], horizon_s=7200.0, seed=2)
        paths = export_wireless_csv(result, tmp_path / "a")
        # load, then rewrite at declared precision
        with open(paths["transmissions"], newline="") as handle:
            rows = list(csv.reader(handle))
        out = tmp_path / "b.csv"
        with open(out, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(rows[0])
            for row in rows[1:]:
                writer.writerow([repr(float(row[0])), row[1], int(row[2]), int(row[3]),
                                 repr(float(row[4])), row[5], repr(float(row[6])), row[7]])
        assert out.read_bytes() == paths["transmissions"].read_bytes()

    def test_rows_ordered_by_time_then_device(self, tmp_path):
        net = make_network(4, [(1, 2), (2, 3), (3, 4)])
        result = simulate(net, [(20.0, 0.0)], horizon_s=3600.0, seed=5)
        paths = export_wireless_csv(result, tmp_path)
        with open(paths["transmissions"], newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        keys = [(float(r[0]), r[1]) for r in rows]
        assert keys == sorted(keys)

    def test_battery_csv_shape(self, tmp_path):
        result = simulate(single_device_net(), [(10.0, 0.0)], horizon_s=7200.0, seed=2)
        paths = export_wireless_csv(result, tmp_path)
        lines = paths["battery"].read_text().splitlines()
        assert lines[0] == "time_s,device_id,battery_j"
        assert len(lines) == 1 + 3  # samples at 0, 3600, 7200
