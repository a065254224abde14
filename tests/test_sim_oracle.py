"""Differential test: the columnar simulator against the event-loop oracle.

``tests/reference_sim.py`` keeps the heap-driven simulator the columnar core
replaced.  On generated small scenarios both must agree bit for bit: every
transmission column, every column of the per-device table, the battery
samples, and the three exported CSVs byte for byte.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hydrolora import EnergyModel, PropagationModel, RadioConfig, TrafficModel, airtime, simulate
from hydrolora.lora import DEFAULT_CHANNELS_HZ
from hydrolora.sim import export_wireless_csv
from tests import reference_sim
from tests.conftest import make_network

SF7_UPLINK_J = EnergyModel().tx_energy_j(14.0, airtime(7, RadioConfig()))

BASE = dict(n=4, coords=[(0, 0), (300, 0), (0, 2500), (6000, 6000)], gateways=[(100.0, 100.0)],
            mode="poisson", period_s=300.0, jitter_s=0.0, first_offset_s=None, horizon_s=1800.0,
            channels=DEFAULT_CHANNELS_HZ, duty_cycle_limit=0.01, capture_db=6.0, shadowing_db=0.0,
            battery_uplinks=None, sf_range=(7, 12), seed=1)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 11))
    coordinate = st.tuples(st.integers(0, 5000), st.integers(0, 5000))
    return dict(
        n=n,
        coords=draw(st.lists(coordinate, min_size=n, max_size=n)),
        gateways=draw(st.lists(st.tuples(st.floats(0, 5000), st.floats(0, 5000)), min_size=1, max_size=3)),
        mode=draw(st.sampled_from(["poisson", "periodic"])),
        period_s=draw(st.sampled_from([2.0, 30.0, 300.0])),
        jitter_s=draw(st.sampled_from([0.0, 0.5, 20.0])),
        first_offset_s=draw(st.sampled_from([None, 0.0, 7.5])),
        horizon_s=draw(st.sampled_from([3000.0, 1800.0, 45.0, 0.0])),
        channels=draw(st.sampled_from([(868_100_000,), DEFAULT_CHANNELS_HZ])),
        duty_cycle_limit=draw(st.sampled_from([1.0, 0.01])),
        capture_db=draw(st.sampled_from([6.0, 0.0])),
        shadowing_db=draw(st.sampled_from([0.0, 6.0])),
        battery_uplinks=draw(st.sampled_from([None, 3.5, 256.5])),
        sf_range=draw(st.sampled_from([(7, 12), (7, 12), (7, 7), (12, 12)])),
        seed=draw(st.integers(0, 3)),
    )


def run_both(p):
    net = make_network(p["n"], [(i, i + 1) for i in range(1, p["n"])],
                       coords={i + 1: xy for i, xy in enumerate(p["coords"])})
    cfg = RadioConfig(channels_hz=p["channels"], duty_cycle_limit=p["duty_cycle_limit"],
                      capture_threshold_db=p["capture_db"], sf_min=p["sf_range"][0], sf_max=p["sf_range"][1])
    energy = EnergyModel() if p["battery_uplinks"] is None else \
        EnergyModel(initial_battery_j=p["battery_uplinks"] * SF7_UPLINK_J)
    kwargs = dict(
        horizon_s=p["horizon_s"], seed=p["seed"],
        propagation=PropagationModel(shadowing_sigma_db=p["shadowing_db"]),
        traffic=TrafficModel(mode=p["mode"], period_s=p["period_s"], jitter_s=p["jitter_s"],
                             first_offset_s=p["first_offset_s"]),
    )
    return (simulate(net, p["gateways"], cfg, energy, **kwargs),
            reference_sim.simulate(net, p["gateways"], cfg, energy, **kwargs))


def assert_same_transmissions(new, ref):
    recs = new.records
    assert len(recs) == len(ref.records)
    assert recs.time_s.tolist() == [r.time_s for r in ref.records]
    assert recs.device_index.tolist() == [r.device_index for r in ref.records]
    assert recs.device_id.tolist() == [r.device_id for r in ref.records]
    assert recs.channel_hz.tolist() == [r.channel_hz for r in ref.records]
    assert recs.sf.tolist() == [r.sf for r in ref.records]
    assert recs.airtime_s.tolist() == [r.airtime_s for r in ref.records]
    assert recs.best_rssi_dbm.tolist() == [r.best_rssi_dbm for r in ref.records]
    assert recs.outcome.tolist() == [r.outcome for r in ref.records]
    assert recs.best_gw.tolist() == [r.best_gw for r in ref.records]


def assert_same_result(new, ref):
    assert_same_transmissions(new, ref)
    devices, f, g = new.devices, new.features, ref.features
    assert len(devices) == len(ref.devices)
    for name in ("id", "sf", "coverage_marginal", "sent", "delivered", "lost_no_coverage", "lost_collision",
                 "energy_j", "battery_j"):
        assert devices[name].tolist() == [getattr(dev, name) for dev in ref.devices], name
    assert devices.best_rssi_dbm.tolist() == g.best_rssi_dbm.tolist()
    pdr = np.divide(devices.delivered, devices.sent, out=np.full(len(devices), math.nan), where=devices.sent > 0)
    assert np.array_equal(pdr, g.pdr_per_device, equal_nan=True)
    assert np.shares_memory(f.sf_per_device, devices)  # a view of devices.sf, not a copy
    assert np.array_equal(new.link_rssi_dbm, ref.link_rssi_dbm)
    assert list(new.records.gateway_ids) == ref.gateway_ids
    assert np.array_equal(f.sf_per_device, g.sf_per_device)
    assert f.sf_per_device.dtype == g.sf_per_device.dtype
    assert f.sf_histogram == g.sf_histogram
    assert (f.sent, f.delivered, f.lost_no_coverage, f.lost_collision) == \
           (g.sent, g.delivered, g.lost_no_coverage, g.lost_collision)
    assert f.pdr == g.pdr or (math.isnan(f.pdr) and math.isnan(g.pdr))
    assert f.mean_sf == g.mean_sf
    assert new.energy.total_j == ref.energy.total_j
    assert np.array_equal(new.energy.sample_times_s, ref.energy.sample_times_s)
    assert np.array_equal(new.energy.battery_j, ref.energy.battery_j)


def assert_same_csvs(new, ref, tmp_path):
    ours = export_wireless_csv(new, tmp_path / "new")
    theirs = reference_sim.export_wireless_csv(ref, tmp_path / "ref")
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert ours[name].read_bytes() == theirs[name].read_bytes(), name


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(p=scenarios())
# More than 256 uplinks per device, in both modes, on one channel.
@example(p={**BASE, "mode": "poisson", "period_s": 2.0, "duty_cycle_limit": 1.0,
            "channels": (868_100_000,), "horizon_s": 3000.0})
@example(p={**BASE, "mode": "periodic", "period_s": 2.0, "jitter_s": 0.5, "duty_cycle_limit": 1.0})
# Battery runs out exactly at the end of the first block of draws.
@example(p={**BASE, "period_s": 2.0, "duty_cycle_limit": 1.0, "battery_uplinks": 256.5, "sf_range": (7, 7)})
# A fixed first offset: every device starts at the same instant.
@example(p={**BASE, "mode": "periodic", "first_offset_s": 0.0, "channels": (868_100_000,), "sf_range": (12, 12)})
# Equal RSSI at a 0 dB capture threshold: both simultaneous copies survive.
@example(p={**BASE, "n": 2, "coords": [(0, 100), (200, 100)], "mode": "periodic", "first_offset_s": 0.0,
            "channels": (868_100_000,), "capture_db": 0.0})
@example(p={**BASE, "shadowing_db": 6.0, "battery_uplinks": 3.5, "period_s": 30.0})
@example(p={**BASE, "horizon_s": 0.0})
@example(p={**BASE, "mode": "periodic", "first_offset_s": 1800.0})  # every device starts at the horizon
def test_columnar_core_matches_event_loop_oracle(p, tmp_path):
    new, ref = run_both(p)
    assert_same_result(new, ref)
    assert_same_csvs(new, ref, tmp_path)
