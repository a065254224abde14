"""One traffic store shared by the runs of a seed changes no result.

A sweep holds one ``TrafficStore`` per seed and passes it to every
(K, strategy) run of that seed, so a device's uplinks are drawn, and their
start times formatted, once per SF it gets.  Every run through a shared
store, in sweep order ((K, strategy), then seed), must equal a fresh
``simulate`` without one: every column of the records and of the
device table, energy and battery, and the three CSVs byte for byte.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hydrolora import (EnergyModel, RadioConfig, TrafficModel, TrafficStore, airtime, build_network, simulate,
                       synthetic_wds, tokenize_inp)
from hydrolora.sim import export_wireless_csv

SF7_UPLINK_J = EnergyModel().uplink_energy_j(14.0, airtime(7, RadioConfig()))
TRAFFIC = {
    "poisson": TrafficModel(mode="poisson", period_s=120.0),
    "periodic": TrafficModel(mode="periodic", period_s=120.0),
    "jitter": TrafficModel(mode="periodic", period_s=120.0, jitter_s=30.0),
    "offset": TrafficModel(mode="periodic", period_s=120.0, first_offset_s=15.0),
    "jitter-offset": TrafficModel(mode="periodic", period_s=120.0, jitter_s=5.0, first_offset_s=0.0),
}
BASE = dict(nodes=12, scale=1.0, traffic="poisson", channels=3, battery_uplinks=None, sf_range=(7, 12),
            horizon_s=1800.0, layouts=[[(0.3, 0.3)], [(0.5, 0.5), (0.9, 0.1)]])


@st.composite
def sweeps(draw):
    fraction = st.floats(0.0, 1.0)
    layout = st.lists(st.tuples(fraction, fraction), min_size=1, max_size=3)
    return dict(
        nodes=draw(st.integers(8, 16)),
        scale=draw(st.sampled_from([1.0, 3.0])),
        traffic=draw(st.sampled_from(sorted(TRAFFIC))),
        channels=draw(st.integers(1, 4)),
        # Uplinks the battery affords at SF7; at SF12 about 24 times fewer.
        battery_uplinks=draw(st.sampled_from([None, 40.5, 200.5])),
        sf_range=draw(st.sampled_from([(7, 12), (7, 12), (9, 9)])),
        horizon_s=draw(st.sampled_from([1800.0, 600.0, 0.0])),
        layouts=draw(st.lists(layout, min_size=2, max_size=3)),
    )


def network(nodes, scale):
    return build_network(tokenize_inp(synthetic_wds(nodes, 2, seed=nodes)), coordinate_scale=scale)


def configs(p):
    radio = RadioConfig(channels_hz=tuple(868_100_000 + 200_000 * c for c in range(p["channels"])),
                        sf_min=p["sf_range"][0], sf_max=p["sf_range"][1])
    energy = EnergyModel() if p["battery_uplinks"] is None else \
        EnergyModel(initial_battery_j=p["battery_uplinks"] * SF7_UPLINK_J)
    return radio, energy


def gateways(net, layout):
    """A layout's gateways, given as fractions of the network's bounding box."""
    x0, y0, x1, y1 = net.bbox
    return [(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0)) for fx, fy in layout]


def assert_same_run(shared, fresh):
    recs, ref = shared.records, fresh.records
    for field in dataclasses.fields(recs):
        if field.name not in ("store_row", "store", "devices"):
            a, b = getattr(recs, field.name), getattr(ref, field.name)
            assert np.asarray(a).tolist() == np.asarray(b).tolist(), field.name
    assert recs.store.time_s(recs.store_row).tolist() == recs.time_s.tolist()
    assert shared.devices.dtype == fresh.devices.dtype
    for name in shared.devices.dtype.names:
        assert shared.devices[name].tolist() == fresh.devices[name].tolist(), name
    for field in dataclasses.fields(shared.features):
        a, b = getattr(shared.features, field.name), getattr(fresh.features, field.name)
        assert np.array_equal(a, b, equal_nan=field.name == "pdr"), field.name
    assert shared.energy.total_j == fresh.energy.total_j
    assert np.array_equal(shared.energy.sample_times_s, fresh.energy.sample_times_s)
    assert np.array_equal(shared.energy.battery_j, fresh.energy.battery_j)
    assert np.array_equal(shared.link_rssi_dbm, fresh.link_rssi_dbm)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(p=sweeps())
# SFs differ between the layouts and the battery binds at the higher ones.
@example(p={**BASE, "scale": 3.0, "battery_uplinks": 40.5})
@example(p={**BASE, "traffic": "jitter-offset", "channels": 1, "sf_range": (9, 9)})
@example(p={**BASE, "traffic": "offset", "channels": 4, "horizon_s": 0.0})
def test_runs_through_one_store_equal_fresh_runs(p, tmp_path):
    net = network(p["nodes"], p["scale"])
    radio, energy = configs(p)
    traffic = TRAFFIC[p["traffic"]]
    stores, times = {seed: TrafficStore() for seed in (0, 1)}, {seed: [] for seed in (0, 1)}
    for number, layout in enumerate(p["layouts"]):  # sweep order: layouts, then seeds
        gws = gateways(net, layout)
        for seed, store in stores.items():
            kwargs = dict(horizon_s=p["horizon_s"], seed=seed, traffic=traffic)
            shared = simulate(net, gws, radio, energy, store=store, **kwargs)
            fresh = simulate(net, gws, radio, energy, **kwargs)
            assert_same_run(shared, fresh)
            ours = export_wireless_csv(shared, tmp_path / f"shared{seed}{number}")
            theirs = export_wireless_csv(fresh, tmp_path / f"fresh{seed}{number}")
            for name in ours:
                assert ours[name].read_bytes() == theirs[name].read_bytes(), name
            times[seed].append([shared.records.time_s.tolist(), shared.records.device_index.tolist(),
                                shared.records.channel_index.tolist()])
    for seed, store in stores.items():
        if radio.sf_min == radio.sf_max:  # paired traffic: the layouts see the same uplinks
            assert all(columns == times[seed][0] for columns in times[seed])
        if p["horizon_s"] == 0:
            assert len(store) == 0


def test_pinned_sf_gives_every_layout_the_same_uplinks():
    """With one SF the duty-cycle floor and battery cap are the same for every
    layout, so two layouts draw nothing twice and see the same uplinks."""
    net = network(14, 3.0)
    radio = RadioConfig(sf_min=10, sf_max=10)
    store = TrafficStore()
    runs = [simulate(net, gateways(net, layout), radio, horizon_s=3600.0, seed=2, store=store)
            for layout in ([(0.1, 0.1)], [(0.5, 0.5), (0.8, 0.2)])]
    columns = [(r.records.time_s.tolist(), r.records.device_index.tolist(), r.records.channel_index.tolist())
               for r in runs]
    assert columns[0] == columns[1] and len(columns[0][0]) > 100
    assert len(store) == len(columns[0][0])  # the second layout drew nothing


def test_a_device_whose_sf_changes_is_drawn_again():
    net = network(14, 1.0)
    store = TrafficStore()
    near = simulate(net, gateways(net, [(0.1, 0.1)]), horizon_s=3600.0, seed=2, store=store)
    drawn = len(store)
    far = simulate(net, [(1e6, 1e6)], horizon_s=3600.0, seed=2, store=store)
    assert (near.devices.sf != far.devices.sf).any()
    assert len(store) > drawn


def test_a_store_grows_under_a_profiler(tmp_path):
    """A profiler holds a reference to each array whose method it times, so
    the store may not grow its columns only when nothing else refers to them."""
    net = network(14, 1.0)
    store = TrafficStore()
    sys.setprofile(lambda *args: None)
    try:
        for number, layout in enumerate(([(0.1, 0.1)], [(0.9, 0.9)])):
            result = simulate(net, gateways(net, layout), horizon_s=600.0, seed=1, store=store)
            export_wireless_csv(result, tmp_path / str(number))
    finally:
        sys.setprofile(None)
    assert len(store) > len(result.records) > 0  # the second layout drew again


@pytest.mark.parametrize("change", [
    dict(traffic=TrafficModel(mode="periodic")),
    dict(horizon_s=1200.0),
    dict(radio=RadioConfig(channels_hz=(868_100_000,))),
    dict(seed=4),
])
def test_a_store_serves_one_traffic_model_horizon_channel_count_and_seed(change):
    net = network(10, 1.0)
    store = TrafficStore()
    simulate(net, [(0.0, 0.0)], horizon_s=600.0, seed=3, store=store)
    kwargs = {**dict(radio=RadioConfig(), horizon_s=600.0, seed=3, traffic=TrafficModel()), **change}
    with pytest.raises(ValueError, match="traffic store"):
        simulate(net, [(0.0, 0.0)], kwargs.pop("radio"), store=store, **kwargs)
