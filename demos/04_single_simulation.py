"""One day of uplink traffic, end to end.

Every network node hosts a meter that transmits a 20-byte reading on
average every 5 minutes.  ADR assigns each device the cheapest spreading
factor its best gateway link affords; the simulator then resolves
collisions (same channel, same SF, overlapping in time, 6 dB capture) and
debits transmit energy.  The run is bit-reproducible for a fixed seed.
"""

from pathlib import Path

import numpy as np

from hydrolora import (
    build_adjacency,
    degree_centrality,
    degree_centrality_deploy,
    export_wireless_csv,
    flow_proxy,
    placement_weights,
    read_inp,
    simulate,
    synthetic_wds,
)

out = Path("demo_out")
out.mkdir(exist_ok=True)
inp_path = out / "demo_network.inp"
if not inp_path.exists():
    inp_path.write_text(synthetic_wds(n_nodes=200, n_clusters=5, seed=42))

net = read_inp(inp_path)
adj = build_adjacency(net)
cv = degree_centrality(adj)
weights = placement_weights(cv, flow_proxy(net, adj).values, alpha=0.5).weight
gateways = degree_centrality_deploy(6, net.coordinates(), weights)

result = simulate(net, gateways, horizon_s=86_400.0, seed=7)
f = result.features

print(f"devices: {len(result.devices)}, gateways: {gateways.k}, horizon: 24 h")
print(f"uplinks sent: {f.sent}, delivered: {f.delivered} (PDR {f.pdr:.4f})")
print(f"lost to collisions: {f.lost_collision}, out of coverage: {f.lost_no_coverage}")
print("SF allocation:", {sf: n for sf, n in f.sf_histogram.items() if n})
print(f"mean SF: {f.mean_sf:.2f}")
print(f"network energy over the day: {result.energy.total_j:.2f} J")

worst = result.devices[result.devices.energy_j.argmax()]
print(f"\nhungriest device: {worst.id} at SF{worst.sf}, "
      f"{worst.sent} uplinks, {worst.energy_j:.3f} J, battery left {worst.battery_j:.1f} J")

trajectory = result.energy.battery_j.mean(axis=0)
drained = trajectory[0] - trajectory[-1]
print(f"mean battery drain per device: {drained:.3f} J/day "
      f"(hourly samples: {len(result.energy.sample_times_s)})")

paths = export_wireless_csv(result, out / "single_run")
print("\nwireless feature CSVs:")
for name, path in paths.items():
    print(f"  {name}: {path}")

replay = simulate(net, gateways, horizon_s=86_400.0, seed=7)
identical = (np.array_equal(result.records.time_s, replay.records.time_s)
             and np.array_equal(result.records.outcome_code, replay.records.outcome_code))
print(f"\nreplay with the same seed is identical: {identical}")
