"""From topology to placement weights.

Degree centrality ranks nodes by connectivity (degree over N-1).  The flow
proxy routes every junction's demand to its nearest reservoir over the pipe
graph, approximating how much water transits each node.  Blending the two,
max-normalized, gives the weight field that drives gateway placement.
"""

from pathlib import Path

import numpy as np

from hydrolora import (
    build_adjacency,
    degree_centrality,
    flow_proxy,
    graph_stats,
    placement_weights,
    read_inp,
    synthetic_wds,
)

out = Path("demo_out")
out.mkdir(exist_ok=True)
inp_path = out / "demo_network.inp"
if not inp_path.exists():
    inp_path.write_text(synthetic_wds(n_nodes=200, n_clusters=5, seed=42))

net = read_inp(inp_path)
adj = build_adjacency(net)
print("graph:", graph_stats(adj))

cv = degree_centrality(adj)
top = np.argsort(cv.centrality)[::-1][:5]
print("\nmost connected nodes:")
for i in top:
    print(f"  {cv.node_ids[i]}: degree={cv.degree[i]}, centrality={cv.centrality[i]:.4f}")

proxy = flow_proxy(net, adj)
busiest = np.argsort(proxy.values)[::-1][:5]
print("\nbusiest nodes by proxied flow (demand routed to nearest source):")
for i in busiest:
    print(f"  {cv.node_ids[i]}: proxy flow={proxy.values[i]:.2f}")
if proxy.unreachable:
    print("  unreachable demand at:", proxy.unreachable)

print("\nblend sensitivity (weight = alpha*centrality + (1-alpha)*flow, both max-normalized):")
for alpha in (0.0, 0.5, 1.0):
    fw = placement_weights(cv, proxy.values, alpha=alpha)
    leader = int(np.argmax(fw.weight))
    print(f"  alpha={alpha:3.1f}: heaviest node {cv.node_ids[leader]} (weight {fw.weight[leader]:.3f})")
