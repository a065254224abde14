"""Parse an EPANET INP file into a validated water network.

Generates a synthetic clustered system first so the demo is self-contained,
then shows what the parser reports: node/link counts by kind, the coordinate
bounding box, and warnings for sections it deliberately skips.
"""

import json
from pathlib import Path

from hydrolora import read_inp, synthetic_wds

out = Path("demo_out")
out.mkdir(exist_ok=True)

inp_path = out / "demo_network.inp"
inp_path.write_text(synthetic_wds(n_nodes=200, n_clusters=5, seed=42))
print(f"wrote {inp_path} ({inp_path.stat().st_size} bytes)")

net = read_inp(inp_path)
print("\nnetwork summary:")
print(json.dumps(net.summary(), indent=2))

# Nodes and links are record arrays in file order: read a whole column at once.
nodes, head = net.nodes, net.nodes[:3]
print("\nfirst three nodes (file order is preserved):")
for node_id, kind, demand, (x, y) in zip(head.id, head.kind, head.base_demand, head.position):
    print(f"  {node_id}: {kind}, demand={demand}, at ({x}, {y})")

print("\nfirst three links, endpoints as node row indices and as ids:")
links = net.links[:3]
for link_id, i, j, length in zip(links.id, links.from_index, links.to_index, links.length):
    print(f"  {link_id}: {i} -> {j} ({nodes.id[i]} -> {nodes.id[j]}), length {length} m")

# The parser refuses silent damage: dangling endpoints, duplicate ids,
# self-loops, or nodes without coordinates all raise typed errors.
from hydrolora import tokenize_inp, build_network
from hydrolora.errors import DanglingEndpoint

broken = "[JUNCTIONS]\n J1 100 5\n[PIPES]\n P1 J1 GHOST 10 0.3 130\n[COORDINATES]\n J1 0 0\n"
try:
    build_network(tokenize_inp(broken))
except DanglingEndpoint as exc:
    print(f"\nbroken file rejected as expected -> {type(exc).__name__}: {exc}")
