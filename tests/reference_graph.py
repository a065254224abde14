"""Reference oracle: the pipe graph as one neighbour array per node, kept verbatim.

These are ``build_adjacency``, ``connected_components``, ``graph_stats`` and
``flow_proxy`` with ``_shortest_by_length`` as they stood before the
adjacency became CSR arrays in ``hydrolora.graph``: ``np.split`` into one
sorted index array per node, a ``deque`` breadth-first loop in each of
``connected_components`` and ``flow_proxy``, and a Dijkstra that looks each
link's length up in a dict keyed by node pair.  ``test_graph_oracle.py``
requires the shipped graph code to return equal results on every network.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from hydrolora.errors import NoSource
from hydrolora.hydraulics import ProxyFlow
from hydrolora.inp import WaterNetwork


@dataclass
class ListAdjacency:
    node_ids: np.ndarray
    neighbors: list[np.ndarray]  # sorted index arrays, one per node

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degrees(self) -> np.ndarray:
        return np.array([len(nb) for nb in self.neighbors], dtype=np.int64)


def build_adjacency(net: WaterNetwork) -> ListAdjacency:
    n = net.node_count
    i, j = net.links.from_index, net.links.to_index
    keys = np.unique(np.concatenate([i * n + j, j * n + i]))
    neighbors = np.split(keys % n, np.searchsorted(keys // n, np.arange(1, n)))
    return ListAdjacency(node_ids=net.nodes.id, neighbors=neighbors)


def connected_components(adj: ListAdjacency) -> np.ndarray:
    labels = np.full(adj.n, -1, dtype=np.int64)
    current = 0
    for start in range(adj.n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj.neighbors[u]:
                if labels[v] < 0:
                    labels[v] = current
                    queue.append(int(v))
        current += 1
    return labels


def graph_stats(adj: ListAdjacency) -> dict:
    degree = adj.degrees()
    n_components = int(connected_components(adj).max()) + 1
    return {
        "edges": adj.edge_count,
        "degree_min": int(degree.min()),
        "degree_max": int(degree.max()),
        "degree_mean": float(degree.mean()),
        "components": n_components,
    }


def flow_proxy(net: WaterNetwork, adj: ListAdjacency, weight_by_length: bool = False) -> ProxyFlow:
    """Topology-only stand-in for hydraulic flow.

    Each junction's base demand travels to its nearest reservoir or tank
    along shortest paths; a node's proxy flow is the total demand transiting
    it, its own included, and sources accumulate everything they serve.
    Junctions that cannot reach any source keep zero proxy and are reported.

    By default distance is hop count (breadth-first, ties broken by node
    file order).  With ``weight_by_length`` paths minimize summed pipe
    length instead; pumps and valves count as zero-length connections.
    """
    n = net.node_count
    sources = np.flatnonzero(np.isin(net.nodes.kind, ("reservoir", "tank"))).tolist()
    if not sources:
        raise NoSource("no reservoir or tank in network")

    if weight_by_length:
        parent, order, seen = _shortest_by_length(net, adj, sources)
    else:
        parent = np.full(n, -1, dtype=np.int64)
        seen = np.zeros(n, dtype=bool)
        order: list[int] = []
        queue = deque(sources)
        seen[sources] = True
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in adj.neighbors[u]:  # ascending index = file order
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(int(v))

    values = np.where(seen, net.demands(), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # placement_weights rejects the non-finite sums
        for v in reversed(order):
            p = parent[v]
            if p >= 0:
                values[p] += values[v]

    unreachable = net.nodes.id[~seen & (net.nodes.base_demand > 0)].tolist()
    return ProxyFlow(values=values, unreachable=unreachable)


def _shortest_by_length(net: WaterNetwork, adj: ListAdjacency, sources: list[int]):
    """Multi-source Dijkstra over pipe lengths; settle order breaks ties by
    node file order, parallel links take the shortest length."""
    length_of: dict[tuple[int, int], float] = {}
    lengths = np.nan_to_num(net.links.length, nan=0.0)  # pumps and valves count as zero length
    for i, j, length in zip(net.links.from_index.tolist(), net.links.to_index.tolist(), lengths.tolist()):
        pair = (i, j) if i < j else (j, i)
        length_of[pair] = min(length, length_of.get(pair, math.inf))

    n = net.node_count
    dist = np.full(n, math.inf)
    parent = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    order: list[int] = []
    heap = [(0.0, s) for s in sources]
    dist[sources] = 0.0
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if seen[u] or d > dist[u]:
            continue
        seen[u] = True
        order.append(u)
        for v in adj.neighbors[u]:
            pair = (u, int(v)) if u < v else (int(v), u)
            candidate = d + length_of[pair]
            if candidate < dist[v]:
                dist[v] = candidate
                parent[v] = u
                heapq.heappush(heap, (candidate, int(v)))
    return parent, order, seen
