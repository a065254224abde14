"""Undirected graph view of a water network and degree centrality.

The adjacency is a symmetric 0/1 structure: an edge exists between two nodes
iff at least one link (pipe, pump, or valve) connects them, parallel links
saturate to a single edge, and the diagonal is zero.  Storage is sparse
neighbor lists; a dense matrix would not scale to the tens of thousands of
nodes this is meant for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .csvio import floats, text, write_csv
from .errors import TooFewNodes
from .inp import WaterNetwork


@dataclass
class Adjacency:
    """Sparse symmetric adjacency over node indices, zero diagonal."""

    node_ids: np.ndarray  # the network's ``nodes.id`` column
    neighbors: list[np.ndarray]  # sorted index arrays, one per node

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degrees(self) -> np.ndarray:
        return np.array([len(nb) for nb in self.neighbors], dtype=np.int64)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(np.isin(j, self.neighbors[i]).item())


@dataclass
class CentralityVector:
    """Per-node degree and degree centrality: degree divided by N-1, the
    maximum possible degree."""

    node_ids: list[str]
    degree: np.ndarray
    centrality: np.ndarray


def build_adjacency(net: WaterNetwork) -> Adjacency:
    """Build the undirected adjacency of a network.

    Pumps and valves count as edges exactly like pipes; only the existence of
    a connection matters for the topology metric.
    """
    n = net.node_count
    if n < 2:
        raise TooFewNodes(f"need at least 2 nodes, got {n}")
    i, j = net.links.from_index, net.links.to_index
    # Both directions of every connected pair, once each, sorted by (from, to).
    keys = np.unique(np.concatenate([i * n + j, j * n + i]))
    neighbors = np.split(keys % n, np.searchsorted(keys // n, np.arange(1, n)))
    return Adjacency(node_ids=net.nodes.id, neighbors=neighbors)


def degree_centrality(adj: Adjacency) -> CentralityVector:
    """Degree centrality of every node: degree over N-1."""
    if adj.n < 2:
        raise TooFewNodes(f"need at least 2 nodes, got {adj.n}")
    degree = adj.degrees()
    centrality = degree / (adj.n - 1)
    return CentralityVector(node_ids=list(adj.node_ids), degree=degree, centrality=centrality)


def connected_components(adj: Adjacency) -> np.ndarray:
    """Component label per node via breadth-first traversal, deterministic."""
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


@dataclass(frozen=True)
class GraphStats:
    edge_count: int
    degree_min: int
    degree_max: int
    degree_mean: float
    components: int

    def as_dict(self) -> dict:
        return {
            "edges": self.edge_count,
            "degree_min": self.degree_min,
            "degree_max": self.degree_max,
            "degree_mean": self.degree_mean,
            "components": self.components,
        }


def graph_stats(adj: Adjacency) -> GraphStats:
    degree = adj.degrees()
    n_components = int(connected_components(adj).max()) + 1
    return GraphStats(
        edge_count=adj.edge_count,
        degree_min=int(degree.min()),
        degree_max=int(degree.max()),
        degree_mean=float(degree.mean()),
        components=n_components,
    )


def centrality_csv(cv: CentralityVector, path=None) -> None:
    """Write ``node_id,degree,centrality`` rows to ``path``, or to stdout when None."""
    write_csv(path, "node_id,degree,centrality",
              [text(cv.node_ids), (None, np.asarray(cv.degree, dtype=np.int64)), floats(cv.centrality)])
