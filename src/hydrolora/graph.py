"""Undirected graph view of a water network and degree centrality.

The adjacency is a symmetric 0/1 structure: an edge exists between two nodes
iff at least one link (pipe, pump, or valve) connects them, parallel links
saturate to a single edge, and the diagonal is zero.  Storage is CSR, one
index array over all nodes (the layout of ``placement._radius_neighbours``);
a dense matrix would not scale to the tens of thousands of nodes this is
meant for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import floats, text, write_csv
from .errors import TooFewNodes
from .inp import WaterNetwork


@dataclass
class Adjacency:
    """Sparse symmetric adjacency over node indices, zero diagonal, as CSR:
    node i's neighbours are ``indices[indptr[i]:indptr[i + 1]]``, ascending."""

    node_ids: np.ndarray  # the network's ``nodes.id`` column
    indptr: np.ndarray  # (n + 1,) offsets into ``indices``
    indices: np.ndarray  # every node's neighbour indices, row after row

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(np.isin(j, self.neighbors(i)).item())


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
    # Both directions of every connected pair, once each, sorted by (from, to); np.unique imports numpy.ma.
    keys = np.sort(np.concatenate([i * n + j, j * n + i]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return Adjacency(node_ids=net.nodes.id, indptr=np.searchsorted(keys // n, np.arange(n + 1)), indices=keys % n)


def breadth_first(adj: Adjacency, sources: list[int], parent: np.ndarray) -> list[int]:
    """Walk breadth-first from ``sources`` over the nodes whose ``parent`` is
    still -1; return the nodes reached, in FIFO discovery order, each node's
    neighbours taken ascending.  Each source becomes its own parent, and every
    other node reached gets the node that discovered it."""
    indptr, indices = adj.indptr, adj.indices
    order = list(sources)
    parent[order] = order
    for u in order:  # ``order`` grows while it is walked: it is the queue
        for v in indices[indptr[u]:indptr[u + 1]]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return order


def degree_centrality(adj: Adjacency) -> CentralityVector:
    """Degree centrality of every node: degree over N-1."""
    if adj.n < 2:
        raise TooFewNodes(f"need at least 2 nodes, got {adj.n}")
    degree = adj.degrees()
    centrality = degree / (adj.n - 1)
    return CentralityVector(node_ids=list(adj.node_ids), degree=degree, centrality=centrality)


def connected_components(adj: Adjacency) -> np.ndarray:
    """Component label per node, numbered in order of each component's
    lowest node index."""
    labels = np.empty(adj.n, dtype=np.int64)
    parent = np.full(adj.n, -1, dtype=np.int64)
    current = 0
    for start in range(adj.n):
        if parent[start] < 0:
            labels[breadth_first(adj, [start], parent)] = current
            current += 1
    return labels


def graph_stats(adj: Adjacency) -> dict:
    """Edge count, degree range and mean, and connected component count."""
    degree = adj.degrees()
    return {
        "edges": adj.edge_count,
        "degree_min": int(degree.min()),
        "degree_max": int(degree.max()),
        "degree_mean": float(degree.mean()),
        "components": int(connected_components(adj).max()) + 1,
    }


def centrality_csv(cv: CentralityVector, path=None) -> None:
    """Write ``node_id,degree,centrality`` rows to ``path``, or to stdout when None."""
    write_csv(path, "node_id,degree,centrality",
              [text(cv.node_ids), (None, np.asarray(cv.degree, dtype=np.int64)), floats(cv.centrality)])
