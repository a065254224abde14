"""Per-node hydraulic features and placement weights.

Two routes produce a per-node flow figure: ingesting externally simulated
results (CSV, schema below), or a topology-only proxy that routes each
junction's demand to its nearest source over unweighted shortest paths.  The
flow is then blended with degree centrality into a placement weight.

CSV schemas (header row required, UTF-8, '.' decimal separator):
  node file:  time_s,node_id,pressure,demand
  link file:  time_s,link_id,flow
Both files must share one strictly increasing timestamp grid.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NonMonotoneTimestamps, NoSource, SchemaMismatch, UnknownId
from .graph import Adjacency, CentralityVector
from .inp import WaterNetwork


@dataclass
class HydraulicSeries:
    """Time series of hydraulic quantities plus the node-flow aggregate.

    ``node_flow`` is the time-mean of the summed absolute flow through each
    node's incident links, halved so a through-flow is not counted twice.
    It is aligned with the network's node order.
    """

    timestamps: np.ndarray
    pressure: dict[str, np.ndarray]
    demand: dict[str, np.ndarray]
    flow: dict[str, np.ndarray]
    node_flow: np.ndarray


@dataclass
class ProxyFlow:
    """Proxy flow per node (network node order) and unreachable demand ids."""

    values: np.ndarray
    unreachable: list[str]


@dataclass
class FlowWeight:
    """Max-normalized flow and the blended placement weight, node order."""

    flow_norm: np.ndarray
    weight: np.ndarray


def _read_long_csv(path, required: list[str]) -> tuple[list[str], dict[str, list[list[float]]]]:
    """Read a long-format CSV into per-id value columns, preserving id order.

    Returns (ids in first-seen order, id -> list of [time, value, ...] rows).
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch(f"{path}: empty file, header row required") from None
        missing = [col for col in required if col not in header]
        if missing:
            raise SchemaMismatch(f"{path}: missing required column(s) {missing}")
        pos = {col: header.index(col) for col in required}
        ids: list[str] = []
        rows: dict[str, list[list[float]]] = {}
        id_col = required[1]
        for row in reader:
            if not row:
                continue
            entity = row[pos[id_col]]
            if entity not in rows:
                ids.append(entity)
                rows[entity] = []
            rows[entity].append([float(row[pos[c]]) for c in required if c != id_col])
    return ids, rows


def _series_grid(path, ids, rows) -> np.ndarray:
    """Validate a shared strictly-increasing time grid across all series."""
    grid = None
    for entity in ids:
        times = np.array([r[0] for r in rows[entity]], dtype=np.float64)
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise NonMonotoneTimestamps(f"{path}: timestamps for {entity!r} are not strictly increasing")
        if grid is None:
            grid = times
        elif len(times) != len(grid) or not np.array_equal(times, grid):
            raise SchemaMismatch(f"{path}: series {entity!r} does not share the common timestamp grid")
    return grid if grid is not None else np.array([], dtype=np.float64)


def ingest_hydraulic_csv(node_csv, link_csv, net: WaterNetwork) -> HydraulicSeries:
    """Load externally simulated hydraulic results for a network.

    Every id must resolve against the network.  Links absent from the flow
    file contribute zero flow to their endpoints.
    """
    node_ids, node_rows = _read_long_csv(node_csv, ["time_s", "node_id", "pressure", "demand"])
    link_ids, link_rows = _read_long_csv(link_csv, ["time_s", "link_id", "flow"])

    index = net.node_index
    for entity in node_ids:
        if entity not in index:
            raise UnknownId(f"node {entity!r} not in network")
    link_index = {link.id: link for link in net.links}
    for entity in link_ids:
        if entity not in link_index:
            raise UnknownId(f"link {entity!r} not in network")

    node_grid = _series_grid(node_csv, node_ids, node_rows)
    link_grid = _series_grid(link_csv, link_ids, link_rows)
    if len(node_grid) and len(link_grid) and not (
        len(node_grid) == len(link_grid) and np.array_equal(node_grid, link_grid)
    ):
        raise SchemaMismatch("node and link files do not share one timestamp grid")
    grid = node_grid if len(node_grid) else link_grid

    pressure = {e: np.array([r[1] for r in node_rows[e]]) for e in node_ids}
    demand = {e: np.array([r[2] for r in node_rows[e]]) for e in node_ids}
    flow = {e: np.array([r[1] for r in link_rows[e]]) for e in link_ids}

    node_flow = np.zeros(net.node_count, dtype=np.float64)
    for link_id, series in flow.items():
        link = link_index[link_id]
        mean_abs = float(np.mean(np.abs(series))) if len(series) else 0.0
        node_flow[index[link.from_node]] += mean_abs
        node_flow[index[link.to_node]] += mean_abs
    node_flow /= 2.0

    return HydraulicSeries(timestamps=grid, pressure=pressure, demand=demand, flow=flow, node_flow=node_flow)


def export_hydraulic_csv(series: HydraulicSeries, node_csv, link_csv) -> None:
    """Write a HydraulicSeries back out in the ingest schema.

    Rows are time-major with ids in series order, which round-trips files
    produced by this writer byte-identically.
    """
    def fmt(value: float) -> str:
        return repr(float(value))

    with open(node_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "node_id", "pressure", "demand"])
        for t_idx, t in enumerate(series.timestamps):
            for entity in series.pressure:
                writer.writerow([fmt(t), entity, fmt(series.pressure[entity][t_idx]),
                                 fmt(series.demand[entity][t_idx])])
    with open(link_csv, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "link_id", "flow"])
        for t_idx, t in enumerate(series.timestamps):
            for entity in series.flow:
                writer.writerow([fmt(t), entity, fmt(series.flow[entity][t_idx])])


def flow_proxy(net: WaterNetwork, adj: Adjacency, weight_by_length: bool = False) -> ProxyFlow:
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
    sources = [i for i, node in enumerate(net.nodes) if node.kind in ("reservoir", "tank")]
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
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            values[p] += values[v]

    unreachable = [net.nodes[i].id for i in range(n) if not seen[i] and net.nodes[i].base_demand > 0]
    return ProxyFlow(values=values, unreachable=unreachable)


def _shortest_by_length(net: WaterNetwork, adj: Adjacency, sources: list[int]):
    """Multi-source Dijkstra over pipe lengths; settle order breaks ties by
    node file order, parallel links take the shortest length."""
    import heapq

    index = net.node_index
    length_of: dict[tuple[int, int], float] = {}
    for link in net.links:
        i, j = index[link.from_node], index[link.to_node]
        pair = (i, j) if i < j else (j, i)
        length = link.length if link.length is not None else 0.0
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


def placement_weights(cv: CentralityVector, flows: np.ndarray, alpha: float = 0.5) -> FlowWeight:
    """Blend centrality and flow into per-node placement weights.

    Both terms are max-normalized to [0, 1] and combined convexly:
    weight = alpha * centrality_norm + (1 - alpha) * flow_norm.  The result
    is also written into ``cv.weight``.
    """
    flows = np.asarray(flows, dtype=np.float64)
    if len(flows) != len(cv.centrality):
        raise ValueError(f"flow vector length {len(flows)} != node count {len(cv.centrality)}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    c_max = float(cv.centrality.max())
    c_norm = cv.centrality / c_max if c_max > 0 else np.zeros_like(cv.centrality)
    f_max = float(flows.max())
    f_norm = flows / f_max if f_max > 0 else np.zeros_like(flows)
    weight = alpha * c_norm + (1.0 - alpha) * f_norm
    cv.weight = weight.copy()
    return FlowWeight(flow_norm=f_norm, weight=weight)


def weights_csv(cv: CentralityVector, flows, fw: FlowWeight, out) -> None:
    """Write ``node_id,centrality,flow,weight`` rows to a writable text stream."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["node_id", "centrality", "flow", "weight"])
    writer.writerows([node_id, repr(float(c)), repr(float(f)), repr(float(w))]
                     for node_id, c, f, w in zip(cv.node_ids, cv.centrality, flows, fw.weight))
