"""Per-node hydraulic features and placement weights.

Two routes produce a per-node flow figure: ingesting externally simulated
results (CSV, schema below), or a topology-only proxy that routes each
junction's demand to its nearest source over unweighted shortest paths.  The
flow is then blended with degree centrality into a placement weight.

CSV schemas (header row required, UTF-8, '.' decimal separator):
  node file:  time_s,node_id,pressure,demand
  link file:  time_s,link_id,flow
Both files must share one strictly increasing timestamp grid; every value
must be a finite number.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .csvio import floats, text, write_csv
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


def _read_long_csv(path, required: list[str]) -> dict[str, np.ndarray]:
    """Read a long-format CSV into one array per id, ids in first-seen order.

    Each array row holds the numeric columns of ``required`` in order, then
    its line number.  A short row or a field that is not a finite number
    raises SchemaMismatch naming the file and line.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaMismatch(f"{path}: empty file, header row required")
            missing = [col for col in required if col not in header]
            if missing:
                raise SchemaMismatch(f"{path}: missing required column(s) {missing}")
            id_pos = header.index(required[1])
            value_pos = [header.index(col) for col in required if col != required[1]]
            rows: dict[str, list[list[float]]] = {}
            for row in reader:
                if row:
                    entity = row[id_pos]
                    values = [float(row[p]) for p in value_pos]
                    values.append(reader.line_num)
                    if entity in rows:
                        rows[entity].append(values)
                    else:
                        rows[entity] = [values]
        except IndexError:
            raise SchemaMismatch(f"{path}, line {reader.line_num}: {len(row)} field(s), "
                                 f"header has {len(header)}") from None
        except UnicodeDecodeError as exc:  # text is decoded in blocks, so no line number
            raise SchemaMismatch(f"{path}: not valid UTF-8: {exc}") from None
        except (ValueError, csv.Error) as exc:
            raise SchemaMismatch(f"{path}, line {reader.line_num}: {exc}") from None
    tables = {}
    for entity, values in rows.items():
        table = tables[entity] = np.array(values)
        if not np.isfinite(table).all():
            line = int(table[~np.isfinite(table).all(axis=1), -1][0])
            raise SchemaMismatch(f"{path}, line {line}: non-finite value for {entity!r}")
    return tables


def _series_grid(path, tables) -> np.ndarray:
    """Validate a shared strictly-increasing time grid across all series."""
    grid = None
    for entity, table in tables.items():
        times = table[:, 0]
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
    node_rows = _read_long_csv(node_csv, ["time_s", "node_id", "pressure", "demand"])
    link_rows = _read_long_csv(link_csv, ["time_s", "link_id", "flow"])

    for entity in node_rows:
        if entity not in net.node_index:
            raise UnknownId(f"node {entity!r} not in network")
    link_row = dict(zip(net.links.id.tolist(), range(len(net.links))))
    for entity in link_rows:
        if entity not in link_row:
            raise UnknownId(f"link {entity!r} not in network")

    node_grid = _series_grid(node_csv, node_rows)
    link_grid = _series_grid(link_csv, link_rows)
    if len(node_grid) and len(link_grid) and not (
        len(node_grid) == len(link_grid) and np.array_equal(node_grid, link_grid)
    ):
        raise SchemaMismatch("node and link files do not share one timestamp grid")
    grid = node_grid if len(node_grid) else link_grid

    pressure = {e: table[:, 1] for e, table in node_rows.items()}
    demand = {e: table[:, 2] for e, table in node_rows.items()}
    flow = {e: table[:, 1] for e, table in link_rows.items()}

    # Each link's mean absolute flow goes to its from node, then its to node,
    # link by link in flow-file order.
    links = net.links[[link_row[link_id] for link_id in flow]]
    mean_abs = [float(np.mean(np.abs(series))) for series in flow.values()]
    node_flow = np.zeros(net.node_count, dtype=np.float64)
    np.add.at(node_flow, np.stack([links.from_index, links.to_index], axis=1).ravel(), np.repeat(mean_abs, 2))
    node_flow /= 2.0

    return HydraulicSeries(timestamps=grid, pressure=pressure, demand=demand, flow=flow, node_flow=node_flow)


def export_hydraulic_csv(series: HydraulicSeries, node_csv, link_csv) -> None:
    """Write a HydraulicSeries back out in the ingest schema.

    Rows are time-major with ids in series order, which round-trips files
    produced by this writer byte-identically.
    """
    times = np.asarray(series.timestamps, dtype=np.float64)
    for path, header, columns in ((node_csv, "time_s,node_id,pressure,demand", (series.pressure, series.demand)),
                                  (link_csv, "time_s,link_id,flow", (series.flow,))):
        ids = list(columns[0])
        id_fields, every_id = text(ids)
        write_csv(path, header, [floats(np.repeat(times, len(ids))), (id_fields, np.tile(every_id, len(times)))] + [
            floats(np.reshape([column[e] for e in ids], (len(ids), len(times))).T.ravel()) for column in columns])


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
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            values[p] += values[v]

    unreachable = net.nodes.id[~seen & (net.nodes.base_demand > 0)].tolist()
    return ProxyFlow(values=values, unreachable=unreachable)


def _shortest_by_length(net: WaterNetwork, adj: Adjacency, sources: list[int]):
    """Multi-source Dijkstra over pipe lengths; settle order breaks ties by
    node file order, parallel links take the shortest length."""
    import heapq

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


def placement_weights(cv: CentralityVector, flows: np.ndarray, alpha: float = 0.5) -> FlowWeight:
    """Blend centrality and flow into per-node placement weights.

    Both terms are max-normalized to [0, 1] and combined convexly:
    weight = alpha * centrality_norm + (1 - alpha) * flow_norm.
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
    return FlowWeight(flow_norm=f_norm, weight=alpha * c_norm + (1.0 - alpha) * f_norm)


def weights_csv(cv: CentralityVector, flows, fw: FlowWeight, path=None) -> None:
    """Write ``node_id,centrality,flow,weight`` rows to ``path``, or to stdout when None."""
    write_csv(path, "node_id,centrality,flow,weight",
              [text(cv.node_ids), floats(cv.centrality), floats(flows), floats(fw.weight)])
