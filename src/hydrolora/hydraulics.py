"""Per-node hydraulic features and placement weights.

Two routes produce a per-node flow figure: ingesting externally simulated
results (CSV, schema below), or a topology-only proxy that routes each
junction's demand to its nearest source over unweighted shortest paths.  The
flow is then blended with degree centrality into a placement weight.

CSV schemas (header row required, UTF-8, '.' decimal separator):
  node file:  time_s,node_id,pressure,demand
  link file:  time_s,link_id,flow
Both files must share one strictly increasing timestamp grid; every value
must be a finite number.  Fields are split as ``csv.reader`` splits them and
numbers read as ``float`` reads them.  Plain text is parsed by numpy's text
reader a block at a time; a file with a '"', a lone "\\r", a NUL, a byte
0x1C-0x1F, bytes that are not UTF-8, a line longer than csv's field size
limit, a number spelled with "_" or non-ASCII digits, or any fault is read
row by row with ``csv.reader`` instead, to the same result or error.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .csvio import floats, text, write_csv
from .errors import NonFiniteFlow, NonMonotoneTimestamps, NoSource, SchemaMismatch, UnknownId
from .graph import Adjacency, CentralityVector, breadth_first
from .inp import WaterNetwork

# Bytes of CSV read and parsed at a time.  io.StringIO holds a block at four
# bytes a character.  Blocks this small keep each block's transients smaller
# than the columns, which grow by realloc: so malloc maps the columns apart
# from the heap the transients reuse, and ingest leaves little of it resident.
_CHARS_PER_BLOCK = 1 << 16


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


class _Ranks(dict):
    """Each key's rank in order of first lookup, given on that lookup."""

    def __missing__(self, key):
        self[key] = rank = len(self)
        return rank


def _read_long_csv(path, required: list[str]) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """Read a long-format CSV column by column.

    Returns the ids in first-seen order, each row's index into them, and one
    float array per numeric column of ``required`` in order.  Fields are
    split as ``csv.reader`` splits them and numbers parsed by ``float``.

    ``_read_plain`` reads plain text, "\\n" or "\\r\\n" line ends, a block of
    bytes at a time with numpy's text reader.  Every other file, every file
    with a fault and every file with a number that ``float`` reads and numpy
    does not ("1_0", non-ASCII digits) is read by ``_read_rows``, which gives
    the same result, or raises the SchemaMismatch of the first fault.
    """
    read = _read_plain(path, required)
    return read if read is not None else _read_rows(path, required)


def _read_plain(path, required: list[str]):
    """``_read_long_csv``'s result, read a block of lines at a time, for text
    whose lines ``csv.reader`` splits on "," alone; None for any other file
    and at the first fault, which ``_read_rows`` then words.

    A block is ``_CHARS_PER_BLOCK`` bytes and the rest of their last line, so
    it never splits a UTF-8 sequence, and its "\\r\\n" become "\\n".
    ``np.loadtxt`` splits it and parses its numbers with the routine that
    ``float`` uses; its ids are numbered as they are first seen, and its
    columns appended to one growing array each.  None at a '"', a lone
    "\\r", a NUL, a byte 0x1C-0x1F (numpy strips these around a number,
    ``float`` does not), bytes that are not UTF-8, a line longer than csv's
    field size limit, a row without one of the columns read, a number numpy
    does not parse or a non-finite value.
    """
    limit = csv.field_size_limit()

    def text_of(block: bytes) -> str | None:
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if "\r" in text:  # a scan for "\r\n" alone costs about a tenth of the block's parse
            text = text.replace("\r\n", "\n")
        if any(c in text for c in '"\r\x00\x1c\x1d\x1e\x1f') or (
                len(text) > limit and max(map(len, text.split("\n"))) > limit):
            return None
        return text

    with open(path, "rb") as handle:
        head = text_of(handle.readline())
        header = head.removesuffix("\n").split(",") if head is not None else []
        if any(col not in header for col in required):
            return None
        names = [col for col in required if col != required[1]]
        usecols = [header.index(required[1])] + [header.index(col) for col in names]
        row = np.dtype([("id", object)] + [(col, np.float64) for col in names])
        rank = _Ranks()
        codes, columns = array("q"), [array("d") for _ in names]
        while block := handle.read(_CHARS_PER_BLOCK) + handle.readline():
            text = text_of(block)
            if text is None:
                return None
            if not text.strip("\n"):
                continue  # blank lines only, which np.loadtxt warns about
            try:
                table = np.loadtxt(io.StringIO(text), row, delimiter=",", comments=None, quotechar=None,
                                   usecols=usecols, ndmin=1)
            except ValueError:
                return None
            if not all(np.isfinite(table[col]).all() for col in names):
                return None
            codes.frombytes(np.fromiter(map(rank.__getitem__, table["id"]), np.int64, count=len(table)).tobytes())
            for column, col in zip(columns, names):
                column.frombytes(table[col].tobytes())
    return list(rank), np.frombuffer(codes, np.int64), [np.frombuffer(column) for column in columns]


def _read_rows(path, required: list[str]) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """``_read_long_csv``'s result, read row by row with ``csv.reader``, or the
    SchemaMismatch of the file's first fault.

    The checks run in row order: the header, then each row's width, numbers
    and CSV syntax (UTF-8 is decoded in blocks, so a bad byte names no line),
    then, for the first id in first-seen order that has one, the line of its
    first non-finite value.
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
            rank: dict[str, int] = {}
            non_finite: dict[int, int] = {}  # an id's code, then the line of its first non-finite value
            codes, values = array("q"), array("d")
            for row in reader:
                if row:
                    code = rank.setdefault(row[id_pos], len(rank))
                    row_values = [float(row[p]) for p in value_pos]
                    if not all(map(math.isfinite, row_values)):
                        non_finite.setdefault(code, reader.line_num)
                    codes.append(code)
                    values.extend(row_values)
        except IndexError:
            raise SchemaMismatch(f"{path}, line {reader.line_num}: {len(row)} field(s), "
                                 f"header has {len(header)}") from None
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"{path}: not valid UTF-8: {exc}") from None
        except (ValueError, csv.Error) as exc:
            raise SchemaMismatch(f"{path}, line {reader.line_num}: {exc}") from None
    if non_finite:
        code = min(non_finite)
        raise SchemaMismatch(f"{path}, line {non_finite[code]}: non-finite value for {list(rank)[code]!r}")
    table = np.array(values, dtype=np.float64).reshape(len(codes), len(value_pos))
    return list(rank), np.array(codes, dtype=np.int64), list(table.T)


def _series_grid(path, entities: list[str], codes: np.ndarray, columns: list[np.ndarray]) -> list[np.ndarray]:
    """Group each column into an (ids x steps) matrix, ids in first-seen order
    and each id's rows in file order, after checking that every id has the
    same strictly increasing times.  Column 0 holds the times."""
    order = np.argsort(codes, kind="stable")
    columns = [column[order] for column in columns]
    counts = np.bincount(codes, minlength=len(entities))
    steps = int(counts[0]) if len(entities) else 0
    if (counts == steps).all():
        matrices = [column.reshape(len(entities), steps) for column in columns]
        times = matrices[0]
        if (np.diff(times, axis=1) > 0).all() and (times == times[:1]).all():
            return matrices
    # Name the first id, in first-seen order, whose times fail either check.
    grid = None
    for entity, times in zip(entities, np.split(columns[0], np.cumsum(counts)[:-1])):
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise NonMonotoneTimestamps(f"{path}: timestamps for {entity!r} are not strictly increasing")
        if grid is None:
            grid = times
        elif len(times) != len(grid) or not np.array_equal(times, grid):
            raise SchemaMismatch(f"{path}: series {entity!r} does not share the common timestamp grid")
    raise AssertionError(f"{path}: the per-id grid checks accept what the matrix checks rejected")


def ingest_hydraulic_csv(node_csv, link_csv, net: WaterNetwork) -> HydraulicSeries:
    """Load externally simulated hydraulic results for a network.

    Every id must resolve against the network.  Links absent from the flow
    file contribute zero flow to their endpoints.  The series values are
    rows of one (ids x steps) matrix per quantity.
    """
    node_ids, node_codes, node_columns = _read_long_csv(node_csv, ["time_s", "node_id", "pressure", "demand"])
    link_ids, link_codes, link_columns = _read_long_csv(link_csv, ["time_s", "link_id", "flow"])

    for entity in node_ids:
        if entity not in net.node_index:
            raise UnknownId(f"node {entity!r} not in network")
    link_row = dict(zip(net.links.id.tolist(), range(len(net.links))))
    for entity in link_ids:
        if entity not in link_row:
            raise UnknownId(f"link {entity!r} not in network")

    node_times, pressure, demand = _series_grid(node_csv, node_ids, node_codes, node_columns)
    link_times, flow = _series_grid(link_csv, link_ids, link_codes, link_columns)
    node_grid = node_times[0] if node_ids else np.array([], dtype=np.float64)
    link_grid = link_times[0] if link_ids else np.array([], dtype=np.float64)
    if len(node_grid) and len(link_grid) and not (
        len(node_grid) == len(link_grid) and np.array_equal(node_grid, link_grid)
    ):
        raise SchemaMismatch("node and link files do not share one timestamp grid")
    grid = node_grid if len(node_grid) else link_grid

    # Each link's mean absolute flow goes to its from node, then its to node,
    # link by link in flow-file order.
    links = net.links[[link_row[link_id] for link_id in link_ids]]
    node_flow = np.zeros(net.node_count, dtype=np.float64)
    with np.errstate(over="ignore"):  # placement_weights rejects a sum past the float range
        mean_abs = np.abs(flow).mean(axis=1) if link_ids else np.zeros(0)
        np.add.at(node_flow, np.stack([links.from_index, links.to_index], axis=1).ravel(), np.repeat(mean_abs, 2))
    node_flow /= 2.0

    return HydraulicSeries(timestamps=grid, pressure=dict(zip(node_ids, pressure)),
                           demand=dict(zip(node_ids, demand)), flow=dict(zip(link_ids, flow)),
                           node_flow=node_flow)


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
    sources = np.flatnonzero(np.isin(net.nodes.kind, ("reservoir", "tank"))).tolist()
    if not sources:
        raise NoSource("no reservoir or tank in network")

    parent = np.full(net.node_count, -1, dtype=np.int64)
    if weight_by_length:
        order = _shortest_by_length(net, adj, sources, parent)
    else:
        order = breadth_first(adj, sources, parent)  # ties go to the lower index = file order

    seen = parent >= 0
    values = np.where(seen, net.demands(), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # placement_weights rejects the non-finite sums
        for v in reversed(order):
            p = parent[v]
            if p != v:
                values[p] += values[v]

    unreachable = net.nodes.id[~seen & (net.nodes.base_demand > 0)].tolist()
    return ProxyFlow(values=values, unreachable=unreachable)


def _shortest_by_length(net: WaterNetwork, adj: Adjacency, sources: list[int], parent: np.ndarray) -> list[int]:
    """Multi-source Dijkstra over pipe lengths; returns the settle order and
    fills ``parent`` as ``breadth_first`` does.  Ties in distance settle the
    lower node index (file order) first; parallel links take the shortest
    length."""
    import heapq

    n = net.node_count
    i, j = net.links.from_index, net.links.to_index
    # The length of every CSR entry (u, v): the shortest link joining u and v.
    rows = np.repeat(np.arange(n), adj.degrees())
    entry = np.searchsorted(rows * n + adj.indices, np.concatenate([i * n + j, j * n + i]))
    length = np.full(len(adj.indices), math.inf)
    lengths = np.nan_to_num(net.links.length, nan=0.0)  # pumps and valves count as zero length
    np.minimum.at(length, entry, np.concatenate([lengths, lengths]))

    indptr, indices = adj.indptr, adj.indices
    dist = np.full(n, math.inf)
    seen = np.zeros(n, dtype=bool)
    order: list[int] = []
    heap = [(0.0, s) for s in sources]
    dist[sources] = 0.0
    parent[sources] = sources
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if seen[u] or d > dist[u]:
            continue
        seen[u] = True
        order.append(u)
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            candidate = d + length[e]
            if candidate < dist[v]:
                dist[v] = candidate
                parent[v] = u
                heapq.heappush(heap, (candidate, int(v)))
    return order


def placement_weights(cv: CentralityVector, flows: np.ndarray, alpha: float = 0.5) -> FlowWeight:
    """Blend centrality and flow into per-node placement weights.

    Both terms are max-normalized to [0, 1] and combined convexly:
    weight = alpha * centrality_norm + (1 - alpha) * flow_norm.  A
    non-finite flow (either route's sums can overflow) raises NonFiniteFlow.
    """
    flows = np.asarray(flows, dtype=np.float64)
    if len(flows) != len(cv.centrality):
        raise ValueError(f"flow vector length {len(flows)} != node count {len(cv.centrality)}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    non_finite = np.flatnonzero(~np.isfinite(flows))
    if len(non_finite):
        raise NonFiniteFlow(f"flow at node {cv.node_ids[non_finite[0]]!r} is not finite: {flows[non_finite[0]]}")

    c_max = float(cv.centrality.max())
    c_norm = cv.centrality / c_max if c_max > 0 else np.zeros_like(cv.centrality)
    f_max = float(flows.max())
    f_norm = flows / f_max if f_max > 0 else np.zeros_like(flows)
    return FlowWeight(flow_norm=f_norm, weight=alpha * c_norm + (1.0 - alpha) * f_norm)


def weights_csv(cv: CentralityVector, flows, fw: FlowWeight, path=None) -> None:
    """Write ``node_id,centrality,flow,weight`` rows to ``path``, or to stdout when None."""
    write_csv(path, "node_id,centrality,flow,weight",
              [text(cv.node_ids), floats(cv.centrality), floats(flows), floats(fw.weight)])
