"""Reference oracle: the row-by-row hydraulic CSV ingest, kept verbatim.

This is ``ingest_hydraulic_csv`` with its helpers ``_read_long_csv`` and
``_series_grid`` as they stood before the columnar ingest in
``hydrolora.hydraulics`` replaced them: one ``float`` call and one dict
append per row, one array per id, and per-id grid checks.  The differential
test in ``test_hydraulics_oracle.py`` requires the shipped ingest to return
bit-equal series or to raise the same exception with the same message.
"""

from __future__ import annotations

import csv

import numpy as np

from hydrolora.errors import NonMonotoneTimestamps, SchemaMismatch, UnknownId
from hydrolora.hydraulics import HydraulicSeries
from hydrolora.inp import WaterNetwork


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
