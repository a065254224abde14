"""EPANET INP reading: tokenizer and water-network builder.

Targets the EPANET 2.x section grammar.  Only sections that feed topology,
demand, and geometry are interpreted; every other section is kept verbatim in
the token document and surfaces as a warning on the built network instead of
crashing the parse.

Identifiers are compared case-sensitively, as exported files are internally
consistent.  Coordinates are treated as planar meters unless a scale factor
is supplied.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CoordinateOverflow,
    DanglingEndpoint,
    DuplicateId,
    MalformedRow,
    MissingCoordinates,
    MissingSection,
    RowOutsideSection,
    SelfLoop,
    UndecodableText,
)
from .placement import _sq_extent_finite

SUPPORTED_SECTIONS = frozenset(
    {
        "TITLE",
        "JUNCTIONS",
        "RESERVOIRS",
        "TANKS",
        "PIPES",
        "PUMPS",
        "VALVES",
        "DEMANDS",
        "COORDINATES",
        "OPTIONS",
        "TIMES",
    }
)
NODE_SECTIONS = ("JUNCTIONS", "RESERVOIRS", "TANKS")
LINK_SECTIONS = ("PIPES", "PUMPS", "VALVES")


@dataclass(frozen=True, slots=True)
class InpRow:
    """One data row: source line number plus its text, comment and outer
    whitespace removed.  ``tokens`` splits the text on whitespace on every
    access, so a document holds one string per row, not one per token."""

    line: int
    text: str

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.text.split())


@dataclass
class InpDocument:
    """Sectioned token view of an INP file, in file order.

    Section names are normalized to upper case; comment text never reaches
    the tokens.  Repeated headers append to the already-open section.
    """

    sections: dict[str, list[InpRow]] = field(default_factory=dict)

    def rows(self, name: str) -> list[InpRow]:
        return self.sections.get(name.upper(), [])

    def has(self, name: str) -> bool:
        return name.upper() in self.sections


def tokenize_inp(text: str | bytes) -> InpDocument:
    """Split INP text into sections of token rows.

    Headers are recognized case-insensitively in the form ``[NAME]``; ``;``
    starts a comment running to end of line; blank lines are skipped; unknown
    sections are preserved verbatim.  Raises UndecodableText for non-UTF-8
    bytes and RowOutsideSection for data appearing before any header.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UndecodableText(f"input is not valid UTF-8: {exc}") from None

    doc = InpDocument()
    current: list[InpRow] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and "]" in line:
            name = line[1 : line.index("]")].strip().upper()
            current = doc.sections.setdefault(name, [])
            continue
        if current is None:
            raise RowOutsideSection(f"line {lineno}: data before any section header")
        current.append(InpRow(lineno, line))
    return doc


# One row per node and per link, in file order.  Ids and kinds are Python
# strings (object dtype); a link's endpoints are node row indices, and its
# length and diameter are NaN for pumps and valves.
NODE_DTYPE = np.dtype([("id", object), ("kind", object), ("elevation", np.float64),
                       ("base_demand", np.float64), ("position", np.float64, (2,))])
LINK_DTYPE = np.dtype([("id", object), ("kind", object), ("from_index", np.int64), ("to_index", np.int64),
                       ("length", np.float64), ("diameter", np.float64)])


@dataclass
class WaterNetwork:
    """Validated water-distribution network: two record arrays in file order.

    ``nodes`` rows are junctions, reservoirs and tanks: ``elevation`` is the
    head for reservoirs, ``base_demand`` the total over all demand categories
    (0 for sources).  ``links`` rows are pipes, pumps and valves.
    """

    nodes: np.recarray  # NODE_DTYPE
    links: np.recarray  # LINK_DTYPE
    bbox: tuple[float, float, float, float]  # x_min, y_min, x_max, y_max
    warnings: list[str] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_index(self) -> dict[str, int]:
        return dict(zip(self.nodes.id.tolist(), range(len(self.nodes))))

    def coordinates(self) -> np.ndarray:
        """Node positions as an (N, 2) float array, file order."""
        return self.nodes.position.copy()

    def demands(self) -> np.ndarray:
        return self.nodes.base_demand.copy()

    def kind_counts(self) -> dict[str, int]:
        counts = Counter(self.nodes.kind.tolist() + self.links.kind.tolist())
        return {k: counts[k] for k in ("junction", "reservoir", "tank", "pipe", "pump", "valve")}

    def summary(self) -> dict:
        c = self.kind_counts()
        return {
            "nodes": self.node_count,
            "junctions": c["junction"],
            "reservoirs": c["reservoir"],
            "tanks": c["tank"],
            "links": len(self.links),
            "pipes": c["pipe"],
            "pumps": c["pump"],
            "valves": c["valve"],
            "bbox": list(self.bbox),
            "warnings": list(self.warnings),
        }


def _float(section: str, line: int, token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(section, line, f"{what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise MalformedRow(section, line, f"{what} {token!r} is not finite")
    return value


def _fields(section: str, row: InpRow, count: int) -> list[str]:
    """The row's tokens, split once, after checking there are at least ``count``."""
    tokens = row.text.split()
    if len(tokens) < count:
        raise MalformedRow(section, row.line, f"expected at least {count} fields, got {len(tokens)}")
    return tokens


def build_network(doc: InpDocument, coordinate_scale: float = 1.0) -> WaterNetwork:
    """Materialize a validated WaterNetwork from a token document.

    Node and link order follows the file, and each link's endpoints are
    resolved to node row indices here.  Rows in [DEMANDS] add to the
    junction's base demand (demand categories sum).  Self-loops are rejected;
    every node must have a coordinate entry.  Numbers must be finite, and so
    must every coordinate after scaling and the squared diagonal of the bbox,
    which bounds every squared distance placement and the link budget take.
    """
    if not 0 < coordinate_scale < math.inf:
        raise ConfigError(f"coordinate_scale must be finite and positive, got {coordinate_scale}")
    if not (doc.has("JUNCTIONS") or doc.has("RESERVOIRS")):
        raise MissingSection("need at least a [JUNCTIONS] or [RESERVOIRS] section")
    if not any(doc.has(s) for s in LINK_SECTIONS):
        raise MissingSection("need at least one link section ([PIPES], [PUMPS], or [VALVES])")
    if not doc.has("COORDINATES"):
        raise MissingSection("need a [COORDINATES] section")

    warnings = [
        f"unknown section [{name}] skipped ({len(rows)} rows)"
        for name, rows in doc.sections.items()
        if name not in SUPPORTED_SECTIONS
    ]

    # Nodes and links in file order, across sections in their file order.
    kind_of = {"JUNCTIONS": "junction", "RESERVOIRS": "reservoir", "TANKS": "tank",
               "PIPES": "pipe", "PUMPS": "pump", "VALVES": "valve"}
    nodes: list[tuple[str, str, float, float, int]] = []  # id, kind, elev, demand, line
    node_row: dict[str, int] = {}
    for section in doc.sections:
        if section not in NODE_SECTIONS:
            continue
        for row in doc.rows(section):
            tokens = _fields(section, row, 2)
            node_id = tokens[0]
            if node_id in node_row:
                raise DuplicateId(f"node {node_id!r} defined twice")
            elevation = _float(section, row.line, tokens[1], "elevation/head")
            demand = 0.0
            if section == "JUNCTIONS" and len(tokens) >= 3:
                demand = _float(section, row.line, tokens[2], "demand")
            node_row[node_id] = len(nodes)
            nodes.append((node_id, kind_of[section], elevation, demand, row.line))

    links: list[tuple[str, str, int, int, float, float]] = []
    link_ids: set[str] = set()
    for section in doc.sections:
        if section not in LINK_SECTIONS:
            continue
        for row in doc.rows(section):
            tokens = _fields(section, row, 5 if section == "PIPES" else 3)
            link_id, from_node, to_node = tokens[:3]
            if link_id in link_ids:
                raise DuplicateId(f"link {link_id!r} defined twice")
            for endpoint in (from_node, to_node):
                if endpoint not in node_row:
                    raise DanglingEndpoint(link_id, endpoint)
            if from_node == to_node:
                raise SelfLoop(link_id)
            length = diameter = math.nan
            if section == "PIPES":
                length = _float(section, row.line, tokens[3], "length")
                diameter = _float(section, row.line, tokens[4], "diameter")
                if length <= 0 or diameter <= 0:
                    raise MalformedRow(section, row.line, "pipe length and diameter must be positive")
            links.append((link_id, kind_of[section], node_row[from_node], node_row[to_node], length, diameter))
            link_ids.add(link_id)

    # Extra demand categories accumulate onto the junction's base demand.
    extra_demand: dict[str, float] = {}
    junction_ids = {n[0] for n in nodes if n[1] == "junction"}
    for row in doc.rows("DEMANDS"):
        tokens = _fields("DEMANDS", row, 2)
        node_id = tokens[0]
        if node_id not in junction_ids:
            raise MalformedRow("DEMANDS", row.line, f"{node_id!r} is not a junction")
        extra_demand[node_id] = extra_demand.get(node_id, 0.0) + _float("DEMANDS", row.line, tokens[1], "demand")

    positions: dict[str, tuple[float, float]] = {}
    for row in doc.rows("COORDINATES"):
        tokens = _fields("COORDINATES", row, 3)
        node_id = tokens[0]
        if node_id not in node_row:
            warnings.append(f"coordinate entry for unknown node {node_id!r} ignored")
            continue
        x = _float("COORDINATES", row.line, tokens[1], "x") * coordinate_scale
        y = _float("COORDINATES", row.line, tokens[2], "y") * coordinate_scale
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MalformedRow("COORDINATES", row.line,
                               f"coordinates of {node_id!r} overflow when scaled by {coordinate_scale}")
        positions[node_id] = (x, y)

    if not nodes:
        raise MissingSection("node sections contain no rows")

    rows = []
    for node_id, kind, elevation, demand, line in nodes:
        if node_id not in positions:
            raise MissingCoordinates(node_id)
        total = demand + extra_demand.get(node_id, 0.0)
        if total < 0:
            raise MalformedRow("JUNCTIONS", line, f"junction {node_id!r} has negative total demand {total}")
        rows.append((node_id, kind, elevation, total, positions[node_id]))

    table = np.array(rows, dtype=NODE_DTYPE).view(np.recarray)
    xs, ys = table.position.T.tolist()  # Python min/max: the first of 0.0 and -0.0 wins
    bbox = (min(xs), min(ys), max(xs), max(ys))
    if not _sq_extent_finite(bbox[2] - bbox[0], bbox[3] - bbox[1]):
        raise CoordinateOverflow(f"the squared diagonal of the coordinates' bbox {bbox} overflows")
    return WaterNetwork(nodes=table, links=np.array(links, dtype=LINK_DTYPE).view(np.recarray),
                        bbox=bbox, warnings=warnings)


def read_inp(path: str | Path, coordinate_scale: float = 1.0) -> WaterNetwork:
    """Parse an INP file from disk."""
    data = Path(path).read_bytes()
    return build_network(tokenize_inp(data), coordinate_scale=coordinate_scale)
