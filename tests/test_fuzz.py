"""Library fuzzers: INP parsing and hydraulic CSV ingest on generated inputs.

Only ``HydroLoraError`` subclasses may escape either entry point.  Every INP
document the builder accepts must also satisfy the network-table invariants.
Runs are derandomized with a fixed budget, so the suite stays deterministic.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hydrolora import build_network, ingest_hydraulic_csv, tokenize_inp
from hydrolora.errors import HydroLoraError
from hydrolora.inp import LINK_SECTIONS
from tests.conftest import CHAIN_INP

FUZZ = settings(derandomize=True, max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

IDS = ["J1", "J2", "J3", "R1", "T1", "P1", "P2", 'a,"b']
NUMBERS = ["0", "-0", "1", "2.5", "-3", "1e300", "1e999", "nan", "-inf", "1_0", "x", ""]
SECTIONS = ["JUNCTIONS", "reservoirs", "TANKS", "PIPES", "PUMPS", "VALVES", "DEMANDS", "COORDINATES",
            "TITLE", "RULES", ""]


def rarely(draw, good, bad):
    """One of ``good``, or now and then one of ``bad``."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 40)) == 0 else good))


@st.composite
def network_text(draw):
    """A mostly well-formed INP document: node rows, coordinates and links
    between drawn nodes, with a bad number, a missing coordinate or a stray
    endpoint drawn now and then."""
    name = st.text(st.characters(blacklist_categories=("Z", "Cc", "Cs")), min_size=1, max_size=3)
    ids = draw(st.lists(st.one_of(st.sampled_from(IDS), name), min_size=2, max_size=6, unique=True))
    coordinate, positive = ["0", "-0", "1", "-2.5", "100", "1e300"], ["1", "2.5", "100"]
    bad = ["-4", "x", "inf", "nan", "1e999", ""]
    blocks = {section: [] for section in ("JUNCTIONS", "RESERVOIRS", "TANKS", "PIPES", "PUMPS", "VALVES",
                                          "DEMANDS", "COORDINATES")}
    for node_id in ids:
        kind = rarely(draw, ["JUNCTIONS", "JUNCTIONS", "RESERVOIRS"], ["TANKS", "JUNCTIONS"])
        elevation, demand = rarely(draw, coordinate, bad), rarely(draw, positive, bad)
        blocks[kind].append(f"{node_id} {elevation} {demand} 3 0.5 5 10")
        if rarely(draw, [True], [False]):
            x, y = rarely(draw, coordinate, bad), rarely(draw, coordinate, bad)
            blocks["COORDINATES"].append(f"{node_id} {x} {y}")
    for i in range(draw(st.integers(1, 8))):
        section = rarely(draw, ["PIPES"], ["PUMPS", "VALVES"])
        a, b = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        row = [rarely(draw, [f"L{i}"], ["L0"]), rarely(draw, [a], [b, "Z9"]), b,
               rarely(draw, positive, bad), rarely(draw, positive, bad), "130"]
        blocks[section].append(" ".join(row))
    blocks["DEMANDS"] = [f"{draw(st.sampled_from(ids))} {rarely(draw, positive, bad)}"
                         for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(list(blocks)))
    return "\n".join(f"[{section}]\n" + "\n".join(blocks[section]) for section in order if blocks[section])


token = st.one_of(st.sampled_from(IDS), st.sampled_from(NUMBERS), st.text(max_size=4))
row = st.lists(token, min_size=0, max_size=7).map(" ".join)
section = st.tuples(st.sampled_from(SECTIONS), st.lists(row, max_size=6)).map(
    lambda s: "\n".join([f"[{s[0]}]", *s[1]]))
inp_text = st.lists(section, max_size=9).map("\n".join)


def check_tables(doc, net):
    """The invariants of an accepted network's two tables."""
    nodes, links = net.nodes, net.links
    assert len(nodes) == net.node_count
    assert np.isfinite(nodes.position).all() and np.isfinite(net.bbox).all()
    endpoints = {row.tokens[0]: row.tokens[1:3] for name in doc.sections if name in LINK_SECTIONS
                 for row in doc.rows(name)}
    assert links.id.tolist() == list(endpoints)
    for link_id, i, j in zip(links.id.tolist(), links.from_index.tolist(), links.to_index.tolist()):
        assert (nodes.id[i], nodes.id[j]) == endpoints[link_id]
    assert (links.from_index != links.to_index).all()


@FUZZ
@given(st.one_of(network_text(), network_text().map(str.encode), inp_text, st.binary(max_size=64)))
def test_inp_parse_raises_only_domain_errors(text):
    try:
        doc = tokenize_inp(text)
        net = build_network(doc)
    except HydroLoraError:
        return
    check_tables(doc, net)


CSV_TOKENS = ["0", "3600", "7200", "-1", "1.5", "nan", "inf", "", "x", '"', "\x00", "R1", "J1", "J2",
              "Z9", "P1", "P2", "Q"]
csv_row = st.lists(st.one_of(st.sampled_from(CSV_TOKENS), st.text(max_size=3)), max_size=5).map(",".join)


def long_csv(draw, header, ids, times):
    """A mostly well-formed long CSV: each drawn id at each time of the grid,
    with a bad field or an unknown id now and then."""
    entities = draw(st.lists(st.sampled_from(ids), max_size=len(ids), unique=True))
    values, bad = ["1", "-2.5", "0", "1e300"], ["nan", "x", "", '"', "Z9", "-1"]
    rows = [[rarely(draw, [time], bad), rarely(draw, [entity], ["Z9"]),
             *(rarely(draw, values, bad) for _ in header.split(",")[2:])]
            for time in times for entity in entities]
    return "\n".join([header, *map(",".join, rows)]).encode() + b"\n"


def csv_file(header):
    """Free-form CSV bytes: the header or a junk row, then junk rows or raw bytes."""
    lines = st.tuples(st.one_of(st.just(header), csv_row), st.lists(csv_row, max_size=8))
    text = lines.map(lambda t: "\n".join([t[0], *t[1]]) + "\n").map(str.encode)
    return st.one_of(text, st.binary(max_size=32).map(lambda b: header.encode() + b"\n" + b))


@st.composite
def hydraulic_files(draw):
    """Node and link CSV bytes: mostly on one shared time grid, else free-form."""
    times = sorted(draw(st.lists(st.sampled_from(["0", "1e3", "3600", "7200"]), min_size=1, max_size=3,
                                 unique=True)), key=float)
    return [long_csv(draw, header, ids, times) if draw(st.integers(0, 3)) else draw(csv_file(header))
            for header, ids in (("time_s,node_id,pressure,demand", ["R1", "J1", "J2"]),
                                ("time_s,link_id,flow", ["P1", "P2"]))]


@FUZZ
@given(hydraulic_files())
def test_hydraulic_ingest_raises_only_domain_errors(files):
    node_bytes, link_bytes = files
    net = build_network(tokenize_inp(CHAIN_INP))
    with tempfile.TemporaryDirectory() as tmp:
        node_csv, link_csv = Path(tmp, "nodes.csv"), Path(tmp, "links.csv")
        node_csv.write_bytes(node_bytes)
        link_csv.write_bytes(link_bytes)
        try:
            series = ingest_hydraulic_csv(node_csv, link_csv, net)
        except HydroLoraError:
            return
    expected = np.zeros(net.node_count)
    for link_id, flow in series.flow.items():  # the endpoints as CHAIN_INP names them
        for node_id in {"P1": ("R1", "J1"), "P2": ("J1", "J2")}[link_id]:
            expected[net.node_index[node_id]] += float(np.mean(np.abs(flow)))
    assert np.array_equal(series.node_flow, expected / 2.0) and np.isfinite(series.node_flow).all()
