"""The shared CSV format on ids that need quoting.

Every CSV the program writes must parse back with ``csv.reader`` to the ids it
was given, and its bytes must equal what ``csv.writer`` writes for the same
rows with numbers as ``repr(float(...))`` (``repr(int(...))`` for counts).
"""

import csv
import io
import math

import numpy as np
import pytest

from hydrolora import (
    ScenarioConfig,
    TrafficModel,
    build_adjacency,
    build_network,
    degree_centrality,
    export_hydraulic_csv,
    flow_proxy,
    ingest_hydraulic_csv,
    placement_weights,
    run_scenario,
    tokenize_inp,
)
from hydrolora.cli import STRATEGY_NAMES, main
from hydrolora.csvio import text
from hydrolora.hydraulics import HydraulicSeries
from hydrolora.placement import place

QUOTED_INP = """\
[RESERVOIRS]
 R"1  150
[JUNCTIONS]
 a,b    100  1
 J"q    95   2
 plain  90   3.5
 x,"y   90   0.25
[PIPES]
 P,1  R"1    a,b    100  0.3  130
 P"2  a,b    J"q    100  0.3  130
 P3   J"q    plain  120  0.3  130
 P4   plain  x,"y   80   0.3  130
[COORDINATES]
 R"1    0     0
 a,b    1500  200
 J"q    3000  -400
 plain  4500  900
 x,"y   6000  100
"""
NODE_IDS = ['R"1', "a,b", 'J"q', "plain", 'x,"y']
LINK_IDS = ["P,1", 'P"2', "P3", "P4"]


def render(header, rows) -> str:
    """``header`` and ``rows`` as csv.writer writes them, with '\\n' line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def reparse(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def canonical(field: str):
    """A parsed field back as the value it was written from."""
    for kind in (int, float):
        try:
            return repr(kind(field))
        except ValueError:
            pass
    return field


@pytest.fixture
def inp_file(tmp_path):
    path = tmp_path / "quoted.inp"
    path.write_text(QUOTED_INP)
    return path


@pytest.fixture
def pipeline():
    net = build_network(tokenize_inp(QUOTED_INP))
    adj = build_adjacency(net)
    cv = degree_centrality(adj)
    flows = flow_proxy(net, adj).values
    return net, cv, flows, placement_weights(cv, flows, alpha=0.5)


def test_fixture_ids_need_quoting(pipeline):
    net, *_ = pipeline
    assert [node.id for node in net.nodes] == NODE_IDS
    assert [link.id for link in net.links] == LINK_IDS
    assert render(["id"], [[i] for i in NODE_IDS]).count('"') > len(NODE_IDS)


def test_graph_csv_stdout(capsys, inp_file, pipeline):
    _, cv, _, _ = pipeline
    assert main(["graph", str(inp_file), "--csv", "-"]) == 0
    out = capsys.readouterr().out
    assert out == render(["node_id", "degree", "centrality"],
                         [[i, int(d), repr(float(c))] for i, d, c in zip(cv.node_ids, cv.degree, cv.centrality)])
    assert [row[0] for row in reparse(out)[1:]] == NODE_IDS


def test_weights_stdout(capsys, inp_file, pipeline):
    _, cv, flows, fw = pipeline
    assert main(["weights", str(inp_file)]) == 0
    out = capsys.readouterr().out
    assert out == render(["node_id", "centrality", "flow", "weight"],
                         [[i, repr(float(c)), repr(float(f)), repr(float(w))]
                          for i, c, f, w in zip(cv.node_ids, cv.centrality, flows, fw.weight)])
    assert [row[0] for row in reparse(out)[1:]] == NODE_IDS


@pytest.mark.parametrize("strategy", sorted(STRATEGY_NAMES))
def test_place_stdout(capsys, inp_file, pipeline, strategy):
    net, _, _, fw = pipeline
    assert main(["place", str(inp_file), "--k", "2", "--strategy", strategy]) == 0
    out = capsys.readouterr().out
    gateways = place(STRATEGY_NAMES[strategy], 2, bbox=net.bbox, node_xy=net.coordinates(), weights=fw.weight)
    assert out == render(["gw_id", "x", "y", "strategy", "k", "seed"],
                         [[f"gw{j:03d}", repr(float(x)), repr(float(y)), gateways.strategy, 2, 0]
                          for j, (x, y) in enumerate(gateways.positions)])


def test_sweep_tree_reparses_to_ids(tmp_path, inp_file):
    cfg = ScenarioConfig(
        inp_path=str(inp_file), name="quoted", output_dir=str(tmp_path / "out"), gateway_counts=(1, 2),
        strategies=("regular_grid", "degree_centrality", "greedy_coverage"), seeds=(1, 2), horizon_s=7200.0,
        traffic=TrafficModel(mode="periodic", period_s=600.0, jitter_s=30.0),
    )
    outdir = run_scenario(cfg).outdir
    files = sorted(outdir.rglob("*.csv"))
    assert len(files) == 2 + 1 + 6 + 6 * 2 * 3  # centrality, weights, comparison, gateways, runs
    seen_quotes = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        rows = reparse(text)
        assert text == render(rows[0], [[canonical(field) for field in row] for row in rows[1:]]), path
        id_column = next((rows[0].index(name) for name in ("node_id", "device_id") if name in rows[0]), None)
        ids = [row[id_column] for row in rows[1:]] if id_column is not None else None
        if path.name in ("centrality.csv", "weights.csv", "energy.csv"):
            assert ids == NODE_IDS, path
        elif path.name in ("battery.csv", "transmissions.csv"):
            assert ids and set(ids) <= set(NODE_IDS), path
        seen_quotes += text.count('"a,b"')
    assert seen_quotes > 0


def test_hydraulic_export_round_trips_quoted_ids(tmp_path, pipeline):
    net, *_ = pipeline
    times = np.arange(3) * 3600  # ints are written as floats
    rng = np.random.default_rng(5)
    series = HydraulicSeries(
        timestamps=times,
        pressure={i: rng.uniform(30.0, 60.0, 3).astype(np.float32) for i in NODE_IDS},
        demand={i: rng.uniform(0.0, 2.0, 3) for i in NODE_IDS},
        flow={i: rng.normal(0.0, 5.0, 3) for i in LINK_IDS},
        node_flow=np.zeros(len(NODE_IDS)),
    )
    nodes, links = tmp_path / "nodes.csv", tmp_path / "links.csv"
    export_hydraulic_csv(series, nodes, links)
    assert nodes.read_text() == render(
        ["time_s", "node_id", "pressure", "demand"],
        [[repr(float(t)), i, repr(float(series.pressure[i][s])), repr(float(series.demand[i][s]))]
         for s, t in enumerate(times) for i in NODE_IDS])
    assert links.read_text() == render(
        ["time_s", "link_id", "flow"],
        [[repr(float(t)), i, repr(float(series.flow[i][s]))] for s, t in enumerate(times) for i in LINK_IDS])

    again = ingest_hydraulic_csv(nodes, links, net)
    assert list(again.pressure) == NODE_IDS and list(again.flow) == LINK_IDS
    nodes2, links2 = tmp_path / "nodes2.csv", tmp_path / "links2.csv"
    export_hydraulic_csv(again, nodes2, links2)
    assert nodes2.read_bytes() == nodes.read_bytes()
    assert links2.read_bytes() == links.read_bytes()


def test_text_writes_python_numbers_as_repr():
    """Lookup columns of numbers (a device's SF, airtime or best RSSI, a
    channel, a battery sample time) are written through ``text``."""
    values = [-0.0, 0.0, 7, -3, math.inf, -math.inf, 5e-324, 0.1]
    table, index = text(values, np.array([1, 0, 2, 3, 4, 5, 6, 7, 0]))
    assert table[index].tolist() == ["0.0", "-0.0", "7", "-3", "inf", "-inf", "5e-324", "0.1", "-0.0"]
    assert text([math.nan])[0].tolist() == [repr(math.nan)]
    # Exact ints and floats are written as repr directly; anything else, a bool
    # or a numpy scalar included, still goes through csv.writer and its quoting.
    mixed = [True, "a,b", 'J"q', np.float64(0.1), 7, -0.0]
    assert ",".join(text(mixed)[0].tolist()) + "\n" == render(mixed, [])
    assert text(mixed)[0].tolist() == ["True", '"a,b"', '"J""q"', "0.1", "7", "-0.0"]
