"""Differential tests: the CSR pipe graph against its oracle.

``tests/reference_graph.py`` keeps the per-node neighbour arrays, the two
``deque`` breadth-first loops and the dict-keyed Dijkstra that the CSR
adjacency and its one ``breadth_first`` walk replaced.  On every network the
two must give the same neighbours, component labels and graph stats, and
bit-equal proxy flows with the same unreachable junctions on both routes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolora import build_adjacency, build_network, flow_proxy, graph_stats, tokenize_inp
from hydrolora.graph import connected_components
from tests import reference_graph


def network(reservoirs, junctions, tanks, links):
    """Build a network whose nodes are, in file order, ``reservoirs``, then
    ``junctions`` (``(id, demand)`` pairs), then ``tanks``; ``links`` are
    ``(section, from, to, length)`` rows, ``length`` used by pipes only."""
    ids = list(reservoirs) + [j for j, _ in junctions] + list(tanks)
    lines = ["[RESERVOIRS]"] + [f" {r} 150" for r in reservoirs]
    lines += ["[JUNCTIONS]"] + [f" {j} 100 {demand}" for j, demand in junctions]
    lines += ["[TANKS]"] + [f" {t} 120" for t in tanks]
    for section in ("PIPES", "PUMPS", "VALVES"):
        lines.append(f"[{section}]")
        lines += [f" L{k} {a} {b} {length} 0.3 130" for k, (s, a, b, length) in enumerate(links) if s == section]
    lines += ["[COORDINATES]"] + [f" {node} {10 * i} {i % 3}" for i, node in enumerate(ids)]
    return build_network(tokenize_inp("\n".join(lines)))


def assert_matches_reference(net):
    adj, ref = build_adjacency(net), reference_graph.build_adjacency(net)
    assert [adj.neighbors(i).tolist() for i in range(adj.n)] == [nb.tolist() for nb in ref.neighbors]
    assert np.array_equal(connected_components(adj), reference_graph.connected_components(ref))
    assert graph_stats(adj) == reference_graph.graph_stats(ref)
    for by_length in (False, True):
        got = flow_proxy(net, adj, weight_by_length=by_length)
        want = reference_graph.flow_proxy(net, ref, weight_by_length=by_length)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.unreachable == want.unreachable
    return adj


# Both sources reach X (depth 2) in two hops: R1 -> A -> X and R2 -> B -> X.
# A is discovered first (R1 comes first) but has the higher index, so FIFO
# discovery order makes A the parent of X, where visiting the depth-1 nodes
# in index order would pick B; by length the two paths tie and the heap's
# (distance, index) order settles B first.
CROSSING = network(["R1", "R2"], [("B", 0), ("A", 0), ("X", 1), ("Y", 2)], [],
                   [("PIPES", "R1", "A", 100), ("PIPES", "R2", "B", 100), ("PIPES", "A", "X", 100),
                    ("PIPES", "B", "X", 100), ("PIPES", "X", "Y", 100)])

# Three sources; parallel pipes of different lengths, a pump and a valve each
# parallel to a pipe, and three components, one of them with no source.
PARALLEL = network(["R1"], [("J1", 1), ("J2", 2), ("J3", 0.5), ("J4", 3), ("J5", 1.5), ("J6", 4)], ["T1", "T2"],
                   [("PIPES", "R1", "J1", 50), ("PIPES", "J1", "R1", 20), ("PIPES", "J1", "J2", 400),
                    ("PUMPS", "J2", "J1", 0), ("PIPES", "J2", "J3", 10), ("VALVES", "J3", "J2", 0),
                    ("PIPES", "J3", "T1", 5), ("PIPES", "J4", "T2", 30), ("PIPES", "J4", "T2", 30),
                    ("PIPES", "J5", "J6", 60)])


@pytest.mark.parametrize("net", [CROSSING, PARALLEL], ids=["crossing", "parallel"])
def test_hand_built_networks_match_the_reference(net):
    assert_matches_reference(net)


def test_discovery_order_not_index_order_picks_the_parent():
    a, b = CROSSING.node_index["A"], CROSSING.node_index["B"]
    adj = assert_matches_reference(CROSSING)
    by_hops = flow_proxy(CROSSING, adj).values
    by_length = flow_proxy(CROSSING, adj, weight_by_length=True).values
    assert (by_hops[a], by_hops[b]) == (3.0, 0.0)
    assert (by_length[a], by_length[b]) == (0.0, 3.0)


def test_parallel_links_and_components():
    adj = assert_matches_reference(PARALLEL)
    assert graph_stats(adj)["components"] == 3
    assert adj.edge_count == 6
    assert flow_proxy(PARALLEL, adj).unreachable == ["J5", "J6"]


SECTIONS = st.sampled_from(["PIPES"] * 4 + ["PUMPS", "VALVES"])


@st.composite
def networks(draw):
    """1-3 sources at both ends of the node order, up to 20 junctions with
    dyadic demands, and random links with small integer lengths, so that
    parallel links, distance ties and several components are common."""
    reservoir_count = draw(st.integers(0, 3))
    tank_count = draw(st.integers(1 if reservoir_count == 0 else 0, 3 - reservoir_count))
    reservoirs = [f"R{i}" for i in range(reservoir_count)]
    tanks = [f"T{i}" for i in range(tank_count)]
    junctions = [(f"J{i}", draw(st.sampled_from([0, 0.5, 1, 2.25, 3]))) for i in range(draw(st.integers(1, 20)))]
    ids = reservoirs + [j for j, _ in junctions] + tanks
    node = st.integers(0, len(ids) - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), min_size=1, max_size=2 * len(ids)))
    links = [(draw(SECTIONS), ids[a], ids[b], draw(st.integers(1, 4))) for a, b in pairs]
    return network(reservoirs, junctions, tanks, links)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(net=networks())
def test_random_networks_match_the_reference(net):
    assert_matches_reference(net)
