"""Adjacency and degree-centrality tests, brute-force oracles included."""

import numpy as np
import pytest

from hydrolora import build_adjacency, degree_centrality, graph_stats
from hydrolora.errors import TooFewNodes
from hydrolora.graph import centrality_csv, connected_components
from tests.conftest import make_network


def random_net(rng, n, p):
    """Random junction-only network with edge probability p (plus a spanning
    chain is NOT added: disconnected graphs are legitimate inputs here)."""
    pipes = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if not pipes:
        pipes = [(1, 2)]
    return make_network(n, pipes)


def brute_force_degrees(net):
    """Dense 0/1 matrix scan over all node pairs, independent of Adjacency."""
    n = net.node_count
    dense = np.zeros((n, n), dtype=np.int64)
    for link in net.links:
        i, j = link.from_index, link.to_index
        dense[i, j] = 1
        dense[j, i] = 1
    np.fill_diagonal(dense, 0)
    return dense.sum(axis=1), dense


class TestBuildAdjacency:
    def test_path_graph(self):
        net = make_network(3, [(1, 2), (2, 3)])
        adj = build_adjacency(net)
        assert adj.has_edge(0, 1) and adj.has_edge(1, 0)
        assert not adj.has_edge(0, 2)
        assert adj.edge_count == 2

    def test_parallel_pipes_saturate(self):
        net = make_network(2, [(1, 2), (1, 2)])
        adj = build_adjacency(net)
        assert adj.edge_count == 1
        assert adj.degrees().tolist() == [1, 1]

    def test_too_few_nodes(self):
        net = make_network(2, [(1, 2)])
        net.nodes = net.nodes[:1]
        with pytest.raises(TooFewNodes):
            build_adjacency(net)

    def test_symmetry_and_zero_diagonal_random(self):
        rng = np.random.default_rng(42)
        net = random_net(rng, 50, 0.08)
        adj = build_adjacency(net)
        for i in range(adj.n):
            assert i not in adj.neighbors(i)
            for j in adj.neighbors(i):
                assert i in adj.neighbors(j)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, 50, 0.06)
        adj = build_adjacency(net)
        degrees, dense = brute_force_degrees(net)
        assert adj.degrees().tolist() == degrees.tolist()
        for i in range(adj.n):
            assert sorted(adj.neighbors(i).tolist()) == np.flatnonzero(dense[i]).tolist()


class TestDegreeCentrality:
    def test_star_graph(self):
        net = make_network(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        cv = degree_centrality(build_adjacency(net))
        assert cv.centrality[0] == 1.0
        assert np.all(cv.centrality[1:] == 0.25)

    def test_cycle_graph(self):
        for n in (3, 6, 11):
            pipes = [(i + 1, (i + 1) % n + 1) for i in range(n)]
            cv = degree_centrality(build_adjacency(make_network(n, pipes)))
            assert np.all(cv.centrality == 2 / (n - 1))

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, 200, 0.02)
        adj = build_adjacency(net)
        cv = degree_centrality(adj)
        degrees, _ = brute_force_degrees(net)
        assert np.array_equal(cv.degree, degrees)
        assert np.array_equal(cv.centrality, degrees / (net.node_count - 1))

    def test_handshake_lemma_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            net = random_net(rng, n, 0.15)
            adj = build_adjacency(net)
            assert adj.degrees().sum() == 2 * adj.edge_count

    def test_argmax_centrality_is_argmax_degree(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 60, 0.05)
        cv = degree_centrality(build_adjacency(net))
        assert cv.centrality.argmax() == cv.degree.argmax()

    def test_edge_addition_delta(self):
        """Adding one edge bumps exactly its two endpoints by 1/(N-1)."""
        n = 12
        base_pipes = [(1, 2), (2, 3), (4, 5), (6, 7)]
        before = degree_centrality(build_adjacency(make_network(n, base_pipes)))
        after = degree_centrality(build_adjacency(make_network(n, base_pipes + [(3, 9)])))
        delta = after.centrality - before.centrality
        expected = np.zeros(n)
        expected[2] = expected[8] = 1 / (n - 1)
        assert np.allclose(delta, expected)
        assert delta[2] == pytest.approx(1 / (n - 1))


class TestGraphStats:
    def test_path_graph(self):
        stats = graph_stats(build_adjacency(make_network(3, [(1, 2), (2, 3)])))
        assert stats["edges"] == 2
        assert stats["components"] == 1

    def test_two_disjoint_triangles(self):
        pipes = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
        stats = graph_stats(build_adjacency(make_network(6, pipes)))
        assert stats["components"] == 2

    def test_isolated_node_counts_as_component(self):
        stats = graph_stats(build_adjacency(make_network(3, [(1, 2)])))
        assert stats["components"] == 2
        assert stats["degree_min"] == 0

    def test_components_match_labels(self):
        labels = connected_components(build_adjacency(make_network(4, [(1, 2), (3, 4)])))
        assert labels.tolist() == [0, 0, 1, 1]


class TestCentralityCsv:
    def test_header_and_rows(self, tmp_path):
        cv = degree_centrality(build_adjacency(make_network(3, [(1, 2), (2, 3)])))
        centrality_csv(cv, tmp_path / "centrality.csv")
        text = (tmp_path / "centrality.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "node_id,degree,centrality"
        assert len(lines) == 4
        assert lines[1] == "J1,1,0.5"
