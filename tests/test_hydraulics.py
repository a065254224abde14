"""Hydraulic ingest, flow proxy, and placement-weight tests."""

import numpy as np
import pytest

from hydrolora import (
    build_adjacency,
    degree_centrality,
    export_hydraulic_csv,
    flow_proxy,
    ingest_hydraulic_csv,
    placement_weights,
)
from hydrolora.errors import NonFiniteFlow, NonMonotoneTimestamps, NoSource, SchemaMismatch, UnknownId
from hydrolora.rng import substream
from tests.conftest import make_network


def write_csvs(tmp_path, node_rows, link_rows):
    node_csv = tmp_path / "nodes.csv"
    link_csv = tmp_path / "links.csv"
    node_csv.write_text("time_s,node_id,pressure,demand\n" + "".join(f"{r}\n" for r in node_rows))
    link_csv.write_text("time_s,link_id,flow\n" + "".join(f"{r}\n" for r in link_rows))
    return node_csv, link_csv


class TestIngest:
    def test_constant_flow_halved_at_endpoints(self, tmp_path, two_node_net):
        node_csv, link_csv = write_csvs(
            tmp_path,
            ["0,J1,50,5", "0,J2,48,2", "3600,J1,49,5", "3600,J2,47,2"],
            ["0,P1,10", "3600,P1,10"],
        )
        series = ingest_hydraulic_csv(node_csv, link_csv, two_node_net)
        assert series.node_flow.tolist() == [5.0, 5.0]
        assert series.timestamps.tolist() == [0.0, 3600.0]

    def test_unknown_node_rejected(self, tmp_path, two_node_net):
        node_csv, link_csv = write_csvs(tmp_path, ["0,X,50,5"], ["0,P1,10"])
        with pytest.raises(UnknownId):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    def test_unknown_link_rejected(self, tmp_path, two_node_net):
        node_csv, link_csv = write_csvs(tmp_path, ["0,J1,50,5"], ["0,PX,10"])
        with pytest.raises(UnknownId):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    def test_non_monotone_timestamps_rejected(self, tmp_path, two_node_net):
        node_csv, link_csv = write_csvs(
            tmp_path, ["0,J1,50,5", "0,J1,49,5"], ["0,P1,10"])
        with pytest.raises(NonMonotoneTimestamps):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    def test_missing_column_rejected(self, tmp_path, two_node_net):
        node_csv = tmp_path / "nodes.csv"
        node_csv.write_text("time_s,node_id,pressure\n0,J1,50\n")
        link_csv = tmp_path / "links.csv"
        link_csv.write_text("time_s,link_id,flow\n0,P1,10\n")
        with pytest.raises(SchemaMismatch):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    @pytest.mark.parametrize("bad_row,detail", [
        ("3600,J1,abc,5", "could not convert"),
        ("3600,J1", "2 field(s), header has 4"),
        ("3600,J1,nan,5", "non-finite value for 'J1'"),
        ("3600,J1,50,inf", "non-finite value for 'J1'"),
        ("nan,J1,50,5", "non-finite value for 'J1'"),
    ])
    def test_malformed_node_row_names_file_and_line(self, tmp_path, two_node_net, bad_row, detail):
        node_csv, link_csv = write_csvs(
            tmp_path, ["0,J1,50,5", "0,J2,48,2", bad_row, "3600,J2,47,2"], ["0,P1,10", "3600,P1,10"])
        with pytest.raises(SchemaMismatch) as exc:
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)
        assert str(exc.value).startswith(f"{node_csv}, line 4: ") and detail in str(exc.value)

    @pytest.mark.parametrize("bad_row", ["3600,P1,-inf", "3600,P1,x", "3600"])
    def test_malformed_link_row_names_file_and_line(self, tmp_path, two_node_net, bad_row):
        node_csv, link_csv = write_csvs(tmp_path, ["0,J1,50,5", "3600,J1,49,5"], ["0,P1,10", bad_row])
        with pytest.raises(SchemaMismatch, match=f"^{link_csv}, line 3: "):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    @pytest.mark.parametrize("which", ["nodes", "links"])
    def test_non_utf8_file_is_schema_mismatch(self, tmp_path, two_node_net, which):
        # Found by the ingest fuzzer: a byte that is not UTF-8 in the first
        # block of a file escaped as UnicodeDecodeError while reading the header.
        node_csv, link_csv = write_csvs(tmp_path, ["0,J1,50,5"], ["0,P1,10"])
        bad = node_csv if which == "nodes" else link_csv
        bad.write_bytes(bad.read_bytes() + b"\x80\n")
        with pytest.raises(SchemaMismatch, match=f"^{bad}: not valid UTF-8"):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    def test_inconsistent_grid_rejected(self, tmp_path, two_node_net):
        node_csv, link_csv = write_csvs(
            tmp_path, ["0,J1,50,5", "3600,J1,49,5", "0,J2,48,2", "7200,J2,47,2"], ["0,P1,10"])
        with pytest.raises(SchemaMismatch):
            ingest_hydraulic_csv(node_csv, link_csv, two_node_net)

    def test_node_flow_matches_external_recomputation(self, tmp_path):
        """Star of 4 pipes, 24 h of varying flows; expectation recomputed
        by hand: node_flow = sum of per-link mean |flow| halved."""
        net = make_network(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        times = [0, 3600, 7200]
        flows = {"P1": [10, -10, 20], "P2": [4, 4, 4], "P3": [0, 0, 0], "P4": [-6, 3, 0]}
        node_rows = [f"{t},J{j},50,1" for t in times for j in range(1, 6)]
        link_rows = [f"{t},{p},{flows[p][i]}" for i, t in enumerate(times) for p in flows]
        node_csv, link_csv = write_csvs(tmp_path, node_rows, link_rows)
        series = ingest_hydraulic_csv(node_csv, link_csv, net)
        # per-link mean |flow|: P1 = 40/3, P2 = 4, P3 = 0, P4 = 3
        hub = (40 / 3 + 4 + 0 + 3) / 2
        assert series.node_flow[0] == pytest.approx(hub)
        assert series.node_flow[1] == pytest.approx(40 / 6)
        assert series.node_flow[2] == pytest.approx(2.0)
        assert series.node_flow[3] == pytest.approx(0.0)
        assert series.node_flow[4] == pytest.approx(1.5)

    def test_roundtrip_bit_identical(self, tmp_path, two_node_net):
        node_csv, link_csv = write_csvs(
            tmp_path,
            ["0.0,J1,50.25,5.0", "0.0,J2,48.5,2.0", "3600.0,J1,49.75,5.0", "3600.0,J2,47.0,2.0"],
            ["0.0,P1,10.125", "3600.0,P1,-10.5"],
        )
        series = ingest_hydraulic_csv(node_csv, link_csv, two_node_net)
        out_nodes, out_links = tmp_path / "n2.csv", tmp_path / "l2.csv"
        export_hydraulic_csv(series, out_nodes, out_links)
        assert out_nodes.read_bytes() == node_csv.read_bytes()
        assert out_links.read_bytes() == link_csv.read_bytes()


class TestFlowProxy:
    def test_chain_accumulation(self, chain_net):
        adj = build_adjacency(chain_net)
        proxy = flow_proxy(chain_net, adj)
        # R - J1 - J2 with demands J1=1, J2=2: J2 carries 2, J1 carries 3, R serves 3.
        by_id = dict(zip([n.id for n in chain_net.nodes], proxy.values))
        assert by_id == {"J2": 2.0, "J1": 3.0, "R1": 3.0}

    def test_all_zero_demands(self):
        net = make_network(3, [(1, 2), (2, 3)], reservoirs=("R1",))
        proxy = flow_proxy(net, build_adjacency(net))
        assert np.all(proxy.values == 0.0)

    def test_no_source_rejected(self, two_node_net):
        with pytest.raises(NoSource):
            flow_proxy(two_node_net, build_adjacency(two_node_net))

    def test_unreachable_demand_warned_and_zeroed(self):
        net = make_network(4, [(1, 2), (3, 4)], demands={3: 5}, reservoirs=("R1",))
        proxy = flow_proxy(net, build_adjacency(net))
        assert "J3" in proxy.unreachable
        by_id = dict(zip([n.id for n in net.nodes], proxy.values))
        assert by_id["J3"] == 0.0 and by_id["J4"] == 0.0

    def test_random_tree_matches_path_enumeration(self):
        """On a random tree the proxy equals exhaustive demand->source path
        walking, since shortest paths are unique."""
        rng = substream(123, "tree-test")
        n = 30
        parent = {i: int(rng.integers(1, i)) for i in range(2, n + 1)}
        pipes = [(i, parent[i]) for i in range(2, n + 1)]
        demands = {i: float(rng.integers(0, 5)) for i in range(1, n + 1)}
        net = make_network(n, pipes, demands=demands, reservoirs=("R1",))
        proxy = flow_proxy(net, build_adjacency(net))

        index = {node.id: i for i, node in enumerate(net.nodes)}
        expected = np.zeros(net.node_count)
        for j in range(1, n + 1):
            demand = demands[j]
            node = j
            expected[index[f"J{node}"]] += demand
            while node != 1:
                node = parent[node]
                expected[index[f"J{node}"]] += demand
            expected[index["R1"]] += demand  # R1 hangs off J1
        assert np.allclose(proxy.values, expected)

    def test_mass_balance(self):
        rng = substream(5, "mass")
        n = 40
        pipes = [(i, int(rng.integers(1, i))) for i in range(2, n + 1)]
        demands = {i: float(rng.uniform(0, 3)) for i in range(1, n + 1)}
        net = make_network(n, pipes, demands=demands, reservoirs=("R1", "R2"))
        proxy = flow_proxy(net, build_adjacency(net))
        sources = [i for i, node in enumerate(net.nodes) if node.kind == "reservoir"]
        assert proxy.values[sources].sum() == pytest.approx(sum(demands.values()))

    def test_nearest_source_tie_breaks_by_file_order(self):
        # J1 is equidistant (1 hop) from R1 and R2; R1 comes first in file order.
        net = make_network(1, [], demands={1: 7}, reservoirs=("R1", "R2"))
        proxy = flow_proxy(net, build_adjacency(net))
        by_id = dict(zip([n.id for n in net.nodes], proxy.values))
        assert by_id["R1"] == 7.0 and by_id["R2"] == 0.0

    def test_length_weighting_changes_route(self):
        # Triangle R1-J1-J2 where the direct R1-J2 pipe is much longer than
        # the two-hop detour.  Hop routing sends J2's demand straight to R1;
        # length routing prefers the detour through J1.
        text = (
            "[RESERVOIRS]\n R1 150\n"
            "[JUNCTIONS]\n J1 100 0\n J2 95 2\n"
            "[PIPES]\n"
            " P1 R1 J1 100 0.3 130\n"
            " P2 J1 J2 100 0.3 130\n"
            " P3 R1 J2 500 0.3 130\n"
            "[COORDINATES]\n R1 0 0\n J1 1 0\n J2 2 0\n"
        )
        from hydrolora import build_network, tokenize_inp

        net = build_network(tokenize_inp(text))
        adj = build_adjacency(net)
        by_hops = dict(zip([n.id for n in net.nodes], flow_proxy(net, adj).values))
        by_length = dict(zip([n.id for n in net.nodes],
                             flow_proxy(net, adj, weight_by_length=True).values))
        assert by_hops == {"R1": 2.0, "J1": 0.0, "J2": 2.0}
        assert by_length == {"R1": 2.0, "J1": 2.0, "J2": 2.0}


class TestPlacementWeights:
    def fixture_cv_flows(self):
        net = make_network(10, [(i, i + 1) for i in range(1, 10)] + [(1, 5), (2, 8)])
        cv = degree_centrality(build_adjacency(net))
        rng = substream(9, "weights")
        flows = rng.uniform(0, 20, size=net.node_count)
        return cv, flows

    def test_alpha_one_ranks_by_centrality(self):
        cv, flows = self.fixture_cv_flows()
        fw = placement_weights(cv, flows, alpha=1.0)
        assert np.array_equal(np.argsort(fw.weight), np.argsort(cv.centrality / cv.centrality.max()))

    def test_alpha_zero_ranks_by_flow(self):
        cv, flows = self.fixture_cv_flows()
        fw = placement_weights(cv, flows, alpha=0.0)
        assert np.array_equal(np.argsort(fw.weight), np.argsort(flows))

    def test_half_blend_matches_hand_computation(self):
        cv, flows = self.fixture_cv_flows()
        before = {name: np.copy(value) for name, value in vars(cv).items()}
        fw = placement_weights(cv, flows, alpha=0.5)
        expected = 0.5 * cv.centrality / cv.centrality.max() + 0.5 * flows / flows.max()
        assert np.allclose(fw.weight, expected)
        assert vars(cv).keys() == before.keys()  # cv is left unchanged
        assert all(np.array_equal(vars(cv)[name], value) for name, value in before.items())

    def test_scale_invariance(self):
        cv, flows = self.fixture_cv_flows()
        a = placement_weights(cv, flows, alpha=0.5).weight
        b = placement_weights(cv, flows * 37.5, alpha=0.5).weight
        assert np.allclose(a, b)

    def test_all_zero_flows(self):
        cv, _ = self.fixture_cv_flows()
        fw = placement_weights(cv, np.zeros(len(cv.centrality)), alpha=0.5)
        assert np.all(fw.flow_norm == 0.0)
        assert np.all(fw.weight == 0.5 * cv.centrality / cv.centrality.max())

    def test_normalization_bounds(self):
        cv, flows = self.fixture_cv_flows()
        fw = placement_weights(cv, flows, alpha=0.3)
        assert fw.flow_norm.max() == 1.0
        assert np.all(fw.weight >= 0.0)

    def test_bad_alpha_rejected(self):
        cv, flows = self.fixture_cv_flows()
        with pytest.raises(ValueError):
            placement_weights(cv, flows, alpha=1.5)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_flow_rejected(self, bad):
        cv, flows = self.fixture_cv_flows()
        flows[[3, 6]] = bad
        with pytest.raises(NonFiniteFlow, match=f"^flow at node {cv.node_ids[3]!r} is not finite: {bad}$"):
            placement_weights(cv, flows, alpha=0.5)
