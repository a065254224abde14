"""Placement strategy tests: grid layout, weighted k-means, and properties
shared by both (count, determinism, translation equivariance)."""

import warnings

import numpy as np
import pytest

from hydrolora import degree_centrality_deploy, greedy_coverage_deploy, regular_grid_deploy
from hydrolora.errors import AllZeroWeights, DegenerateBBox, InvalidK, KExceedsN
from hydrolora.placement import STRATEGIES, _grid_dims, export_gateways_csv, place
from hydrolora.rng import substream

UNIT = (0.0, 0.0, 1.0, 1.0)


def walked_grid_dims(k, width, height):
    """The O(K) grid search ``_grid_dims`` replaced: every rows count, ranked
    by overshoot, then aspect gap, then rows."""
    if width == 0:
        return k, 1
    if height == 0:
        return 1, k
    target = height / width
    best = None
    for rows in range(1, k + 1):
        cols = -(-k // rows)
        key = (rows * cols - k, abs(rows / cols - target), rows)
        if best is None or key < best[0]:
            best = (key, (rows, cols))
    return best[1]


def assert_positions(positions, want):
    """``positions`` is a C-contiguous (K, 2) float64 array holding the bytes
    of ``want``, a sequence of (x, y) pairs."""
    want = np.array(want, dtype=np.float64).reshape(-1, 2)
    assert type(positions) is np.ndarray and positions.dtype == np.float64 and positions.flags.c_contiguous
    assert positions.shape == want.shape
    assert positions.tobytes() == want.tobytes()


def kmeans_objective(node_xy, weights, positions):
    positions = np.asarray(positions)
    sq = ((node_xy[:, None, :] - positions[None, :, :]) ** 2).sum(axis=2)
    return float((weights * sq.min(axis=1)).sum())


def three_cluster_fixture():
    """12 nodes in three tight, well-separated clusters with heavy weights."""
    rng = substream(31, "clusters")
    centers = np.array([[0.0, 0.0], [100.0, 0.0], [50.0, 80.0]])
    xy = np.concatenate([c + rng.uniform(-2, 2, size=(4, 2)) for c in centers])
    weights = rng.uniform(1.0, 3.0, size=12)
    return xy, weights, centers


class TestRegularGrid:
    def test_k1_unit_square(self):
        gws = regular_grid_deploy(1, UNIT)
        assert_positions(gws.positions, [(0.5, 0.5)])

    def test_k4_unit_square(self):
        gws = regular_grid_deploy(4, UNIT)
        # row-major from the bottom-left
        assert_positions(gws.positions, [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)])

    def test_k77_on_wide_bbox(self):
        bbox = (0.0, 0.0, 11_000.0, 7_000.0)
        gws = regular_grid_deploy(77, bbox)
        assert len(gws.positions) == 77
        cells = gws.provenance["rows"] * gws.provenance["cols"]
        assert 77 <= cells < 2 * 77
        for x, y in gws.positions:
            assert 0.0 <= x <= 11_000.0 and 0.0 <= y <= 7_000.0

    def test_exact_divisor_grids_for_each_sweep_count(self):
        # the default sweep counts all factor into near-square grids
        bbox = (0.0, 0.0, 11_000.0, 7_000.0)
        for k, dims in ((77, (7, 11)), (96, (8, 12)), (117, (9, 13)), (140, (10, 14)), (165, (11, 15))):
            gws = regular_grid_deploy(k, bbox)
            assert (gws.provenance["rows"], gws.provenance["cols"]) == dims

    @pytest.mark.parametrize("width, height", [(1.0, 1.0), (3000.0, 2000.0), (2000.0, 3000.0), (1.0, 7.0),
                                               (11_000.0, 7_000.0), (1e-300, 1e300), (1e300, 1e-300),
                                               (5.0, 0.0), (0.0, 5.0)])
    def test_factor_pairs_match_the_walk_over_every_row_count(self, width, height):
        for k in range(1, 400):
            assert _grid_dims(k, width, height) == walked_grid_dims(k, width, height), k

    def test_prime_k_is_one_row_found_without_walking_k(self):
        assert _grid_dims(10**9 + 7, 3000.0, 2000.0) == (1, 10**9 + 7)

    def test_degenerate_axis_collapses_to_line(self):
        gws = regular_grid_deploy(5, (0.0, 0.0, 10.0, 0.0))
        assert_positions(gws.positions, [(1.0, 0.0), (3.0, 0.0), (5.0, 0.0), (7.0, 0.0), (9.0, 0.0)])

    def test_fully_degenerate_bbox_rejected(self):
        with pytest.raises(DegenerateBBox):
            regular_grid_deploy(3, (5.0, 5.0, 5.0, 5.0))

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidK):
            regular_grid_deploy(0, UNIT)

    def test_row_major_cells_match_the_closed_form(self):
        bbox = (-3.0, 7.0, 27.0, 12.0)
        gws = regular_grid_deploy(6, bbox)
        rows, cols = gws.provenance["rows"], gws.provenance["cols"]
        assert_positions(gws.positions, [(-3.0 + (j + 0.5) * 30.0 / cols, 7.0 + (i + 0.5) * 5.0 / rows)
                                         for i in range(rows) for j in range(cols)])

    def test_translation_equivariance(self):
        base = regular_grid_deploy(6, (0.0, 0.0, 30.0, 20.0))
        moved = regular_grid_deploy(6, (7.0, -3.0, 37.0, 17.0))
        for (x0, y0), (x1, y1) in zip(base.positions, moved.positions):
            assert (x1, y1) == pytest.approx((x0 + 7.0, y0 - 3.0))


class TestDegreeCentralityDeploy:
    def test_k1_is_weighted_centroid(self):
        xy, weights, _ = three_cluster_fixture()
        gws = degree_centrality_deploy(1, xy, weights)
        expected = (weights[:, None] * xy).sum(axis=0) / weights.sum()
        assert np.allclose(gws.positions[0], expected)

    def test_k_equals_n_one_gateway_per_node(self):
        xy, weights, _ = three_cluster_fixture()
        gws = degree_centrality_deploy(len(xy), xy, weights)
        got = sorted(map(tuple, np.round(gws.positions, 9).tolist()))
        want = sorted(map(tuple, np.round(xy, 9).tolist()))
        assert got == want

    def test_centers_land_in_clusters_and_beat_random(self):
        xy, weights, centers = three_cluster_fixture()
        gws = degree_centrality_deploy(3, xy, weights)
        for pos in gws.positions:
            assert min(np.linalg.norm(pos - c) for c in centers) < 5.0

        objective = kmeans_objective(xy, weights, gws.positions)
        assert objective == pytest.approx(gws.provenance["objective"])
        rng = substream(99, "random-restarts")
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        for _ in range(50):
            random_positions = rng.uniform(lo, hi, size=(3, 2))
            assert objective <= kmeans_objective(xy, weights, random_positions) + 1e-9

    def test_count_and_determinism(self):
        xy, weights, _ = three_cluster_fixture()
        a = degree_centrality_deploy(5, xy, weights)
        b = degree_centrality_deploy(5, xy, weights)
        assert a.positions.shape == (5, 2)
        assert_positions(a.positions, b.positions)

    def test_translation_equivariance(self):
        xy, weights, _ = three_cluster_fixture()
        base = degree_centrality_deploy(3, xy, weights)
        moved = degree_centrality_deploy(3, xy + np.array([11.0, -4.0]), weights)
        assert np.allclose(moved.positions, base.positions + np.array([11.0, -4.0]), atol=1e-6)

    def test_symmetric_layout_uniform_weights(self):
        # 4 tight corner clusters of a square, uniform weights, K=4:
        # centers must be the 4 cluster centroids up to relabeling.
        corners = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        offsets = np.array([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]])
        xy = np.concatenate([c + offsets for c in corners])
        weights = np.ones(len(xy))
        gws = degree_centrality_deploy(4, xy, weights)
        got = sorted(map(tuple, np.round(gws.positions, 6).tolist()))
        want = sorted(map(tuple, corners.tolist()))
        assert got == want

    def test_k_exceeds_n_rejected(self):
        xy, weights, _ = three_cluster_fixture()
        with pytest.raises(KExceedsN):
            degree_centrality_deploy(13, xy, weights)

    def test_all_zero_weights_rejected(self):
        xy, _, _ = three_cluster_fixture()
        with pytest.raises(AllZeroWeights):
            degree_centrality_deploy(2, xy, np.zeros(len(xy)))

    def test_positions_inside_bbox(self):
        xy, weights, _ = three_cluster_fixture()
        gws = degree_centrality_deploy(4, xy, weights)
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        for x, y in gws.positions:
            assert lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]

    def test_snap_to_nodes(self):
        xy, weights, _ = three_cluster_fixture()
        gws = degree_centrality_deploy(3, xy, weights, snap_to_nodes=True)
        node_set = set(map(tuple, xy.tolist()))
        assert all(tuple(pos) in node_set for pos in gws.positions)


class TestGreedyCoverage:
    def test_picks_heaviest_cluster_first(self):
        xy, weights, centers = three_cluster_fixture()
        gws = greedy_coverage_deploy(3, xy, weights, radius_m=10.0)
        assert len(gws.positions) == 3
        # each pick lands on a node inside a distinct cluster
        picked_clusters = {int(np.argmin([np.linalg.norm(np.array(p) - c) for c in centers]))
                           for p in gws.positions}
        assert picked_clusters == {0, 1, 2}

    @pytest.mark.parametrize("radius", [0.0, -1000.0, float("nan"), float("inf")])
    def test_bad_radius_rejected(self, radius):
        xy, weights, _ = three_cluster_fixture()
        with pytest.raises(ValueError, match="radius_m"):
            greedy_coverage_deploy(3, xy, weights, radius_m=radius)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_weights_rejected(self, bad):
        xy, weights, _ = three_cluster_fixture()
        weights[4] = bad
        with pytest.raises(ValueError, match="weights"):
            greedy_coverage_deploy(3, xy, weights, radius_m=10.0)

    def test_non_finite_coordinates_rejected(self):
        xy, weights, _ = three_cluster_fixture()
        xy[2, 1] = float("nan")
        with pytest.raises(ValueError, match="coordinates"):
            greedy_coverage_deploy(3, xy, weights, radius_m=10.0)


class TestNonFiniteInputs:
    """Both node strategies share one input check, and the grid checks its
    bbox: a non-finite input raises ValueError, never a NaN gateway."""

    XY = np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (6.0, 5.0)])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_weight_rejected_by_kmeans(self, bad):  # greedy: TestGreedyCoverage
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            degree_centrality_deploy(2, self.XY, np.array([1.0, bad, 1.0, 1.0]))

    @pytest.mark.parametrize("deploy", [degree_centrality_deploy, greedy_coverage_deploy])
    @pytest.mark.parametrize("xy", [[(float("nan"), 0.0), (1, 0), (5, 5), (6, 5)],
                                    [(-1e308, 0.0), (1e308, 0.0), (5, 5), (6, 5)]])  # the extent overflows
    def test_non_finite_coordinates_rejected(self, deploy, xy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^node coordinates and their extent must be finite$"):
                deploy(2, np.array(xy), np.ones(4))

    @pytest.mark.parametrize("deploy", [degree_centrality_deploy, greedy_coverage_deploy])
    @pytest.mark.parametrize("xy", [[(0, 0), (1e200, 0), (5, 5), (6, 5)],  # each square overflows
                                    [(0, 0), (1e154, 1e154), (5, 5), (6, 5)]])  # only their sum does
    def test_overflowing_squared_extent_rejected(self, deploy, xy):
        """Squared distances across the extent would overflow in k-means."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^the squared extent of the node coordinates must be finite$"):
                deploy(2, np.array(xy, dtype=float), np.ones(4))

    @pytest.mark.parametrize("bbox", [(0.0, 0.0, float("nan"), 1.0), (float("-inf"), 0.0, 1.0, 1.0),
                                      (-1e308, 0.0, 1e308, 1.0)])
    def test_non_finite_bbox_rejected(self, bbox):
        with pytest.raises(ValueError, match="^bounding box and its extent must be finite"):
            regular_grid_deploy(2, bbox)


class TestDispatchAndExport:
    def test_place_dispatch(self):
        xy, weights, _ = three_cluster_fixture()
        grid = place("regular_grid", 2, bbox=UNIT)
        km = place("degree_centrality", 2, node_xy=xy, weights=weights)
        assert grid.strategy == "regular_grid" and km.strategy == "degree_centrality"
        with pytest.raises(ValueError):
            place("voronoi", 2, bbox=UNIT)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_numpy_integer_k_places_as_an_int(self, strategy):
        """A NumPy integer K gives the GatewaySet of the same int K; a bool K is rejected."""
        xy, weights, _ = three_cluster_fixture()
        deploy = {"regular_grid": lambda k: regular_grid_deploy(k, (0.0, 0.0, 3000.0, 2000.0)),
                  "degree_centrality": lambda k: degree_centrality_deploy(k, xy, weights),
                  "greedy_coverage": lambda k: greedy_coverage_deploy(k, xy, weights, radius_m=10.0)}[strategy]
        want = deploy(4)
        for k in (np.int64(4), np.uint8(4)):
            got = deploy(k)
            assert type(got.k) is int and got.k == 4
            assert (got.strategy, repr(got.provenance)) == (want.strategy, repr(want.provenance))
            assert_positions(got.positions, want.positions)
        for k in (True, False, np.True_, 4.0):
            with pytest.raises(InvalidK, match="^gateway count must be a positive integer"):
                deploy(k)

    XY4 = np.array([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0), (6.0, 5.0)])

    @pytest.mark.parametrize("strategy, inputs, message", [
        ("greedy_coverage", dict(node_xy=XY4, weights=np.ones(5)), r"got shapes \(4, 2\) and \(5,\)$"),
        ("greedy_coverage", dict(node_xy=XY4, weights=np.ones(3)), r"got shapes \(4, 2\) and \(3,\)$"),
        ("degree_centrality", dict(node_xy=XY4, weights=np.ones((4, 1))), r"got shapes \(4, 2\) and \(4, 1\)$"),
        ("greedy_coverage", dict(node_xy=np.ones((4, 3)), weights=np.ones(4)), r"got shapes \(4, 3\) and \(4,\)$"),
        ("degree_centrality", dict(node_xy=np.ones(4), weights=np.ones(4)), r"got shapes \(4,\) and \(4,\)$"),
        ("degree_centrality", dict(node_xy=XY4), r"got shapes \(4, 2\) and \(\)$"),
        ("regular_grid", {}, r"^bbox must be \(x_min, y_min, x_max, y_max\), got None$"),
        ("regular_grid", dict(bbox=(0.0, 0.0, 1.0)), r"got \(0.0, 0.0, 1.0\)$"),
        ("regular_grid", dict(bbox=(10.0, 0.0, 0.0, 1.0)), r"nonnegative, got \(10.0, 0.0, 0.0, 1.0\)$"),
        ("regular_grid", dict(bbox=(0.0, 1.0, 1.0, -1.0)), r"nonnegative, got \(0.0, 1.0, 1.0, -1.0\)$"),
    ])
    def test_malformed_inputs_rejected(self, strategy, inputs, message):
        """Mismatched or misshapen node inputs and a missing, short or inverted
        bbox raise ValueError naming them, not an IndexError, an unpacking
        error or a mirrored grid."""
        with pytest.raises(ValueError, match=message):
            place(strategy, 2, **inputs)

    @pytest.mark.parametrize("strategy", ["regular_grid", "degree_centrality", "greedy_coverage"])
    @pytest.mark.parametrize("k", [13, 10**20])
    def test_place_rejects_k_exceeding_n_for_every_strategy(self, strategy, k):
        """Given the nodes, every strategy places at most one gateway per node;
        a huge K is rejected before the grid search walks its rows."""
        xy, weights, _ = three_cluster_fixture()
        bbox = (*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist())
        with pytest.raises(KExceedsN, match=f"^K={k} exceeds node count 12$"):
            place(strategy, k, bbox=bbox, node_xy=xy, weights=weights)

    def test_export_csv(self, tmp_path):
        gws = regular_grid_deploy(2, UNIT)
        export_gateways_csv(gws, tmp_path / "gws.csv")
        lines = (tmp_path / "gws.csv").read_text().splitlines()
        assert lines[0] == "gw_id,x,y,strategy,k,seed"
        assert lines[1].startswith("gw000,0.25,") and lines[1].endswith("regular_grid,2,0")
        assert len(lines) == 3
