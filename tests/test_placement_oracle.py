"""Differential tests: the lazy greedy, k-means and grid placements against their oracles.

``tests/reference_placement.py`` keeps the dense greedy that the lazy greedy
over radius neighbour lists replaced.  Its gains are BLAS sums, so the two
are compared on dyadic weights, whose sums are exact in any order: ties are
then true ties and both must pick the lowest index among them.  On weights
whose sums round, an exact rational oracle stands in for the dense code.

It keeps the radius neighbour lists built with one global sort of every
pair key.  The shipped lists, built a block of rows at a time, must hold the
same values with int32 columns, also with blocks of one or a few rows.

It also keeps the k-means with its N x K x 2 distance temporary.  Its
arithmetic has no BLAS in it, so the shipped k-means must match it bit for
bit on any weights, the 420-node acceptance network and the 4419-node
benchmark network included.  The link budget takes its distances from the
same squared-distance helper, so on both networks it must equal the budget
computed from that (N, K, 2) temporary bit for bit.

It keeps the grid built one Python tuple per cell.  The shipped grid fills
an array with the same float operations in the same order, so its positions
must hold the same bytes.

Each oracle returns a list of ``(x, y)`` tuples; the shipped positions are
compared with its array byte for byte, with their shape and dtype, the K and
the provenance (by ``repr``, which round-trips floats).
"""

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrolora import (
    PropagationModel,
    RadioConfig,
    build_adjacency,
    build_network,
    degree_centrality,
    degree_centrality_deploy,
    flow_proxy,
    greedy_coverage_deploy,
    link_rssi_matrix,
    path_loss_db,
    placement_weights,
    regular_grid_deploy,
    synthetic_wds,
    tokenize_inp,
)
from hydrolora import placement
from hydrolora.errors import AllZeroWeights
from hydrolora.placement import _radius_neighbours
from hydrolora.rng import substream
from tests import reference_placement
from tests.test_acceptance import FIXTURE, SWEEP_KS
from tests.test_placement import assert_positions

DYADIC = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0)
# sums that round, near ties (0.1 + 0.2 vs 0.3) and a 2**2000 range
ROUNDING = (0.0, 0.1, 0.2, 0.3, 0.7, 5e-324, 1e-300, 1e300)
# one block for these small cases, then a row or a few rows per block
PAIRS_PER_BLOCK = (placement._PAIRS_PER_BLOCK, 1, 5)


def assert_same_placement(got, want):
    """The shipped GatewaySet ``got`` holds the bytes of the oracle's ``want``."""
    assert (got.strategy, got.k, repr(got.provenance)) == (want.strategy, want.k, repr(want.provenance))
    assert type(got.k) is int
    assert_positions(got.positions, want.positions)


def dense_within(xy, radius_m):
    return ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2) <= radius_m**2


@st.composite
def cases(draw, weight_values=DYADIC):
    n = draw(st.integers(1, 12))
    point = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
    return dict(
        coords=draw(st.lists(point, min_size=n, max_size=n)),
        weights=draw(st.lists(st.sampled_from(weight_values), min_size=n, max_size=n)),
        k=draw(st.integers(1, n)),
        radius_m=draw(st.sampled_from([1.0, 5.0, 7.5, 100.0, 1e-9, 1e-300])),
        unit_m=draw(st.sampled_from([1.0, 0.5, 1e6])),
        offset_m=draw(st.sampled_from([0.0, 1e6, -1e6])),
    )


def xy_of(p):
    return p["offset_m"] + p["unit_m"] * np.array(p["coords"], dtype=np.float64)


def case(coords, weights, k, radius_m, unit_m=1.0, offset_m=0.0):
    return dict(coords=coords, weights=weights, k=k, radius_m=radius_m, unit_m=unit_m, offset_m=offset_m)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(cases())
# pairs at exactly the radius (3-4-5 triangles), far from the origin
@example(case([(0, 0), (3, 4), (6, 8), (3, -4), (0, 5), (0, 6)], [1.0, 0.25, 3.0, 2.0, 0.5, 1.0], 3,
              5.0, offset_m=1e6))
@example(case([(0, 0), (3, 4), (6, 8), (-3, 4)], [0.5, 0.25, 1.0, 1.0], 2, 5.0, offset_m=-1e6))
# a pair at exactly the radius on both sides of a cell boundary
@example(case([(0, 0), (1 - 1.5 * 2**-16, 0), (2 - 1.5 * 2**-16, 0)], [1.0, 0.25, 0.5], 2, 1.0))
# coincident nodes
@example(case([(2, 2), (2, 2), (2, 2), (9, 9), (9, 9), (-4, 0)], [0.25, 0.25, 0.5, 1.0, 0.0, 0.5], 4, 1.0))
# saturation: after two picks every weight is covered, the rest land on node 0
@example(case([(5, 5), (6, 5), (-8, -8), (-8, -7), (0, 12)], [1.0, 2.0, 0.5, 0.0, 0.0], 5, 2.0))
# K = N
@example(case([(i, (3 * i) % 7) for i in range(12)], list(DYADIC) * 2, 12, 1.0))
# a radius wider than the bounding box
@example(case([(-12, -12), (12, 12), (0, 3), (7, -2)], [0.25, 1.0, 2.0, 0.5], 3, 100.0))
# radii of 1e-9 and 1e-300 against a 1e7 span: the cell key must not
# overflow int64 (an out-of-range float-to-int cast warns, raised below)
@example(case([(0, 0), (10, 0), (0, 10), (0, 0), (10, 10)], [1.0, 2.0, 0.5, 1.0, 0.25], 4, 1e-9,
              unit_m=1e6))
@example(case([(0, 0), (10, 0), (0, 10), (0, 0), (10, 10)], [1.0, 2.0, 0.5, 1.0, 0.25], 4, 1e-300,
              unit_m=1e6))
def test_lazy_greedy_matches_dense_greedy(p):
    xy = xy_of(p)
    weights = np.array(p["weights"])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        indptr, indices = _radius_neighbours(xy, p["radius_m"])
    within = dense_within(xy, p["radius_m"])
    assert np.array_equal(np.diff(indptr), within.sum(axis=1))
    for i, row in enumerate(within):
        assert indices[indptr[i]:indptr[i + 1]].tolist() == np.flatnonzero(row).tolist()

    for pairs_per_block in PAIRS_PER_BLOCK:
        with mock.patch.object(placement, "_PAIRS_PER_BLOCK", pairs_per_block):
            assert_same_neighbours(xy, p["radius_m"])

    args = (p["k"], xy, weights, p["radius_m"])
    if weights.sum() == 0:
        for deploy in (greedy_coverage_deploy, reference_placement.greedy_coverage_deploy):
            with pytest.raises(AllZeroWeights):
                deploy(*args)
        return
    want = reference_placement.greedy_coverage_deploy(*args)
    for pairs_per_block in PAIRS_PER_BLOCK:
        with mock.patch.object(placement, "_PAIRS_PER_BLOCK", pairs_per_block):
            got = greedy_coverage_deploy(*args)
        assert_same_placement(got, want)


def assert_same_neighbours(xy, radius_m):
    """The shipped neighbour lists equal the one-sort oracle's, columns int32."""
    indptr, indices = _radius_neighbours(xy, radius_m)
    want_indptr, want_indices = reference_placement._radius_neighbours(xy, radius_m)
    assert indices.dtype == np.int32
    assert np.array_equal(indptr, want_indptr) and np.array_equal(indices, want_indices)


@pytest.mark.parametrize("fixture,radius_m", [
    *((fixture, radius_m) for fixture in (FIXTURE, dict(n_nodes=4419, n_reservoirs=3, seed=0))
      for radius_m in (500.0, 1000.0, 2000.0)),
    (dict(n_nodes=9000, n_reservoirs=3, seed=0), 1000.0),  # 13.4 M candidate pairs, 207 blocks
])
def test_neighbour_lists_match_oracle_on_fixtures(fixture, radius_m):
    assert_same_neighbours(build_network(tokenize_inp(synthetic_wds(**fixture))).coordinates(), radius_m)


def exact_greedy(k, xy, weights, radius_m):
    """Greedy with exact rational gains: lowest index among the maximal ones."""
    exact = [Fraction(float(w)) for w in weights]
    scale = max(w.denominator for w in exact)
    uncovered = [int(w * scale) for w in exact]  # integers: every sum is exact
    neighbours = [np.flatnonzero(row).tolist() for row in dense_within(xy, radius_m)]
    chosen = []
    for _ in range(k):
        gains = [sum(uncovered[j] for j in near) for near in neighbours]
        pick = gains.index(max(gains))
        chosen.append(pick)
        for j in neighbours[pick]:
            uncovered[j] = 0
    return chosen


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cases(ROUNDING))
def test_lazy_greedy_matches_exact_oracle(p):
    xy, weights = xy_of(p), np.array(p["weights"])
    if weights.sum() > 0:
        want = [tuple(xy[i].tolist()) for i in exact_greedy(p["k"], xy, weights, p["radius_m"])]
        assert_positions(greedy_coverage_deploy(p["k"], xy, weights, p["radius_m"]).positions, want)


@pytest.mark.parametrize("radius_m", [500.0, 1000.0, 2000.0])
def test_acceptance_fixture_centrality_weights_match_exact_oracle(radius_m):
    # alpha = 1.0 weighs by degree centrality alone, so many gains tie
    # exactly, and some differ by less than their rounding (at 500 m, in
    # the 15th pick, two exact sums round to the same double); a BLAS sum
    # breaks such ties by rounding error, a correctly rounded one by index.
    net = build_network(tokenize_inp(synthetic_wds(**FIXTURE)))
    adj = build_adjacency(net)
    weights = placement_weights(degree_centrality(adj), flow_proxy(net, adj).values, alpha=1.0).weight
    xy = net.coordinates()
    k = max(SWEEP_KS)
    want = [tuple(xy[i].tolist()) for i in exact_greedy(k, xy, weights, radius_m)]
    assert_positions(greedy_coverage_deploy(k, xy, weights, radius_m=radius_m).positions, want)


def assert_same_kmeans(k, xy, weights, snap=False):
    """The shipped k-means and its N x K x 2 oracle: the same error, or
    positions and objective with the same bits."""
    outcomes = []
    for deploy in (degree_centrality_deploy, reference_placement.degree_centrality_deploy):
        try:
            outcomes.append(deploy(k, xy, weights, snap_to_nodes=snap))
        except AllZeroWeights as exc:
            outcomes.append(repr(exc))
    got, want = outcomes
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert_same_placement(got, want)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(cases(), cases(ROUNDING)), st.booleans())
# coincident seeds leave two clusters empty, so they are reseeded
@example(case([(2, 2), (2, 2), (2, 2), (9, 9), (9, 9), (-4, 0)], [0.25, 0.25, 0.5, 1.0, 0.0, 0.5], 5, 1.0), False)
# the third seed's cluster holds only zero-weight nodes, so its centre is their mean
@example(case([(0, 0), (4, 0), (9, 9), (10, 9)], [1.0, 1.0, 0.0, 0.0], 3, 1.0), False)
def test_kmeans_matches_oracle(p, snap):
    assert_same_kmeans(p["k"], xy_of(p), np.array(p["weights"]), snap)


def fixture_weights(net):
    adj = build_adjacency(net)
    return placement_weights(degree_centrality(adj), flow_proxy(net, adj).values, 0.5).weight


@pytest.mark.parametrize("scale", [1.0, 3.0])
@pytest.mark.parametrize("snap", [False, True])
def test_kmeans_matches_oracle_on_acceptance_fixture(scale, snap):
    net = build_network(tokenize_inp(synthetic_wds(**FIXTURE)))
    for k in SWEEP_KS:
        assert_same_kmeans(k, net.coordinates() * scale, fixture_weights(net), snap)


@pytest.mark.parametrize("k,scale,snap", [(77, 1.0, False), (165, 3.0, True)])
def test_kmeans_matches_oracle_on_paper_fixture(k, scale, snap):
    """The benchmark's 4419-node network at the paper's smallest and largest K."""
    net = build_network(tokenize_inp(synthetic_wds(n_nodes=4419, n_reservoirs=3, seed=0)))
    assert_same_kmeans(k, net.coordinates() * scale, fixture_weights(net), snap)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(rows=st.integers(0, 40), cols=st.integers(0, 7), pairs_per_block=st.sampled_from([1, 6, 7, 40]),
       seed=st.integers(0, 3), integer=st.booleans())
@example(rows=0, cols=3, pairs_per_block=6, seed=0, integer=False)
@example(rows=1, cols=3, pairs_per_block=6, seed=0, integer=False)
@example(rows=2, cols=3, pairs_per_block=6, seed=0, integer=False)  # one full block
@example(rows=3, cols=3, pairs_per_block=6, seed=0, integer=False)  # a block and a row
@example(rows=50, cols=4, pairs_per_block=placement._PAIRS_PER_BLOCK, seed=1, integer=False)
def test_sq_dist_keeps_the_bits_of_the_dense_expression(rows, cols, pairs_per_block, seed, integer):
    """``_sq_dist`` adds ``dy * dy`` a block of rows at a time; any block size
    must give the bits of the (rows, cols, 2) expression."""
    rng = substream(seed, "sq-dist-oracle")
    a, b = rng.uniform(-1e4, 1e4, (rows, 2)), rng.uniform(-1e4, 1e4, (cols, 2))
    if integer:  # coincident points and exact squares
        a, b = np.round(a / 1e3), np.round(b / 1e3)
    with mock.patch.object(placement, "_PAIRS_PER_BLOCK", pairs_per_block):
        got = placement._sq_dist(a, b)
    expected = ((a[:, None] - b[None]) ** 2).sum(axis=2)
    assert got.shape == expected.shape == (rows, cols)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fixture,ks", [(FIXTURE, SWEEP_KS),
                                        (dict(n_nodes=4419, n_reservoirs=3, seed=0), (77, 96, 117, 140, 165))])
@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_link_rssi_matches_dense_distance_expression(fixture, ks, scale):
    net = build_network(tokenize_inp(synthetic_wds(**fixture)))
    xy = net.coordinates() * scale
    rng = substream(9, "link-rssi-oracle")
    cfg = RadioConfig()
    for k in ks:
        # random gateways in the bounding box, the first one on a node (distance 0)
        gateways = rng.uniform(xy.min(axis=0), xy.max(axis=0), size=(k, 2))
        gateways[0] = xy[k]
        dense = np.sqrt(((xy[:, None] - gateways[None]) ** 2).sum(axis=2))
        for model in (PropagationModel(), PropagationModel(ref_loss_db=120.0, exponent=3.5)):
            expected = cfg.tx_power_dbm - path_loss_db(dense, model)
            assert np.array_equal(link_rssi_matrix(xy, gateways, cfg, model), expected)


# Grid bboxes: negative, large and tiny origins, extents from 1e-3 to 1e8,
# each axis degenerate in turn, and random ones drawn below.
GRID_BBOXES = [
    (0.0, 0.0, 3000.0, 2000.0),
    (-7.3e7, -1.1e-3, -7.3e7 + 1e8, 5.0),
    (1e8, 1e8, 1e8 + 1e-3, 1e8 + 7.0),
    (-123.456, -0.001, -0.001, 0.002),
    (0.1, 0.2, 0.7, 0.2),  # degenerate in y: one row
    (-5e5, 3.3, -5e5, 1e5 + 3.3),  # degenerate in x: one column
]


def random_grid_bboxes(count):
    rng = substream(22, "grid-oracle")
    origins = rng.uniform(-1e8, 1e8, (count, 2)) * 10.0 ** rng.integers(-11, 1, (count, 2))
    extents = 10.0 ** rng.uniform(-3, 8, (count, 2))
    return [(x, y, x + w, y + h) for (x, y), (w, h) in zip(origins.tolist(), extents.tolist())]


@pytest.mark.parametrize("bbox", GRID_BBOXES + random_grid_bboxes(4))
def test_grid_matches_the_tuple_built_grid_byte_for_byte(bbox):
    for k in range(1, 400):
        assert_same_placement(regular_grid_deploy(k, bbox), reference_placement.regular_grid_deploy(k, bbox))
