"""Gateway placement strategies over a water network's geometry.

Two primary strategies: a regular grid over the bounding box, and weighted
k-means over node coordinates using the blended centrality/flow weights, so
gateways gravitate toward the nodes that matter most.  A greedy weighted
max-coverage variant is available as an alternative.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .csvio import floats, text, write_csv
from .errors import AllZeroWeights, DegenerateBBox, InvalidK, KExceedsN

REGULAR_GRID = "regular_grid"
DEGREE_CENTRALITY = "degree_centrality"
GREEDY_COVERAGE = "greedy_coverage"
STRATEGIES = (REGULAR_GRID, DEGREE_CENTRALITY, GREEDY_COVERAGE)
KMEANS_MAX_ITER = 100
_PAIRS_PER_BLOCK = 1 << 15  # point pairs handled at a time, which bounds the memory of neighbour lists and distances


@dataclass
class GatewaySet:
    """K gateway positions as a C-contiguous (K, 2) float64 array, plus how they were chosen."""

    strategy: str
    k: int
    positions: np.ndarray
    provenance: dict = field(default_factory=dict)


def _grid_dims(k: int, width: float, height: float) -> tuple[int, int]:
    """Rows and columns for K cells: the factor pair rows * cols = K whose
    rows / cols is closest to height / width, the smaller rows on a tie, so
    a prime K is one row or one column."""
    if width == 0:
        return k, 1
    if height == 0:
        return 1, k
    target = height / width
    rows = min((r for d in range(1, math.isqrt(k) + 1) if k % d == 0 for r in (d, k // d)),
               key=lambda r: (abs(r / (k // r) - target), r))
    return rows, k // rows


def regular_grid_deploy(k: int, bbox: tuple[float, float, float, float]) -> GatewaySet:
    """Place K gateways at the cell centers of a rows x cols grid over the bounding
    box (x_min, y_min, x_max, y_max), row-major from the bottom-left: row
    i * cols + j of ``positions`` is cell (i, j).  A bbox degenerate on one
    axis collapses to a line of K cells; degenerate on both is an error."""
    k = _check_k(k)
    if np.shape(bbox) != (4,):
        raise ValueError(f"bbox must be (x_min, y_min, x_max, y_max), got {bbox!r}")
    x_min, y_min, x_max, y_max = bbox
    width, height = x_max - x_min, y_max - y_min
    if not (math.isfinite(x_min) and math.isfinite(y_min) and 0 <= width < math.inf and 0 <= height < math.inf):
        raise ValueError(f"bounding box and its extent must be finite and nonnegative, got {tuple(bbox)!r}")
    if width == 0 and height == 0:
        raise DegenerateBBox("bounding box has zero extent on both axes")

    rows, cols = _grid_dims(k, width, height)
    positions = np.empty((rows, cols, 2))
    positions[:, :, 0] = x_min + (np.arange(cols) + 0.5) * width / cols
    positions[:, :, 1] = (y_min + (np.arange(rows) + 0.5) * height / rows)[:, None]
    return GatewaySet(strategy=REGULAR_GRID, k=k, positions=positions.reshape(k, 2),
                      provenance={"rows": rows, "cols": cols, "bbox": list(bbox)})


def _check_k(k, n: int | None = None) -> int:
    """``k`` as an int; raise unless it is a positive integer, not a bool, and at most the node count ``n``."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 1:
        raise InvalidK(f"gateway count must be a positive integer, got {k!r}")
    if n is not None and k > n:
        raise KExceedsN(f"K={k} exceeds node count {n}")
    return int(k)


def _node_inputs(k, node_xy, weights) -> tuple[int, np.ndarray, np.ndarray]:
    """K as an int and ``node_xy`` and ``weights`` as float arrays, after both
    node strategies' checks: K, shapes (N, 2) and (N,), finite coordinates,
    extent and squared extent, finite nonnegative weights with a positive sum."""
    node_xy = np.asarray(node_xy, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if node_xy.ndim != 2 or node_xy.shape[1] != 2 or weights.shape != node_xy.shape[:1]:
        raise ValueError(f"node_xy must be (N, 2) and weights (N,), got shapes {node_xy.shape} and {weights.shape}")
    k = _check_k(k, len(node_xy))
    with np.errstate(over="ignore"):
        width, height = (node_xy.max(axis=0) - node_xy.min(axis=0)).tolist()
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError("node coordinates and their extent must be finite")
    if not _sq_extent_finite(width, height):
        raise ValueError("the squared extent of the node coordinates must be finite")
    if not np.all((weights >= 0) & (weights < math.inf)):
        raise ValueError("weights must be finite and nonnegative")
    if weights.sum() <= 0:
        raise AllZeroWeights("placement weights sum to zero")
    return k, node_xy, weights


def _farthest_point_seeds(xy: np.ndarray, weights: np.ndarray, k: int) -> list[int]:
    """Deterministic init: start at the heaviest node, then repeatedly take
    the node maximizing weight * squared-distance to the nearest chosen seed.
    Ties resolve to the earliest node in file order."""
    first = int(weights.argmax())
    seeds = [first]
    available = np.ones(len(xy), dtype=bool)
    available[first] = False
    nearest_sq = _sq_dist(xy, xy[first:first + 1])[:, 0]
    while len(seeds) < k:
        score = np.where(available, weights * nearest_sq, -1.0)
        nxt = int(score.argmax())
        seeds.append(nxt)
        available[nxt] = False
        nearest_sq = np.minimum(nearest_sq, _sq_dist(xy, xy[nxt:nxt + 1])[:, 0])
    return seeds


def _sq_extent_finite(width: float, height: float) -> bool:
    """Whether every squared distance ``_sq_dist`` takes across a width x height
    extent stays finite.  Python floats: an overflow gives inf, not a warning."""
    return math.isfinite(width * width + height * height)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between two point sets, as
    ``dx * dx + dy * dy``: the bits of ``((a[:, None] - b[None]) ** 2).sum(axis=2)``
    without its (len(a), len(b), 2) temporaries.  ``dy * dy`` is added a block
    of at most ``_PAIRS_PER_BLOCK`` pairs at a time."""
    sq = a[:, 0, None] - b[None, :, 0]
    sq *= sq
    rows = max(1, _PAIRS_PER_BLOCK // max(1, len(b)))
    for lo in range(0, len(a), rows):
        dy = a[lo:lo + rows, 1, None] - b[None, :, 1]
        dy *= dy
        sq[lo:lo + rows] += dy
    return sq


def degree_centrality_deploy(
    k: int,
    node_xy: np.ndarray,
    weights: np.ndarray,
    *,
    snap_to_nodes: bool = False,
) -> GatewaySet:
    """Weighted k-means over node coordinates; centers become gateways.

    Initialization is the deterministic weighted farthest-point rule, Lloyd
    iterations assign nodes to the nearest center and recompute centers as
    weight-weighted centroids, and the loop stops when the largest center
    displacement drops below 1e-6 of the bbox diagonal, or after
    ``KMEANS_MAX_ITER`` iterations.  An emptied cluster is reseeded at the
    node with the largest weight * squared-distance to its current center.
    Nothing here is random.
    """
    k, node_xy, weights = _node_inputs(k, node_xy, weights)
    n = len(node_xy)

    diag = math.hypot(node_xy[:, 0].max() - node_xy[:, 0].min(),
                      node_xy[:, 1].max() - node_xy[:, 1].min())
    tol = 1e-6 * diag

    centers = node_xy[_farthest_point_seeds(node_xy, weights, k)].copy()
    previous_objective = math.inf
    for _ in range(KMEANS_MAX_ITER):
        sq_dist = _sq_dist(node_xy, centers)
        assignment = sq_dist.argmin(axis=1)
        nearest_sq = sq_dist[np.arange(n), assignment]

        counts = np.bincount(assignment, minlength=k)
        for cluster in range(k):
            if counts[cluster] == 0:
                relocate = int((weights * nearest_sq).argmax())
                centers[cluster] = node_xy[relocate]
                sq_dist[:, cluster] = _sq_dist(node_xy, centers[cluster:cluster + 1])[:, 0]
                assignment = sq_dist.argmin(axis=1)
                nearest_sq = sq_dist[np.arange(n), assignment]
                counts = np.bincount(assignment, minlength=k)

        objective = float((weights * nearest_sq).sum())
        if objective > previous_objective * (1 + 1e-9):
            raise RuntimeError("k-means objective increased; numerical inconsistency")
        previous_objective = objective

        # A stable sort puts each cluster's members in node order in one slice,
        # so each sum sees the values, order and layout of a masked copy.
        # (np.add.reduceat would sum sequentially, not pairwise: other bits.)
        by_cluster = np.argsort(assignment, kind="stable")
        w, xy = weights[by_cluster], node_xy[by_cluster]
        wxy = w[:, None] * xy
        bounds = [0, *np.cumsum(counts).tolist()]
        new_centers = centers.copy()
        for cluster, (start, end) in enumerate(zip(bounds, bounds[1:])):
            cluster_weight = w[start:end].sum()
            if cluster_weight > 0:
                new_centers[cluster] = wxy[start:end].sum(axis=0) / cluster_weight
            elif end > start:
                new_centers[cluster] = xy[start:end].mean(axis=0)  # zero-weight cluster
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break

    if snap_to_nodes:
        centers = node_xy[_sq_dist(centers, node_xy).argmin(axis=1)].copy()

    return GatewaySet(strategy=DEGREE_CENTRALITY, k=k, positions=centers,
                      provenance={"snap_to_nodes": snap_to_nodes, "objective": previous_objective})


def _row_blocks(ends: np.ndarray):
    """Consecutive row ranges (start, stop) that each hold at most
    ``_PAIRS_PER_BLOCK`` pairs, or one row; ``ends[i]`` counts the pairs
    of the rows before row i."""
    start = 0
    while start < len(ends) - 1:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + _PAIRS_PER_BLOCK, "right")) - 1)
        yield start, stop
        start = stop


def _radius_neighbours(node_xy: np.ndarray, radius_m: float) -> tuple[np.ndarray, np.ndarray]:
    """CSR lists (indptr, indices) of the nodes j with
    ``((xy_i - xy_j) ** 2).sum() <= radius_m ** 2`` for each node i, itself
    included, columns ascending; ``indices`` is int32 when N < 2**31.  The
    coordinates and their extent are finite (``_node_inputs``).

    Nodes are bucketed into square cells and candidates come from the 3x3
    cells around each node.  The cell side exceeds the radius by a 2**-16
    margin, which rounding in the cell arithmetic cannot eat, so two nodes
    that pass the test never sit two cells apart; it is also at least the
    span / 2**30, so cell keys stay far inside int64.

    Rows are walked in blocks of at most ``_PAIRS_PER_BLOCK`` candidate
    pairs, and each block sorts its own pair keys and writes its columns into
    ``indices``, so the memory above the result is bounded by the block, not
    by N * deg.  ``indices`` is allocated for every candidate pair and trimmed
    in place at the end: only the pages written are ever resident.
    """
    n = len(node_xy)
    lo = node_xy.min(axis=0)
    span = float((node_xy.max(axis=0) - lo).max())
    side = max(radius_m * (1 + 2.0**-16), span / 2.0**30)
    cell = np.floor((node_xy - lo) / side).astype(np.int64)
    key = cell[:, 0] * 2**31 + cell[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # (9, n): where each node's candidates in each neighbouring cell start in
    # ``order``, and how many there are
    near = key + np.array([dx * 2**31 + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)])[:, None]
    first = np.searchsorted(sorted_key, near, "left")
    count = np.searchsorted(sorted_key, near, "right") - first
    ends = np.concatenate([[0], np.cumsum(count.sum(axis=0))])
    x, y = node_xy[:, 0], node_xy[:, 1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(int(ends[-1]), dtype=np.int32 if n < 2**31 else np.int64)
    for a, b in _row_blocks(ends):
        block_count = count[:, a:b].ravel()
        i = np.repeat(np.tile(np.arange(a, b), 9), block_count)
        j = order[np.arange(len(i)) + np.repeat(first[:, a:b].ravel() - np.cumsum(block_count) + block_count,
                                                block_count)]
        dx, dy = x[i] - x[j], y[i] - y[j]
        keep = dx * dx + dy * dy <= radius_m * radius_m
        pair_key = (i[keep] - a) * n + j[keep]
        pair_key.sort()
        indptr[a + 1:b + 1] = np.cumsum(np.bincount(pair_key // n, minlength=b - a)) + indptr[a]
        pair_key %= n
        indices[indptr[a]:indptr[b]] = pair_key
    indices.resize(indptr[-1], refcheck=False)
    return indptr, indices


def greedy_coverage_deploy(
    k: int,
    node_xy: np.ndarray,
    weights: np.ndarray,
    radius_m: float = 1000.0,
) -> GatewaySet:
    """Greedy weighted max-coverage: repeatedly take the node covering the
    most uncovered weight within the radius.  Alternative to k-means.

    A node covers every node j (itself included) with
    ``((xy_i - xy_j) ** 2).sum() <= radius_m ** 2``.  Its gain is the exact
    sum of the uncovered weights it covers, summed as integers so that no
    rounding can break a tie, and each pick is the lowest node index among
    the maximal gains.  Once every weight is covered all gains are 0, so the
    remaining picks repeat node 0.

    Gains are evaluated lazily (CELF: Minoux 1978; Leskovec et al. 2007).
    Coverage is submodular, so a gain computed in an earlier round bounds the
    current one from above, and only a candidate whose bound reaches the top
    of the heap is recomputed.  The picks equal those of recomputing every
    gain in every round.
    """
    k, node_xy, weights = _node_inputs(k, node_xy, weights)
    n = len(node_xy)
    if not 0 < radius_m < math.inf:
        raise ValueError(f"radius_m must be finite and positive, got {radius_m!r}")

    indptr, indices = _radius_neighbours(node_xy, radius_m)
    # Weights as exact integers: each is a multiple of 1 / unit, unit being
    # the largest power-of-two denominator among them.
    ratios = [w.as_integer_ratio() for w in weights.tolist()]
    unit = max(den for _, den in ratios)
    units = [num * (unit // den) for num, den in ratios]
    # First bounds: the units cut to int64 by a right shift, rounded up per
    # term, summed in numpy; up to n terms below 2**62 / n cannot overflow.
    shift = max(0, max(units).bit_length() + n.bit_length() - 62)
    coarse = np.array([u >> shift for u in units], dtype=np.int64)
    bound = np.diff(indptr)
    for a, b in _row_blocks(indptr):  # every row holds its own node, so none is empty
        bound[a:b] += np.add.reduceat(coarse[indices[indptr[a]:indptr[b]]], indptr[a:b] - indptr[a])
    heap = [(-(b << shift), node) for node, b in enumerate(bound.tolist())]
    heapq.heapify(heap)
    starts = indptr.tolist()
    uncovered = weights > 0

    def gain(node: int) -> int:
        near = indices[starts[node]:starts[node + 1]]
        return sum(map(units.__getitem__, near[uncovered[near]].tolist()))

    fresh_in = [0] * n  # round in which a node's heap entry was last recomputed
    chosen: list[int] = []
    for round_ in range(1, k + 1):
        neg_gain, pick = heapq.heappop(heap)
        while fresh_in[pick] != round_:
            fresh_in[pick] = round_
            neg_gain, pick = heapq.heappushpop(heap, (-gain(pick), pick))
        chosen.append(pick)
        uncovered[indices[starts[pick]:starts[pick + 1]]] = False
        heapq.heappush(heap, (neg_gain, pick))  # saturated rounds pick it again
    return GatewaySet(strategy=GREEDY_COVERAGE, k=k, positions=node_xy[chosen],
                      provenance={"radius_m": radius_m})


def place(strategy: str, k: int, *, bbox=None, node_xy=None, weights=None,
          snap_to_nodes: bool = False, radius_m: float = 1000.0) -> GatewaySet:
    """Dispatch to a placement strategy by name, after checking K against the node count."""
    if node_xy is not None:
        _check_k(k, len(node_xy))
    if strategy == REGULAR_GRID:
        return regular_grid_deploy(k, bbox)
    if strategy == DEGREE_CENTRALITY:
        return degree_centrality_deploy(k, node_xy, weights, snap_to_nodes=snap_to_nodes)
    if strategy == GREEDY_COVERAGE:
        return greedy_coverage_deploy(k, node_xy, weights, radius_m=radius_m)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def export_gateways_csv(gateways: GatewaySet, path=None) -> None:
    """Write ``gw_id,x,y,strategy,k,seed`` rows to ``path``, or to stdout when
    None.  Placement is not random, so ``seed`` is always 0."""
    xy, n = gateways.positions, len(gateways.positions)
    write_csv(path, "gw_id,x,y,strategy,k,seed", [
        text([f"gw{idx:03d}" for idx in range(n)]), floats(xy[:, 0]), floats(xy[:, 1]),
        *(text([value] * n) for value in (gateways.strategy, gateways.k, 0))])
