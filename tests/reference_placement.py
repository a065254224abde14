"""Reference oracles: the dense greedy max-coverage placement, the radius
neighbour lists built with one global sort, the k-means placement with its
N x K x 2 distance temporary, and the grid built one Python tuple per cell.

``greedy_coverage_deploy`` is as it stood before the lazy greedy over
radius neighbour lists in ``hydrolora.placement`` replaced it, less the
``seed`` argument that only labelled its provenance: an N x N
squared-distance matrix, an N x N ``within`` mask, and one matrix-vector
product per pick.  Its gains are BLAS sums, whose rounding depends on the
kernel, so ``test_placement_oracle.py`` compares against it only on weights
whose sums are exact in any order.

``_radius_neighbours`` is kept verbatim from before the shipped one built
its lists a block of rows at a time: every candidate pair of all nine cell
offsets at once as int64 ``i``, ``j``, ``dx`` and ``dy``, and one sort of
all N * deg pair keys.  The shipped lists must hold the same values, with
int32 columns.

``degree_centrality_deploy`` is kept verbatim from before its Lloyd steps
computed distances as ``dx * dx + dy * dy`` on (N, K) arrays and counted
cluster sizes with one ``bincount``; the shipped one must match it bit for
bit.

``regular_grid_deploy`` is kept verbatim from before the shipped one filled
a (rows, cols, 2) array: a list of ``(x, y)`` tuples, one per cell, each
coordinate computed in Python floats.  The shipped positions must hold the
same bytes.  Every oracle here returns its positions as that list of tuples.
"""

from __future__ import annotations

import math

import numpy as np

from hydrolora.errors import AllZeroWeights, DegenerateBBox, InvalidK, KExceedsN
from hydrolora.placement import (DEGREE_CENTRALITY, GREEDY_COVERAGE, REGULAR_GRID, GatewaySet, _farthest_point_seeds,
                                 _grid_dims)


def greedy_coverage_deploy(
    k: int,
    node_xy: np.ndarray,
    weights: np.ndarray,
    radius_m: float = 1000.0,
) -> GatewaySet:
    """Greedy weighted max-coverage: repeatedly take the node covering the
    most uncovered weight within the radius.  Alternative to k-means."""
    node_xy = np.asarray(node_xy, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(node_xy)
    if not isinstance(k, int) or k < 1:
        raise InvalidK(f"gateway count must be a positive integer, got {k!r}")
    if k > n:
        raise KExceedsN(f"K={k} exceeds node count {n}")
    if weights.sum() <= 0:
        raise AllZeroWeights("placement weights sum to zero")

    sq_dist = ((node_xy[:, None, :] - node_xy[None, :, :]) ** 2).sum(axis=2)
    within = sq_dist <= radius_m**2
    uncovered = weights.copy()
    chosen: list[int] = []
    for _ in range(k):
        gains = within @ uncovered
        pick = int(gains.argmax())
        chosen.append(pick)
        uncovered[within[pick]] = 0.0
    positions = [(float(node_xy[i, 0]), float(node_xy[i, 1])) for i in chosen]
    return GatewaySet(strategy=GREEDY_COVERAGE, k=k, positions=positions,
                      provenance={"radius_m": radius_m})


def _radius_neighbours(node_xy: np.ndarray, radius_m: float) -> tuple[np.ndarray, np.ndarray]:
    """CSR lists (indptr, indices) of the nodes j with
    ``((xy_i - xy_j) ** 2).sum() <= radius_m ** 2`` for each node i, itself
    included, columns ascending.

    Nodes are bucketed into square cells and candidates come from the 3x3
    cells around each node.  The cell side exceeds the radius by a 2**-16
    margin, which rounding in the cell arithmetic cannot eat, so two nodes
    that pass the test never sit two cells apart; it is also at least the
    span / 2**30, so cell keys stay far inside int64.
    """
    n = len(node_xy)
    lo = node_xy.min(axis=0)
    span = float((node_xy.max(axis=0) - lo).max())
    if not math.isfinite(span):
        raise ValueError("node coordinates and their extent must be finite")
    side = max(radius_m * (1 + 2.0**-16), span / 2.0**30)
    cell = np.floor((node_xy - lo) / side).astype(np.int64)
    key = cell[:, 0] * 2**31 + cell[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    x, y = node_xy[:, 0], node_xy[:, 1]
    pair_keys = []
    for offset in (dx * 2**31 + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
        start = np.searchsorted(sorted_key, key + offset, "left")
        count = np.searchsorted(sorted_key, key + offset, "right") - start
        i = np.repeat(np.arange(n), count)
        j = order[np.arange(len(i)) + np.repeat(start - np.cumsum(count) + count, count)]
        dx, dy = x[i] - x[j], y[i] - y[j]
        keep = dx * dx + dy * dy <= radius_m * radius_m
        pair_keys.append(i[keep] * n + j[keep])
    indices = np.concatenate(pair_keys)
    indices.sort()
    indptr = np.searchsorted(indices, np.arange(n + 1) * n)
    indices %= n
    return indptr, indices


def degree_centrality_deploy(
    k: int,
    node_xy: np.ndarray,
    weights: np.ndarray,
    *,
    max_iter: int = 100,
    snap_to_nodes: bool = False,
) -> GatewaySet:
    """Weighted k-means over node coordinates; centers become gateways.

    Initialization is the deterministic weighted farthest-point rule, Lloyd
    iterations assign nodes to the nearest center and recompute centers as
    weight-weighted centroids, and the loop stops when the largest center
    displacement drops below 1e-6 of the bbox diagonal.  An emptied cluster
    is reseeded at the node with the largest weight * squared-distance to
    its current center.  Nothing here is random.
    """
    node_xy = np.asarray(node_xy, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = len(node_xy)
    if not isinstance(k, int) or k < 1:
        raise InvalidK(f"gateway count must be a positive integer, got {k!r}")
    if k > n:
        raise KExceedsN(f"K={k} exceeds node count {n}")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if weights.sum() <= 0:
        raise AllZeroWeights("placement weights sum to zero")

    diag = math.hypot(node_xy[:, 0].max() - node_xy[:, 0].min(),
                      node_xy[:, 1].max() - node_xy[:, 1].min())
    tol = 1e-6 * diag

    centers = node_xy[_farthest_point_seeds(node_xy, weights, k)].copy()
    previous_objective = math.inf
    for _ in range(max_iter):
        sq_dist = ((node_xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assignment = sq_dist.argmin(axis=1)
        nearest_sq = sq_dist[np.arange(n), assignment]

        for cluster in range(k):
            if not np.any(assignment == cluster):
                relocate = int((weights * nearest_sq).argmax())
                centers[cluster] = node_xy[relocate]
                sq_dist[:, cluster] = ((node_xy - centers[cluster]) ** 2).sum(axis=1)
                assignment = sq_dist.argmin(axis=1)
                nearest_sq = sq_dist[np.arange(n), assignment]

        objective = float((weights * nearest_sq).sum())
        if objective > previous_objective * (1 + 1e-9):
            raise RuntimeError("k-means objective increased; numerical inconsistency")
        previous_objective = objective

        new_centers = centers.copy()
        for cluster in range(k):
            members = assignment == cluster
            cluster_weight = weights[members].sum()
            if cluster_weight > 0:
                new_centers[cluster] = (weights[members, None] * node_xy[members]).sum(axis=0) / cluster_weight
            elif members.any():
                new_centers[cluster] = node_xy[members].mean(axis=0)  # zero-weight cluster
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break

    if snap_to_nodes:
        sq_dist = ((centers[:, None, :] - node_xy[None, :, :]) ** 2).sum(axis=2)
        centers = node_xy[sq_dist.argmin(axis=1)].copy()

    positions = [(float(x), float(y)) for x, y in centers]
    return GatewaySet(strategy=DEGREE_CENTRALITY, k=k, positions=positions,
                      provenance={"snap_to_nodes": snap_to_nodes, "objective": previous_objective})


def regular_grid_deploy(k: int, bbox: tuple[float, float, float, float]) -> GatewaySet:
    """Place K gateways at cell centers of a grid spanning the bounding box.

    Cells are filled row-major from the bottom-left.  A bbox degenerate on
    one axis collapses to a line of K cells; degenerate on both axes is an
    error.
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidK(f"gateway count must be a positive integer, got {k!r}")
    x_min, y_min, x_max, y_max = bbox
    width, height = x_max - x_min, y_max - y_min
    if not all(map(math.isfinite, (x_min, y_min, width, height))):
        raise ValueError(f"bounding box and its extent must be finite, got {tuple(bbox)!r}")
    if width == 0 and height == 0:
        raise DegenerateBBox("bounding box has zero extent on both axes")

    rows, cols = _grid_dims(k, width, height)
    positions = [(x_min + (j + 0.5) * width / cols, y_min + (i + 0.5) * height / rows)
                 for i in range(rows) for j in range(cols)]
    return GatewaySet(strategy=REGULAR_GRID, k=k, positions=positions,
                      provenance={"rows": rows, "cols": cols, "bbox": list(bbox)})
