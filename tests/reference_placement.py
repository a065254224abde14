"""Reference oracle: the dense greedy max-coverage placement.

This is ``greedy_coverage_deploy`` as it stood before the lazy greedy over
radius neighbour lists in ``hydrolora.placement`` replaced it, less the
``seed`` argument that only labelled its provenance: an N x N
squared-distance matrix, an N x N ``within`` mask, and one matrix-vector
product per pick.  Its gains are BLAS sums, whose rounding depends on the
kernel, so ``test_placement_oracle.py`` compares against it only on weights
whose sums are exact in any order.
"""

from __future__ import annotations

import numpy as np

from hydrolora.errors import AllZeroWeights, InvalidK, KExceedsN
from hydrolora.placement import GREEDY_COVERAGE, GatewaySet


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
