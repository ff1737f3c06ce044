"""Weighted k-means on the coreset and clustering cost evaluation."""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .boxes import build_boxes, sq_dists
from .sampling import StageSampler, make_rng
from .sumprod import JoinEvaluator


class InsufficientDistinctPoints(Exception):
    """Fewer distinct points than requested centers."""


@dataclass(frozen=True, eq=False)
class WeightedPointSet:
    """Points with strictly positive weights (zero-weight entries dropped)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        w = np.asarray(self.weights, dtype=np.float64)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights differ in length")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        keep = w > 0
        object.__setattr__(self, "points", pts[keep])
        object.__setattr__(self, "weights", w[keep])

    @property
    def size(self) -> int:
        return self.points.shape[0]


def weighted_cost(ps: WeightedPointSet, centers: np.ndarray) -> float:
    return float(ps.weights @ sq_dists(ps.points, centers).min(axis=1))


def weighted_kmeanspp_seed(ps: WeightedPointSet, k: int,
                           rng: np.random.Generator) -> np.ndarray:
    """k initial centers by squared-distance sampling with point masses."""
    distinct = np.unique(ps.points, axis=0).shape[0]
    if k > distinct:
        raise InsufficientDistinctPoints(
            f"need {k} centers from {distinct} distinct points")
    first = rng.choice(ps.size, p=ps.weights / ps.weights.sum())
    centers = [ps.points[first]]
    min_d2 = sq_dists(ps.points, centers[0][None])[:, 0]
    for _ in range(1, k):
        mass = ps.weights * min_d2
        centers.append(ps.points[rng.choice(ps.size, p=mass / mass.sum())])
        d2 = sq_dists(ps.points, centers[-1][None])[:, 0]
        min_d2 = np.minimum(min_d2, d2)
    return np.array(centers)


def weighted_lloyd(ps: WeightedPointSet, centers: np.ndarray,
                   max_iters: int = 100, tol: float = 1e-6) -> np.ndarray:
    """Weighted Lloyd iterations; the cost never increases, empty clusters
    are reseeded from the currently most expensive point."""
    centers = np.array(centers, dtype=np.float64, copy=True)
    k = centers.shape[0]
    prev_cost = np.inf
    for _ in range(max_iters):
        d2 = sq_dists(ps.points, centers)
        assign = np.argmin(d2, axis=1)
        point_cost = ps.weights * d2[np.arange(ps.size), assign]
        cost = float(point_cost.sum())
        for c in range(k):
            sel = assign == c
            if not np.any(sel):
                worst = int(np.argmax(point_cost))
                centers[c] = ps.points[worst]
                point_cost[worst] = 0.0
            else:
                w = ps.weights[sel]
                centers[c] = (w @ ps.points[sel]) / w.sum()
        if prev_cost - cost <= tol * max(cost, 1e-300):
            break
        prev_cost = cost
    return centers


def solve_weighted_kmeans(ps: WeightedPointSet, k: int, seed: int = 0,
                          restarts: int = 3, max_iters: int = 100,
                          tol: float = 1e-6) -> tuple[np.ndarray, float]:
    """Best of several seeded k-means++ plus Lloyd runs (lowest cost wins,
    ties to the lowest restart index)."""
    best: tuple[float, int, np.ndarray] | None = None
    for r in range(restarts):
        rng = make_rng(seed, (r,))
        centers = weighted_kmeanspp_seed(ps, k, rng)
        centers = weighted_lloyd(ps, centers, max_iters, tol)
        cost = weighted_cost(ps, centers)
        if best is None or (cost, r) < (best[0], best[1]):
            best = (cost, r, centers)
    return best[2], best[0]


def relational_cost(ev: JoinEvaluator, centers: np.ndarray) -> float:
    """Surrogate clustering cost of the centers over the whole join: each
    join row's squared distance to the representative of its smallest
    laminar box, an upper bound on the exact cost.  It is the total mass of
    the centers' k-means++ surrogate sampler, so the join is never
    materialized (``oracle.exact_cost`` gives the exact cost)."""
    forest = build_boxes(np.atleast_2d(np.asarray(centers, dtype=np.float64)))
    return StageSampler.surrogate(ev, forest).total_mass()
