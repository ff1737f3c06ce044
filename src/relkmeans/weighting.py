"""Alternative weights for sampled centers.

Exact cluster sizes are not computable from the tables, so each center's
weight is assembled from geometric rings instead: balls around the center
holding roughly 2^j points are found by radius search, test points are
drawn uniformly from each ball, and the fraction of ring points
closest to the center contributes f * 2^(j-1) to its weight whenever the
fraction clears a threshold.  Individually the weights may be poor, but in
aggregate the weighted centers behave as a coreset.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ballcount import BallSampler, distance_profile, radius_for_count
from .boxes import distinct_centers, sq_dists
from .relational import JoinTree, SamplingGaveUp, Table
from .sampling import make_rng
from .sumprod import JoinEvaluator

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WeightConfig:
    """Accuracy knobs; ``delta`` defaults to ``epsilon / 2``.

    ``max_ring_samples`` caps the per-ring test draws (the uncapped formula
    grows with the square of the center count); capping is logged.
    """

    epsilon: float = 0.1
    delta: float | None = None
    tau: int = 30
    seed: int = 0
    max_ring_samples: int | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.2:
            raise ValueError("epsilon must lie in (0, 0.2]")
        if self.tau < 30:
            raise ValueError("tau must be at least 30")
        if self.delta is not None and not 0.0 < self.delta <= self.epsilon / 2:
            raise ValueError("delta must lie in (0, epsilon / 2]")
        if self.max_ring_samples is not None and self.max_ring_samples < 1:
            raise ValueError("ring cap must be at least 1")

    @property
    def ball_slack(self) -> float:
        return self.delta if self.delta is not None else self.epsilon / 2


@dataclass(frozen=True)
class RingStats:
    """Per (center, ring) telemetry: radius, donut sample count, wins, ratio."""

    center_index: int
    ring_index: int
    sq_radius: float
    samples: int
    wins: int
    ratio: float


@dataclass(frozen=True, eq=False)
class WeightedCoreset:
    """Sampled centers with their accumulated weights; duplicate centers
    share one weight, assigned to the lowest original index."""

    centers: np.ndarray
    weights: np.ndarray
    alias: dict[int, int]


def ring_sample_size(cfg: WeightConfig, n_centers: int, n_rows: int) -> int:
    """ceil(tau / eps^2 * k'^2 * log2(N)^2), subject to the configured cap."""
    lg = math.log2(n_rows)
    size = math.ceil(cfg.tau / cfg.epsilon ** 2 * n_centers ** 2 * lg ** 2)
    if cfg.max_ring_samples is not None and size > cfg.max_ring_samples:
        log.warning("capping ring sample size %d at %d", size, cfg.max_ring_samples)
        return cfg.max_ring_samples
    return size


def compute_weights(tree: JoinTree, tables: list[Table],
                    centers: list[np.ndarray] | np.ndarray,
                    cfg: WeightConfig | None = None,
                    ) -> tuple[WeightedCoreset, list[RingStats]]:
    """Weights for the sampled centers via ring-wise test sampling.

    Deterministic given ``cfg.seed``: the RNG for ring (i, j) is split from
    the master seed by spawn key.
    """
    cfg = cfg or WeightConfig()
    cs = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    k_prime = cs.shape[0]
    if k_prime == 0:
        raise ValueError("no centers to weigh")

    ev = JoinEvaluator(tree, tables)
    n_rows = int(ev.count_scalar())
    if n_rows < 2:
        raise ValueError("weighting needs a join with at least 2 rows")

    lg = math.log2(n_rows)
    n_rings = math.ceil(lg)
    threshold = 1.0 / (2.0 * k_prime ** 2 * lg)
    n_test = ring_sample_size(cfg, k_prime, n_rows)
    bucket_delta = cfg.epsilon / (2 * len(tables))

    alias = distinct_centers(cs)[0]

    weights = np.zeros(k_prime)
    stats: list[RingStats] = []
    for i in range(k_prime):
        if alias[i] != i:
            continue
        center = cs[i]
        sampler = BallSampler(tree, tables, center, bucket_delta)
        profile = distance_profile(tree, tables, center, bucket_delta,
                                   sampler.dists)
        if profile.total < 1:
            raise SamplingGaveUp(f"the distance profile of center {i} is empty")
        # the first donut is [0, r_1], so join rows at the center count
        prev_radius = -math.inf
        for j in range(1, n_rings + 1):
            if 2 ** j > profile.total:
                r_j = math.inf  # outermost ball covers the whole space
            else:
                r_j = radius_for_count(tree, tables, center, 2 ** j,
                                       cfg.ball_slack, profile=profile)
            rng = make_rng(cfg.seed, (i, j))
            if r_j <= prev_radius:
                stats.append(RingStats(i, j, r_j, 0, 0, 0.0))
                continue
            if r_j == 0.0:
                # every draw from a ball of radius 0 is the center itself,
                # which lies in the first donut and is its own nearest
                # center (duplicates alias to the lowest index)
                s_ij = t_ij = n_test
            else:
                draws = sampler.sample_batch(r_j, n_test, rng)
                d2_own = sq_dists(draws, center[None])[:, 0]
                in_donut = (d2_own > prev_radius) & (d2_own <= r_j)
                s_ij = int(in_donut.sum())
                owner = np.argmin(sq_dists(draws[in_donut], cs), axis=1)
                t_ij = int((owner == i).sum())
            f_ij = t_ij / s_ij if s_ij else 0.0
            if f_ij >= threshold:
                weights[i] += f_ij * 2.0 ** (j - 1)
            stats.append(RingStats(i, j, r_j, s_ij, t_ij, f_ij))
            prev_radius = r_j

    return WeightedCoreset(cs, weights, alias), stats
