"""Alternative weights for sampled centers.

Exact cluster sizes are not computable from the tables, so each center's
weight is assembled from geometric rings instead: balls around the center
holding roughly 2^j points are found by one search of the center's distance
profile, test points are drawn uniformly from every ball at once, and the
fraction of ring points
closest to the center contributes f * 2^(j-1) to its weight whenever the
fraction clears a threshold.  Individually the weights may be poor, but in
aggregate the weighted centers behave as a coreset.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ballcount import BallSampler, bucket_delta
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
    delta: float | None = None  # ball slack; also sets the buckets (bucket_delta)
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


@dataclass(frozen=True)
class WeighTelemetry:
    """Deterministic counters of one :func:`compute_weights` call.

    ``pass_entries`` counts the entries entering a distance-pass merge,
    summed over all passes; ``rings_skipped`` the rings no wider than the
    ring before, which hold no new points; ``rings_above_threshold`` the
    rings whose fraction added weight; ``ring_draws`` the accepted in-ball draws and
    ``ring_candidates`` the top-down draws, rejected ones included;
    ``ring_cap_bound`` whether the cap cut the per-ring draws.
    """

    distance_passes: int
    pass_entries: int
    rings: int
    rings_skipped: int
    rings_above_threshold: int
    ring_draws: int
    ring_candidates: int
    ring_cap_bound: bool


@dataclass(frozen=True, eq=False)
class WeightedCoreset:
    """Sampled centers with their accumulated weights; duplicate centers
    share one weight, assigned to the lowest original index."""

    centers: np.ndarray
    weights: np.ndarray
    alias: dict[int, int]
    telemetry: WeighTelemetry


def _uncapped_ring_size(cfg: WeightConfig, n_centers: int, n_rows: int) -> int:
    lg = math.log2(n_rows)
    return math.ceil(cfg.tau / cfg.epsilon ** 2 * n_centers ** 2 * lg ** 2)


def ring_sample_size(cfg: WeightConfig, n_centers: int, n_rows: int) -> int:
    """ceil(tau / eps^2 * k'^2 * log2(N)^2), subject to the configured cap."""
    size = _uncapped_ring_size(cfg, n_centers, n_rows)
    if cfg.max_ring_samples is not None and size > cfg.max_ring_samples:
        log.warning("capping ring sample size %d at %d", size, cfg.max_ring_samples)
        return cfg.max_ring_samples
    return size


def compute_weights(tree: JoinTree, tables: list[Table],
                    centers: list[np.ndarray] | np.ndarray,
                    cfg: WeightConfig | None = None, *,
                    ev: JoinEvaluator | None = None,
                    ) -> tuple[WeightedCoreset, list[RingStats]]:
    """Weights for the sampled centers via ring-wise test sampling.

    Each distinct center costs one distance pass, on one evaluator (``ev``,
    else a new one) shared by all centers, which also counts the join: its
    profile (``BallSampler.profile``), every ring's radius (one search of
    the profile) and every ring's draws (one ``sample_batch`` call) read
    the pass's one ball curve, bucketed as in ``radius_for_count``, whose
    radius bound every ring obeys.  Only one pass is alive at a time.
    Deterministic given ``cfg.seed``: center i's draws come from one stream
    split from the master seed by spawn key (i, 0), which no other stage uses.
    """
    cfg = cfg or WeightConfig()
    cs = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    k_prime = cs.shape[0]
    if k_prime == 0:
        raise ValueError("no centers to weigh")

    ev = ev or JoinEvaluator(tree, tables)
    n_rows = ev.count_scalar()
    if n_rows < 2:
        raise ValueError("weighting needs a join with at least 2 rows")

    lg = math.log2(n_rows)
    n_rings = math.ceil(lg)
    threshold = 1.0 / (2.0 * k_prime ** 2 * lg)
    n_test = ring_sample_size(cfg, k_prime, n_rows)
    targets = 2.0 ** np.arange(1, n_rings + 1)

    alias = distinct_centers(cs)[0]

    weights = np.zeros(k_prime)
    stats: list[RingStats] = []
    passes = entries = skipped = above = ring_draws = candidates = 0
    for i in range(k_prime):
        if alias[i] != i:
            continue
        center = cs[i]
        sampler = BallSampler(ev, center, bucket_delta(cfg.ball_slack, len(tables)))
        passes += 1
        entries += sampler.dists.merge_entries
        profile = sampler.profile
        if profile.total < 1:
            raise SamplingGaveUp(f"the distance profile of center {i} is empty")
        # a ring whose 2^j points exceed the join covers the whole space
        radii = np.full(n_rings, math.inf)
        inner = targets <= profile.cum_counts[-1]
        radii[inner] = profile.radius_for(targets[inner], cfg.ball_slack)
        # radii never shrink, so each donut starts at the radius before it;
        # the first donut is [0, r_1], so join rows at the center count, and
        # a ring no wider than the one before holds no new points
        lower = np.append(-math.inf, radii[:-1])
        live = radii > lower
        # every draw from a ball of radius 0 is the center itself, which
        # lies in the first donut and is its own nearest center (duplicates
        # alias to the lowest index), so such a ring is not drawn
        drawn = live & (radii > 0.0)
        batch = iter(sampler.sample_batch(radii[drawn], n_test,
                                          make_rng(cfg.seed, (i, 0))))
        candidates += sampler.candidates
        del sampler  # the next center's pass is built after this one is freed
        gaps = sq_dists(cs, center[None])[:, 0]  # to every center
        ring_draws += n_test * int(drawn.sum())
        for j in range(1, n_rings + 1):
            r_j, prev_radius = float(radii[j - 1]), float(lower[j - 1])
            if not live[j - 1]:
                skipped += 1
                stats.append(RingStats(i, j, r_j, 0, 0, 0.0))
                continue
            if r_j == 0.0:
                s_ij = t_ij = n_test
            else:
                draws = next(batch)
                d2_own = sq_dists(draws, center[None])[:, 0]
                in_donut = (d2_own > prev_radius) & (d2_own <= r_j)
                s_ij = int(in_donut.sum())
                # a center more than twice the ring's radius away is farther
                # than the radius from every point of the ball, so it never
                # beats this one (squared: 4 r_j); the margin keeps the cut
                # far above float rounding
                near = np.flatnonzero(gaps <= 4.0 * r_j * (1.0 + 1e-6))
                owner = near[np.argmin(sq_dists(draws[in_donut], cs[near]), axis=1)]
                t_ij = int((owner == i).sum())
            f_ij = t_ij / s_ij if s_ij else 0.0
            if f_ij >= threshold:
                weights[i] += f_ij * 2.0 ** (j - 1)
                above += 1
            stats.append(RingStats(i, j, r_j, s_ij, t_ij, f_ij))

    telemetry = WeighTelemetry(
        distance_passes=passes, pass_entries=entries, rings=len(stats),
        rings_skipped=skipped, rings_above_threshold=above, ring_draws=ring_draws,
        ring_candidates=candidates,
        ring_cap_bound=n_test < _uncapped_ring_size(cfg, k_prime, n_rows))
    return WeightedCoreset(cs, weights, alias, telemetry), stats
