"""Approximate counting and uniform sampling inside hyperspheres.

Exact in-ball counting on a join is intractable, so squared distances to a
center are pushed through the join tree as sparse histograms, in one
upward pass per center (:meth:`JoinEvaluator.distance_pass`): a row's key
is its own squared deviation plus one key from each child's message, and a
message is the union of its rows' histograms per separator key.  Keeping
every exact distance would make intermediate results as large as the join,
so keys are rounded up onto a (1+delta) geometric grid once per table; the
rounding compounds to at most (1+delta)^m on the radius axis.  The pass
keeps the provenance of every merge, so in-ball draws walk it top-down
instead of running more passes, for every ball around the center at once,
and rejection against exact membership makes them exactly uniform over
each ball.  Counts are float64, like every
count of the evaluator.  All radii in this module are squared distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import sq_dists
from .relational import JoinTree, SamplingGaveUp, Table
from .sumprod import DistancePass, JoinEvaluator


# rejection rounds one BallSampler.sample_batch call may take
MAX_DRAW_ROUNDS = 200


class EmptyBall(SamplingGaveUp):
    """The requested ball contains no join points."""


class TargetExceedsN(SamplingGaveUp):
    """A count target larger than the join itself has no radius."""


@dataclass(frozen=True)
class Bucketizer:
    """Rounds squared distances up to a (1+delta) geometric grid.

    Zero stays in a dedicated bucket; positive values v map to
    v_min * (1+delta)^ceil(log_{1+delta}(v / v_min)), so counts at a grid
    boundary are never inflated past the boundary.
    """

    delta: float
    v_min: float

    def round_up(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(values.shape)
        pos = values > 0.0
        # epsilon guard keeps exact grid points in their own bucket
        steps = np.ceil(np.log(values[pos] / self.v_min)
                        / math.log1p(self.delta) - 1e-9)
        steps, inv = np.unique(np.maximum(steps, 0.0), return_inverse=True)
        # one float pow per grid index: widen() thresholds land within ulps
        # of grid values, so a grid value computed any other way could flip
        # a key <= threshold test
        grid = [self.v_min * (1.0 + self.delta) ** int(i) for i in steps]
        out[pos] = np.array(grid)[inv]
        return out

    def widen(self, sq_radius: float | np.ndarray,
              m_tables: int) -> float | np.ndarray:
        """Radius covering everything whose rounded key might exceed the
        true key after m per-table roundings."""
        return sq_radius * (1.0 + self.delta) ** m_tables


def smallest_positive_deviation(tables: list[Table], center: np.ndarray) -> float:
    """Grid origin for bucketing: the smallest positive squared
    single-coordinate deviation from the center anywhere in the data."""
    best = np.inf
    for t in tables:
        for pos, f in enumerate(t.features):
            dev = (t.rows[:, pos] - center[f.index]) ** 2
            pos_dev = dev[dev > 0]
            if pos_dev.size:
                best = min(best, float(pos_dev.min()))
    return best if np.isfinite(best) else 1.0


def make_bucketizer(tables: list[Table], center: np.ndarray,
                    delta: float | None) -> Bucketizer | None:
    if delta is None or delta == 0.0:
        return None
    if not 0.0 < delta <= 0.5:
        raise ValueError("bucketing delta must lie in (0, 1/2]")
    return Bucketizer(delta, smallest_positive_deviation(tables, center))


@dataclass(frozen=True, eq=False)
class DistanceProfile:
    """Cumulative count curve of (rounded) squared distances to a center.

    ``sq_radii`` is ascending; ``cum_counts[i]`` join points lie at rounded
    squared distance <= sq_radii[i].
    """

    center: np.ndarray
    delta: float  # per-table bucketing delta (0 for exact mode)
    sq_radii: np.ndarray
    cum_counts: np.ndarray
    n_tables: int

    @property
    def total(self) -> int:
        return int(self.cum_counts[-1]) if self.cum_counts.size else 0

    def count_at(self, sq_radius: float) -> int:
        idx = np.searchsorted(self.sq_radii, sq_radius, side="right") - 1
        return int(self.cum_counts[idx]) if idx >= 0 else 0

    def smallest_radius_for(self, count: float | np.ndarray) -> float | np.ndarray:
        """Smallest radius holding at least ``count`` points; element-wise,
        by one search, for an array of counts."""
        idx = np.searchsorted(self.cum_counts, count, side="left")
        if np.any(idx >= self.sq_radii.size):
            raise TargetExceedsN(
                f"needed {np.max(count)} points, join holds {self.total}")
        return self.sq_radii[idx]


def distance_profile(tree: JoinTree, tables: list[Table], center: np.ndarray,
                     delta: float | None = None,
                     dists: DistancePass | None = None) -> DistanceProfile:
    """Profile of squared distances from all join points to the center: the
    root histogram of one distance pass, summed over rows.

    ``delta`` is the per-table bucketing error; None or 0 keeps exact
    distances (fine for small joins, linear-size intermediates otherwise).
    ``dists``, when given, is that pass (a :class:`BallSampler`'s), and no
    new pass is run.
    """
    center = np.asarray(center, dtype=np.float64)
    if dists is None:
        dists = BallSampler(JoinEvaluator(tree, tables), center, delta).dists
    _, keys, counts = dists.root
    keys, inv = np.unique(keys, return_inverse=True)
    counts = np.bincount(inv, weights=counts, minlength=keys.size)
    return DistanceProfile(center, delta or 0.0, keys, np.cumsum(counts),
                           len(tables))


def radius_for_count(tree: JoinTree, tables: list[Table], center: np.ndarray,
                     target: float | np.ndarray, delta: float,
                     profile: DistanceProfile | None = None,
                     ) -> float | np.ndarray:
    """Smallest profile radius whose count reaches (1-delta) * target;
    element-wise, by one search of the profile, for an array of targets.

    The profile, unless supplied, is built with per-table bucketing
    delta / (8m): the count granularity near the chosen radius has to sit
    well inside the [(1-delta), (1+delta)] * target window, and join
    distances pile up (sums of few distinct per-table values), so the
    buckets are kept much finer than the window itself.
    """
    if profile is None:
        bucket_delta = delta / (8 * len(tables)) if delta > 0 else None
        profile = distance_profile(tree, tables, center, bucket_delta)
    target = np.asarray(target, dtype=np.float64)
    if np.any(target > profile.total):
        raise TargetExceedsN(
            f"target {np.max(target)} exceeds join size {profile.total}")
    # a float's ceiling is a whole number, held exactly, like the counts
    need = np.maximum(1.0, np.ceil((1.0 - delta) * target))
    return profile.smallest_radius_for(need)


class BallSampler:
    """Uniform sampling of join points inside balls around one center.

    One distance pass (:meth:`JoinEvaluator.distance_pass`) serves every
    radius and every draw.  Each draw is a join row whose root key lies
    under a widened threshold, drawn top-down with probability proportional
    to its count.  Each table rounds its keys up once, by at most (1+delta),
    so a root key is at most (1+delta)^m times the true squared distance
    and the threshold R * (1+delta)^m keeps every ball member drawable.
    Points outside the requested ball are rejected against exact membership
    afterwards, which leaves the draws exactly uniform over the ball.

    One :meth:`sample_batch` call serves any number of balls: each
    rejection round is one top-down draw (:meth:`DistancePass.draw`) for
    every ball still short of draws, each draw under its own ball's
    threshold.  ``candidates`` counts the top-down draws made, rejected
    ones included.
    """

    def __init__(self, ev: JoinEvaluator, center: np.ndarray,
                 delta: float | None = None):
        self.ev = ev
        self.center = np.asarray(center, dtype=np.float64)
        self.m = len(ev.tables)
        self.bucketizer = make_bucketizer(ev.tables, self.center, delta)
        self.dists = ev.distance_pass(
            self.center, self.bucketizer.round_up if self.bucketizer else None)
        self.candidates = 0

    def _threshold(self, sq_radii: np.ndarray) -> np.ndarray:
        """Root-key bounds admitting every join point within ``sq_radii``.

        The relative 1e-9 absorbs float rounding between the pass's key
        sums and the exact membership test; what it admits is rejected.
        """
        if self.bucketizer is not None:
            sq_radii = self.bucketizer.widen(sq_radii, self.m)
        return sq_radii * (1.0 + 1e-9)

    def sample_batch(self, sq_radii: np.ndarray, size: int,
                     rng: np.random.Generator) -> np.ndarray:
        """``size`` independent uniform draws from each closed ball of
        squared radius ``sq_radii[b]``: a (balls, size, features) array."""
        sq_radii = np.atleast_1d(np.asarray(sq_radii, dtype=np.float64))
        thresholds = self._threshold(sq_radii)
        keys = self.dists.root[1]
        if keys.size == 0 or np.any(thresholds < keys.min()):
            raise EmptyBall("no join points within squared radius "
                            f"{sq_radii[np.argmin(thresholds)]}")
        n_balls = sq_radii.size
        out = np.empty((n_balls, size, self.ev.n_features))
        got = np.zeros(n_balls, dtype=np.int64)
        rounds = 0
        while (got < size).any():
            rounds += 1
            if rounds > MAX_DRAW_ROUNDS:
                raise SamplingGaveUp("ball sampling keeps rejecting; the shell "
                                     "outside the ball dominates its interior")
            need = size - got
            ball = np.repeat(np.arange(n_balls),
                             np.where(need > 0, need + np.maximum(8, need // 4), 0))
            pts = self.ev.gather(self.dists.draw(thresholds[ball], rng))
            self.candidates += ball.size
            member = sq_dists(pts, self.center[None])[:, 0] <= sq_radii[ball]
            ball, pts = ball[member], pts[member]
            # each ball keeps its first accepted draws, up to what it needs
            rank = np.arange(ball.size) - np.searchsorted(ball, ball)
            keep = rank < need[ball]
            ball, rank = ball[keep], rank[keep]
            out[ball, got[ball] + rank] = pts[keep]
            got += np.bincount(ball, minlength=n_balls)
        return out


def sample_in_ball(tree: JoinTree, tables: list[Table], center: np.ndarray,
                   sq_radius: float, delta: float, rng: np.random.Generator,
                   size: int | None = None) -> np.ndarray:
    """Join point(s) drawn uniformly from the closed ball.  Per-table
    bucketing is delta / (2m), so the shell of candidates rejected outside
    the ball reaches out to about (1 + delta/2) times the radius."""
    bucket_delta = delta / (2 * len(tables)) if delta else None
    sampler = BallSampler(JoinEvaluator(tree, tables), center, bucket_delta)
    pts = sampler.sample_batch(np.array([sq_radius]), size or 1, rng)[0]
    return pts if size is not None else pts[0]
