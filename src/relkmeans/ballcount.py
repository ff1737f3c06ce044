"""Approximate counting and uniform sampling inside hyperspheres.

Exact in-ball counting on a join is intractable, so squared distances to a
center are pushed through the join tree as sparse histograms, in one upward
pass per center (:meth:`JoinEvaluator.distance_pass`): a row's key is its
own squared deviation plus one key from each child's message, and a message
is the union of its rows' histograms per separator key.  Keeping every
exact distance would make intermediate results as large as the join, so
each table's one merge into its message also rounds keys up, by integer
codes (:class:`Bucketizer`), onto a (1+delta/m) geometric grid, the one
policy (:func:`bucket_delta`) for a ball slack delta.  The rounding
compounds to at most (1+delta/m)^m <= e^delta on the radius axis, so a
radius search for a target holds at least (1-delta) * target join points,
at most (1+delta/m)^m times the smallest radius that does; ties, or points
dense within that factor, can push its count past (1+delta) * target.  The
root's message is the ball curve (:attr:`DistancePass.curve`): the profile
(:meth:`DistanceProfile.of`), each radius search and each draw's root pick
read that one curve.  The pass keeps the provenance of every merge, so
in-ball draws walk it top-down instead of running more passes, for every
ball around the center at once, and rejection against exact membership
makes them exactly uniform over each ball.  Counts are float64, like every
count of the evaluator.  All radii in this module are squared distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(eq=False)
class Bucketizer:
    """Rounds squared distances up to a (1+delta) geometric grid, by
    integer code.

    Code 0 is a dedicated bucket for zero.  A positive value v has code
    1 + max(0, ceil(log_{1+delta}(v / v_min))), and code c > 0 stands for
    the grid value v_min * (1+delta)^(c-1), so counts at a grid boundary
    are never inflated past the boundary.  Codes are monotone in the value,
    so merging by code is merging by rounded value.  One bucketizer serves
    one center: ``grid[c]`` is code c's value, computed once, by one Python
    float power, when the code is first seen.  ``widen()`` thresholds land
    within ulps of grid values, so a grid value computed any other way
    (``np.power`` differs from it in some exponents) could flip a
    key <= threshold test.
    """

    delta: float
    v_min: float
    grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.grid = np.zeros(1)  # 0.0 marks a code not seen yet

    def codes(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codes of ``values`` and the grid, which holds the value of
        every code returned."""
        # epsilon guard keeps exact grid points in their own bucket
        with np.errstate(divide="ignore"):  # log(0); zero keeps code 0
            steps = np.ceil(np.log(values / self.v_min)
                            / math.log1p(self.delta) - 1e-9)
        codes = np.where(values > 0.0, np.maximum(steps, 0.0) + 1.0,
                         0.0).astype(np.int64)
        if codes.size:
            top = int(codes.max())
            if top >= self.grid.size:  # a new array: earlier grids stay valid
                self.grid = np.append(self.grid, np.zeros(top + 1 - self.grid.size))
            seen = np.zeros(self.grid.size, dtype=bool)
            seen[codes] = True
            seen[0] = False
            for c in np.flatnonzero(seen & (self.grid == 0.0)).tolist():
                self.grid[c] = self.v_min * (1.0 + self.delta) ** (c - 1)
        return codes, self.grid

    def widen(self, sq_radius: float | np.ndarray,
              m_tables: int) -> float | np.ndarray:
        """Radius covering everything whose rounded key might exceed the
        true key after m per-table roundings."""
        return sq_radius * (1.0 + self.delta) ** m_tables


def smallest_positive_deviation(tables: list[Table], center: np.ndarray) -> float:
    """Grid origin for bucketing: the smallest positive squared
    single-coordinate deviation from the center anywhere in the data."""
    dev = np.concatenate([(t.rows[:, pos] - center[f.index]) ** 2
                          for t in tables for pos, f in enumerate(t.features)])
    best = float(dev[dev > 0].min(initial=np.inf))
    return best if np.isfinite(best) else 1.0


def bucket_delta(slack: float, m_tables: int) -> float | None:
    """The one bucketing policy: per-table delta slack / m; None (exact) at 0."""
    if slack != 0.0 and not 0.0 < slack <= 0.5:
        raise ValueError(f"ball slack delta={slack} must be 0 or in (0, 1/2]")
    return slack / m_tables if slack else None


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

    sq_radii: np.ndarray
    cum_counts: np.ndarray

    @classmethod
    def of(cls, dists: DistancePass) -> "DistanceProfile":
        """A pass's ball curve: the root's message, merged by key."""
        return cls(*dists.curve)

    @property
    def total(self) -> int:
        return int(self.cum_counts[-1]) if self.cum_counts.size else 0

    def count_at(self, sq_radius: float) -> int:
        idx = np.searchsorted(self.sq_radii, sq_radius, side="right") - 1
        return int(self.cum_counts[idx]) if idx >= 0 else 0

    def radius_for(self, target: float | np.ndarray,
                   delta: float = 0.0) -> float | np.ndarray:
        """Smallest radius whose count reaches (1-delta) * target, and at
        least one point; element-wise, by one search, for an array of
        targets."""
        target = np.asarray(target, dtype=np.float64)
        if np.any(np.maximum(target, 1.0) > self.total):
            raise TargetExceedsN(
                f"target {np.max(target)} exceeds join size {self.total}")
        # a float's ceiling is a whole number, held exactly, like the counts
        need = np.maximum(1.0, np.ceil((1.0 - delta) * target))
        return self.sq_radii[np.searchsorted(self.cum_counts, need, side="left")]


def distance_profile(tree: JoinTree, tables: list[Table], center: np.ndarray,
                     delta: float | None = None) -> DistanceProfile:
    """Profile of squared distances from all join points to the center, off
    one distance pass.  ``delta`` is the per-table bucketing error; None or
    0 keeps exact distances (fine for small joins, linear-size
    intermediates otherwise)."""
    return BallSampler(JoinEvaluator(tree, tables), center, delta).profile


def radius_for_count(tree: JoinTree, tables: list[Table], center: np.ndarray,
                     target: float | np.ndarray, delta: float,
                     ) -> float | np.ndarray:
    """:meth:`DistanceProfile.radius_for` at ball slack ``delta``, on a
    profile bucketed by :func:`bucket_delta`.  The radius holds at least
    (1-delta) * target join points and is at most (1+delta/m)^m times the
    smallest radius that does.  Its count stays under (1+delta) * target
    unless ties, or points dense within that factor, pile up at it."""
    return distance_profile(tree, tables, center, bucket_delta(
        delta, len(tables))).radius_for(target, delta)


class BallSampler:
    """Uniform sampling of join points inside balls around one center.

    One distance pass (:meth:`JoinEvaluator.distance_pass`) serves every
    radius and every draw: ``profile`` is its root curve, and each draw is
    a join row whose root key lies under a widened threshold, drawn
    top-down with probability proportional to its count.  A root key is
    at most (1+delta)^m times the true squared distance (per-table
    ``delta``), so the threshold R * (1+delta)^m keeps every ball member
    drawable.  Draws outside the requested ball are rejected against
    exact membership, which leaves the accepted ones exactly uniform.

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
        self.dists = ev.distance_pass(self.center, self.bucketizer)
        self.profile = DistanceProfile.of(self.dists)
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
        radii = self.profile.sq_radii
        if radii.size == 0 or np.any(thresholds < radii[0]):
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
    """Join point(s) drawn uniformly from the closed ball, bucketed by
    :func:`bucket_delta`: candidates rejected outside the ball reach out
    to (1+delta/m)^m <= e^delta times the radius."""
    sampler = BallSampler(JoinEvaluator(tree, tables), center,
                          bucket_delta(delta, len(tables)))
    pts = sampler.sample_batch(np.array([sq_radius]), size or 1, rng)[0]
    return pts if size is not None else pts[0]
