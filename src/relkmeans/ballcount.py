"""Approximate counting and near-uniform sampling inside hyperspheres.

Exact in-ball counting on a join is intractable, so distances are pushed
through a SumProd query whose carrier is a multiset of squared distances:
q_f contributes the squared deviation on one coordinate, multiset
convolution adds deviations across features, and multiset union aggregates
over join rows.  Keeping every exact distance would make intermediate
results as large as the join, so keys are rounded up onto a (1+delta)
geometric grid once per table; the rounding compounds to at most
(1+delta)^m on the radius axis.  All radii in this module are squared
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .relational import JoinTree, Table
from .sumprod import SemiringSpec, eval_sumprod, eval_sumprod_grouped, JoinEvaluator

Multiset = dict  # squared distance -> count


class EmptyBall(Exception):
    """The requested ball contains no join points."""


class TargetExceedsN(Exception):
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

    def round_up(self, value: float) -> float:
        if value <= 0.0:
            return 0.0
        ratio = value / self.v_min
        # epsilon guard keeps exact grid points in their own bucket
        idx = math.ceil(math.log(ratio) / math.log1p(self.delta) - 1e-9)
        return self.v_min * (1.0 + self.delta) ** max(idx, 0)

    def widen(self, sq_radius: float, m_tables: int) -> float:
        """Radius covering everything whose rounded key might exceed the
        true key after m per-table roundings."""
        return sq_radius * (1.0 + self.delta) ** m_tables


def multiset_plus(a: Multiset, b: Multiset) -> Multiset:
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return out


def multiset_times(a: Multiset, b: Multiset) -> Multiset:
    out: Multiset = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


def _compactor(bucketizer: Bucketizer | None):
    if bucketizer is None:
        return None

    def compact(ms: Multiset) -> Multiset:
        out: Multiset = {}
        for k, c in ms.items():
            key = bucketizer.round_up(k)
            out[key] = out.get(key, 0) + c
        return out

    return compact


def multiset_semiring(features: list[str], center: np.ndarray | dict,
                      feature_index: dict[str, int] | None = None,
                      bucketizer: Bucketizer | None = None) -> SemiringSpec:
    """Distance-multiset semiring: q_f(v) = {(v - c_f)^2: 1}, plus is
    multiset union, times is sumset convolution.

    The embedding stays exact (per-row products are singletons, so nothing
    grows until rows are merged); rounding happens only in the per-node
    compaction hook, so keys inflate by at most (1+delta) per table.
    """
    def coord(name: str) -> float:
        if isinstance(center, dict):
            return float(center[name])
        return float(center[feature_index[name]])

    def q(name: str):
        cf = coord(name)
        return lambda v: {(v - cf) ** 2: 1}

    return SemiringSpec(
        zero={}, one={0.0: 1},
        plus=multiset_plus,
        times=multiset_times,
        feature_map={f: q(f) for f in features},
        compact=_compactor(bucketizer),
    )


def _feature_index(tables: list[Table]) -> dict[str, int]:
    return {f.name: f.index for t in tables for f in t.features}


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
    squared distance <= sq_radii[i].  ``entry(j)`` gives the count-level view:
    the smallest radius holding at least ceil((1+delta)^j) points.
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

    def smallest_radius_for(self, count: float) -> float:
        idx = int(np.searchsorted(self.cum_counts, count, side="left"))
        if idx >= self.sq_radii.size:
            raise TargetExceedsN(
                f"needed {count} points, join holds {self.total}")
        return float(self.sq_radii[idx])

    def entry(self, j: int) -> float:
        level = math.ceil((1.0 + self.delta) ** j) if self.delta > 0 else j + 1
        return self.smallest_radius_for(level)

    def entries(self) -> np.ndarray:
        out, j = [], 0
        while True:
            try:
                out.append(self.entry(j))
            except TargetExceedsN:
                break
            j += 1
        return np.array(out)


def distance_profile(tree: JoinTree, tables: list[Table], center: np.ndarray,
                     delta: float | None = None,
                     masks: list[np.ndarray] | None = None) -> DistanceProfile:
    """Profile of squared distances from all join points to the center.

    ``delta`` is the per-table bucketing error; None or 0 keeps exact
    distances (fine for small joins, linear-size intermediates otherwise).
    """
    center = np.asarray(center, dtype=np.float64)
    bucketizer = make_bucketizer(tables, center, delta)
    spec = multiset_semiring(
        sorted({f.name for t in tables for f in t.features}),
        center, _feature_index(tables), bucketizer)
    total = eval_sumprod(tree, tables, spec, masks=masks)
    if not total:
        return DistanceProfile(center, delta or 0.0, np.array([]), np.array([]),
                               len(tables))
    keys = np.array(sorted(total))
    counts = np.array([total[k] for k in keys], dtype=np.int64)
    return DistanceProfile(center, delta or 0.0, keys, np.cumsum(counts),
                           len(tables))


def count_in_ball(profile: DistanceProfile, sq_radius: float) -> int:
    """Approximate |join ∩ ball|: exact in exact mode, otherwise the count
    at a radius within (1+delta)^m of the request (rounding is upward, so
    the count is never inflated past the true count at sq_radius)."""
    return profile.count_at(sq_radius)


def radius_for_count(tree: JoinTree, tables: list[Table], center: np.ndarray,
                     target: float, delta: float,
                     profile: DistanceProfile | None = None) -> float:
    """Smallest profile radius whose count reaches (1-delta) * target.

    The profile, unless supplied, is built with per-table bucketing
    delta / (8m): the count granularity near the chosen radius has to sit
    well inside the [(1-delta), (1+delta)] * target window, and join
    distances pile up (sums of few distinct per-table values), so the
    buckets are kept much finer than the window itself.
    """
    if profile is None:
        bucket_delta = delta / (8 * len(tables)) if delta > 0 else None
        profile = distance_profile(tree, tables, center, bucket_delta)
    if target > profile.total:
        raise TargetExceedsN(
            f"target {target} exceeds join size {profile.total}")
    need = max(1, math.ceil((1.0 - delta) * target))
    return profile.smallest_radius_for(need)


class BallSampler:
    """Near-uniform sampling of join points inside balls around one center.

    Grouped distance multisets are cached per fixed-row prefix, so one
    sampler amortizes across many radii and many draws.  Stage weights use
    a widened radius so every true ball member stays sampleable despite
    upward rounding; points outside the requested ball are rejected against
    exact membership afterwards.
    """

    def __init__(self, tree: JoinTree, tables: list[Table], center: np.ndarray,
                 delta: float | None = None):
        self.tree = tree
        self.tables = tables
        self.center = np.asarray(center, dtype=np.float64)
        self.m = len(tables)
        self.delta = delta
        self.bucketizer = make_bucketizer(tables, self.center, delta)
        self.ev = JoinEvaluator(tree, tables)
        names = sorted({f.name for t in tables for f in t.features})
        self.spec = multiset_semiring(names, self.center,
                                      _feature_index(tables), self.bucketizer)
        self._stage_cache: dict[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]] = {}

    def _effective(self, sq_radius: float, stage: int) -> float:
        """Widened membership threshold for one sampling stage.

        Rounded keys depend on the message-pass root, so a point admitted at
        stage l (key <= threshold, hence true distance <= threshold) must
        stay admitted under stage l+1's rounding; each stage therefore widens
        by another (1+delta)^m factor.  Outsiders picked up this way are
        rejected against exact membership afterwards.
        """
        if self.bucketizer is None:
            return sq_radius
        return self.bucketizer.widen(sq_radius, self.m * (stage + 1))

    def _stage_multisets(self, prefix: tuple[int, ...],
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
        if prefix not in self._stage_cache:
            stage = len(prefix)
            masks = self.ev.singleton_masks({t: r for t, r in enumerate(prefix)})
            grouped = eval_sumprod_grouped(
                self.tree, self.tables, self.spec, stage, masks=masks)
            rows = []
            for ms in grouped.values:
                if ms:
                    keys = np.array(sorted(ms))
                    cums = np.cumsum([ms[k] for k in keys])
                else:
                    keys, cums = np.array([]), np.array([])
                rows.append((keys, cums))
            self._stage_cache[prefix] = rows
        return self._stage_cache[prefix]

    def _stage_weights(self, prefix: tuple[int, ...], sq_radius: float) -> np.ndarray:
        eff_radius = self._effective(sq_radius, len(prefix))
        rows = self._stage_multisets(prefix)
        w = np.zeros(len(rows))
        for i, (keys, cums) in enumerate(rows):
            idx = np.searchsorted(keys, eff_radius, side="right") - 1
            if idx >= 0:
                w[i] = cums[idx]
        return w

    def sample_batch(self, sq_radius: float, size: int,
                     rng: np.random.Generator) -> np.ndarray:
        """``size`` independent near-uniform draws from the closed ball."""
        if self._stage_weights((), sq_radius).sum() <= 0:
            raise EmptyBall(f"no join points within squared radius {sq_radius}")
        out = np.empty((size, self.ev.n_features))
        got = rounds = 0
        while got < size:
            rounds += 1
            if rounds > 200:
                raise RuntimeError("ball sampling keeps rejecting; the shell "
                                   "outside the ball dominates its interior")
            draw = (size - got) + max(8, (size - got) // 4)
            prov = self.ev.sample_rows(
                draw, lambda prefix: self._stage_weights(prefix, sq_radius),
                rng, EmptyBall)
            pts = self.ev.gather(prov)
            diffs = pts - self.center
            member = np.einsum("ij,ij->i", diffs, diffs) <= sq_radius
            take = pts[member][: size - got]
            out[got: got + take.shape[0]] = take
            got += take.shape[0]
        return out


def sample_in_ball(tree: JoinTree, tables: list[Table], center: np.ndarray,
                   sq_radius: float, delta: float,
                   rng: np.random.Generator, size: int | None = None,
                   sampler: BallSampler | None = None) -> np.ndarray:
    """Join point(s) from the closed ball, each drawn with probability
    within (1 +- delta) of uniform over the ball.  Per-table bucketing is
    delta / (2m) so the per-draw distortion stays inside the contract."""
    if sampler is None:
        bucket_delta = delta / (2 * len(tables)) if delta else None
        sampler = BallSampler(tree, tables, center, bucket_delta)
    pts = sampler.sample_batch(sq_radius, size or 1, rng)
    return pts if size is not None else pts[0]
