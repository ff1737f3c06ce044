"""Exact k-means++ simulation on the join via sequential row sampling and
rejection.

Candidates come from an easy surrogate distribution: probability
proportional to each join row's squared distance to the representative of
its smallest laminar box.  Accepting with probability (true nearest-center
cost) / (surrogate cost) corrects it to the k-means++ target distribution.
A forest on a prefix of the centers stays exact for later stages (its
representatives are centers, so the ratio stays <= 1), so a session keeps
one until a round on it accepts nothing (:func:`rejection_sample_batch`).

Every sampler of a stage runs on the one :class:`JoinEvaluator` its
:class:`SamplingState` holds, which :func:`run_kmeanspp` takes or builds.

The surrogate is realized exactly by drawing one row per table along the
evaluator's walk (table 0, then always the smallest-id unvisited table next
to a visited one, so each table's tree parent is fixed before it).  The
surrogate cost is the one laminar inclusion-exclusion of the package
(:meth:`StageSampler.surrogate`): a stack of 2*|forest|-1 signed (box,
target) terms.  One upward cost-pair pass per forest
(:meth:`JoinEvaluator.costpair_walk`), rooted at table 0, keeps only every
edge's messages, so a sampler's memory is set by join keys, not rows.  A
batch of draws is extended one table at a time, all draws together: each
stage weighs its table by the cost-pair product of the drawn prefix's
folds and its own (:meth:`JoinEvaluator.fold`), and one inverse-CDF draw
picks every draw's row.  The first center is one top-down draw of a
center-less distance pass (``JoinEvaluator.distance_pass(None)``), which
counts the join per key, so it is uniform over the join rows.  The
surrogate cost of a set of centers
(:func:`relkmeans.clustering.relational_cost`) is their sampler's mass.

Every uniform the pipeline draws comes from a :class:`UniformStream`
(:func:`make_rng`): the standard library's Mersenne Twister, seeded with
the text of (seed, *spawn key), one stream per stage and per weighed
center.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .boxes import LaminarForest, assignment_reps_batch, build_boxes, sq_dists
from .relational import JoinTree, SamplingGaveUp, Table
from .sumprod import JoinEvaluator

# candidates drawn per rejection round, at the least
BATCH_SIZE = 64
# the i-th center over d features may take BUDGET_FACTOR * i^2 * d
# consecutive rejections
BUDGET_FACTOR = 64


class EmptyJoin(Exception):
    """The join has no rows to sample from."""


class DegenerateDistribution(Exception):
    """Total surrogate cost is zero: every join point coincides with a center."""


class RejectionBudgetExceeded(SamplingGaveUp):
    """Too many consecutive rejections; retry with a new seed or check the
    rejection budget."""


@dataclass(repr=False)
class CenterTelemetry:
    center_index: int
    candidates: int
    rejections: int


@dataclass(repr=False)
class ForestTelemetry:
    """Deterministic counters of the box forests of one sampling session
    (a few, not one per center): forests built, their boxes (sum and max),
    and the 2*|forest|-1 cost-pair terms summed over the forests sampled."""

    forests_built: int = 0
    forest_boxes_sum: int = 0
    forest_boxes_max: int = 0
    costpair_terms: int = 0


@dataclass(eq=False, repr=False)
class SamplingState:
    """One k-means++ sampling session: centers so far (only appended to),
    the box forest of a prefix of them (None until a draw needs it), the
    RNG, the evaluator every sampler runs on, and, until the forest is
    rebuilt, its surrogate sampler and its candidates no stage has tested."""

    centers: list[np.ndarray]
    forest: LaminarForest | None
    rng: UniformStream
    ev: JoinEvaluator | None = None
    telemetry: list[CenterTelemetry] = field(default_factory=list)
    forest_telemetry: ForestTelemetry = field(default_factory=ForestTelemetry)
    _surrogate: "StageSampler | None" = None
    _queue: np.ndarray | None = None

    def refresh_forest(self) -> None:
        self.forest = build_boxes(np.asarray(self.centers))
        self._surrogate = self._queue = None
        tel = self.forest_telemetry
        tel.forests_built += 1
        tel.forest_boxes_sum += self.forest.size
        tel.forest_boxes_max = max(tel.forest_boxes_max, self.forest.size)

    def surrogate(self) -> "StageSampler":
        """The surrogate sampler of the forest, on the session's evaluator,
        built at most once per forest, right after the forest in a run."""
        if self.forest is None:
            self.refresh_forest()
        if self._surrogate is None:
            s = StageSampler.surrogate(self.ev, self.forest)
            mass = s.total_mass()
            if not np.isfinite(mass):
                raise ValueError("squared distances overflow float64 on this "
                                 "join; rescale the features")
            if mass <= 0.0:
                raise DegenerateDistribution("total assignment cost is zero")
            self._surrogate = s
            self.forest_telemetry.costpair_terms += s.signs.size
        return self._surrogate


class UniformStream:
    """Uniforms on [0, 1), the only randomness the pipeline draws, from the
    standard library's Mersenne Twister (``random.Random``, which numpy has
    already imported).  Each value is one 64-bit word of
    ``getrandbits``, shifted right by 11 and scaled by 2^-53, the 53-bit
    construction of numpy's ``Generator.random``.  ``getrandbits`` fills
    its words low first, so the stream is split-invariant: ``random(3)``
    then ``random(5)`` equals ``random(8)``.  Any object with a
    ``random(size)`` method (a numpy ``Generator``, say) may stand in."""

    __slots__ = ("_bits",)

    def __init__(self, text: str):
        # a str seed is hashed by SHA-512, never by hash(), so it does not
        # depend on PYTHONHASHSEED
        self._bits = random.Random(text).getrandbits

    def random(self, size: int) -> np.ndarray:
        """The stream's next ``size`` values, as float64."""
        words = self._bits(64 * size).to_bytes(8 * size, "little")
        return (np.frombuffer(words, dtype="<u8") >> 11) * 2.0 ** -53


def make_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> UniformStream:
    """The stream of a seed and a spawn key: the same pair reproduces runs
    bit for bit, and distinct pairs give unrelated streams.  The generator
    is seeded with the text of ``(seed, *spawn_key)``, each part in
    hexadecimal (which, unlike decimal, has no digit limit), separated by
    spaces: no two sequences of non-negative ints share it, whatever their
    size."""
    parts = tuple(map(operator.index, (seed, *spawn_key)))
    for part in parts:
        if part < 0:
            raise ValueError("seed and spawn key parts must be non-negative, "
                             f"got {part}")
    return UniformStream(" ".join(f"{part:x}" for part in parts))


class StageSampler:
    """Stage weights of the walk over a stack of signed terms (box, target,
    sign s_t), for a whole batch of draws at once, read off the messages of
    one upward pass (:meth:`JoinEvaluator.costpair_walk`).

    Let v be the table at walk position d and p its walk parent, fixed to
    row r_p.  Each fixed table, at its drawn row, is folded with only its
    children past position d (:meth:`JoinEvaluator.fold` with ``depth=d``),
    and (PA_t, PC_t) is the cost-pair product of those folds: the cost and
    count, in term t's box, of the fixed rows with the subtrees not yet
    visited.  The weight of row r of v is

        [key(r) = key(r_p)] * sum_t s_t (PA_t b_t(r) + PC_t a_t(r))

    clamped at 0, where (a_t, b_t) is v's own fold, computed only at v's
    rows under some draw's parent key.  Each draw keeps its own (PA, PC) as
    one column of a (T, draws) array, so a stage's weights are two matrix
    products against v's (T, rows) arrays; the first table's, the same for
    every draw, are kept as one vector, ``first``.  numpy's overflow
    warnings are silenced here; :meth:`SamplingState.surrogate` refuses a
    non-finite mass.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, ev: JoinEvaluator, targets: np.ndarray,
                 signs: list[float], low: np.ndarray, high: np.ndarray):
        self.ev, self.targets, self.low, self.high = ev, targets, low, high
        self.up = ev.costpair_walk(targets, low, high)
        self.signs = np.asarray(signs, dtype=np.float64)
        cost, _ = ev.fold(ev.walk[0], targets, low, high, self.up)
        self.first = np.maximum(self.signs @ cost, 0.0)

    @classmethod
    def surrogate(cls, ev: JoinEvaluator,
                  forest: LaminarForest) -> "StageSampler":
        """Join rows by surrogate cost, the squared distance to the
        representative of the smallest box holding the row.  It is the
        laminar difference as 2*|forest|-1 terms: every box's cost to its
        own representative, minus, for a non-root box, its cost to its
        parent's representative."""
        boxes, targets, signs = [], [], []
        for idx, parent in enumerate(forest.parents):
            boxes.append(idx)
            targets.append(forest.rep[idx])
            signs.append(1.0)
            if parent is not None:
                boxes.append(idx)
                targets.append(forest.rep[parent])
                signs.append(-1.0)
        return cls(ev, forest.centers[targets], signs, forest.low[boxes],
                   forest.high[boxes])

    @np.errstate(over="ignore", invalid="ignore")
    def stage_weights(self, prefixes: np.ndarray) -> np.ndarray:
        """Per draw, the weight of each row of table ``walk[depth]``, where
        ``prefixes`` is (draws, depth): each draw's rows of the walk's first
        ``depth`` tables, in walk order.  Returns (draws, rows of the
        table)."""
        ev, up = self.ev, self.up
        prefixes = np.asarray(prefixes, dtype=np.int64)
        n, depth = prefixes.shape
        if not depth:
            return np.broadcast_to(self.first, (n, self.first.size))
        v = ev.walk[depth]
        # the fixed rows' folds past v, multiplied as cost pairs: (T, draws)
        p_cost, p_count = 0.0, 1.0
        for u, r in zip(ev.walk, prefixes.T):
            cost, count = ev.fold(u, self.targets, self.low, self.high, up, r,
                                  depth)
            p_cost, p_count = p_cost * count + cost * p_count, p_count * count
        ids_v, ids_par, _ = ev.edge_keys(v)
        parent_key = ids_par[prefixes[:, ev.walk_pos[ev.walk_parent[v]]]]
        rows = np.flatnonzero(np.isin(ids_v, parent_key))
        cost, count = ev.fold(v, self.targets, self.low, self.high, up, rows)
        w = (self.signs * p_cost.T) @ count + (self.signs * p_count.T) @ cost
        w[ids_v[rows] != parent_key[:, None]] = 0.0
        out = np.zeros((n, ids_v.size))
        # inclusion-exclusion may leave -0-size noise
        out[:, rows] = np.maximum(w, 0.0)
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def total_mass(self) -> float:
        return float(self.first.sum())

    def sample_batch(self, rng: UniformStream, size: int) -> np.ndarray:
        """Draw ``size`` independent join rows, one table at a time in walk
        order, every draw at once: one inverse-CDF draw per stage.  Returns
        (size, m) row indices by table id."""
        walk = self.ev.walk
        prov = np.empty((size, len(walk)), dtype=np.int64)  # in walk order
        for depth, v in enumerate(walk):
            cum = np.cumsum(self.stage_weights(prov[:, :depth]), axis=1)
            total = cum[:, -1]
            if not (total > 0.0).all():
                raise DegenerateDistribution(f"zero total weight at table {v}")
            # u < total, so the row it lands on has positive weight
            u = rng.random(size) * total
            prov[:, depth] = (cum <= u[:, None]).sum(axis=1)
        return prov[:, np.argsort(walk)]


def rejection_sample_batch(state: SamplingState, tree: JoinTree,
                           tables: list[Table], n_accepted: int,
                           ) -> tuple[np.ndarray, CenterTelemetry]:
    """Draw ``n_accepted`` independent samples from the k-means++
    distribution given ``state.centers``.  The state's evaluator is built
    from ``tree`` and ``tables`` when it has none, and kept on it.

    A round tests the queued candidates (else a new batch from the forest)
    in draw order against the current centers, each with a fresh uniform,
    and takes accepted ones in order; the rest, unseen, stay queued and
    i.i.d.  A round accepting nothing on a forest built on fewer centers
    rebuilds it on all; only a current forest's rounds count toward the
    budget.  The telemetry counts the candidates tested."""
    if state.ev is None:
        state.ev = JoinEvaluator(tree, tables)
    centers = np.asarray(state.centers)
    i, d = len(centers) + 1, centers.shape[1]
    budget = BUDGET_FACTOR * i * i * max(d, 1)

    out = np.empty((n_accepted, d))
    got = tested = rejections_run = 0
    batch = max(BATCH_SIZE, min(1024, 4 * n_accepted))
    while got < n_accepted:
        if state._queue is None or not len(state._queue):
            # no local holds the sampler: it is freed with its forest
            state._queue = state.ev.gather(
                state.surrogate().sample_batch(state.rng, batch))
        pts = state._queue
        surrogate = assignment_reps_batch(state.forest, pts)[1]
        true_cost = sq_dists(pts, centers).min(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = state.rng.random(len(pts)) < true_cost / surrogate
        take = np.flatnonzero(accept)[: n_accepted - got]
        used = int(take[-1]) + 1 if got + take.size == n_accepted else len(pts)
        state._queue = pts[used:]
        tested += used
        out[got: got + take.size] = pts[take]
        got += take.size
        if take.size:
            rejections_run = used - 1 - int(take[-1])
        elif len(state.forest.centers) < len(state.centers):
            state.refresh_forest()
        else:
            rejections_run += used
            if rejections_run > budget:
                raise RejectionBudgetExceeded(
                    f"{rejections_run} consecutive rejections for center {i} "
                    f"(budget {budget}); retry with a new seed")
    state.telemetry.append(CenterTelemetry(i, tested, tested - n_accepted))
    return out, state.telemetry[-1]


def run_kmeanspp(tree: JoinTree, tables: list[Table], n_centers: int,
                 seed: int = 0, *, ev: JoinEvaluator | None = None,
                 ) -> tuple[list[np.ndarray], SamplingState]:
    """Sample up to ``n_centers`` centers: the first uniformly, by one
    top-down draw of a center-less distance pass, the rest from the exact
    k-means++ distribution given their predecessors.  One evaluator
    (``ev``, else a new one) serves every draw, and a forest is rebuilt
    only when a round on it, stale, accepts nothing.

    Stops early if the remaining points all coincide with existing
    centers.  Deterministic given the seed.
    """
    state = SamplingState([], None, make_rng(seed), ev or JoinEvaluator(tree, tables))
    join = state.ev.distance_pass(None)
    if not join.curve[0].size:
        raise EmptyJoin("join has no rows")
    state.centers.append(state.ev.gather(join.draw(np.zeros(1), state.rng))[0])
    while len(state.centers) < n_centers:
        try:
            pts, _ = rejection_sample_batch(state, tree, tables, 1)
        except DegenerateDistribution:
            break
        state.centers.append(pts[0])
    state._surrogate = state._queue = None  # frees the kept messages
    return state.centers, state
