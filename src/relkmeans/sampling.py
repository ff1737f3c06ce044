"""Exact k-means++ simulation on the join via sequential row sampling and
rejection.

Candidates come from an easy surrogate distribution: probability
proportional to each join row's squared distance to the representative of
its smallest laminar box.  Accepting with probability (true nearest-center
cost) / (surrogate cost) corrects it to the k-means++ target distribution.

Every sampler of a stage runs on the one :class:`JoinEvaluator` its
:class:`SamplingState` holds; :func:`run_kmeanspp` builds one for all draws.

The surrogate is realized exactly by drawing one row per table along the
evaluator's walk (table 0, then always the smallest-id unvisited table next
to a visited one, so each table's tree parent is fixed before it).  The
surrogate cost is the one laminar inclusion-exclusion of the package
(:meth:`StageSampler.surrogate`): a stack of 2*|forest|-1 signed (box,
target) terms.  One upward cost-pair pass per forest
(:meth:`JoinEvaluator.costpair_walk`), rooted at table 0, keeps every
table's subtree (cost, count) arrays and every edge's messages for all
terms, with every box's masks built in one call.  A batch of draws is then
extended one table at a time, all draws together: the next table's weights
for every draw are read off those arrays in O(draws * terms * rows of the
table), with no further pass, and one inverse-CDF draw per table picks
every draw's row.  The first center is drawn uniformly from the count
component of one whole-space term of the same pass
(:meth:`StageSampler.uniform`), and the surrogate cost of a set of centers
(:func:`relkmeans.clustering.relational_cost`) is the total mass of their
surrogate sampler.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .boxes import LaminarForest, assignment_reps_batch, build_boxes, sq_dists
from .relational import JoinTree, SamplingGaveUp, Table
from .sumprod import JoinEvaluator

log = logging.getLogger(__name__)

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


@dataclass
class CenterTelemetry:
    center_index: int
    candidates: int
    rejections: int


@dataclass
class ForestTelemetry:
    """Deterministic counters of the box forests of one sampling session:
    forests built, their boxes (sum and max), and the 2*|forest|-1
    cost-pair terms summed over the forests sampled from."""

    forests_built: int = 0
    forest_boxes_sum: int = 0
    forest_boxes_max: int = 0
    costpair_terms: int = 0


@dataclass
class SamplingState:
    """One k-means++ sampling session: centers so far, their box forest
    (None until a draw needs it), the RNG, the evaluator every sampler of
    the session runs on, and the surrogate sampler of the forest."""

    centers: list[np.ndarray]
    forest: LaminarForest | None
    rng: np.random.Generator
    ev: JoinEvaluator | None = None
    telemetry: list[CenterTelemetry] = field(default_factory=list)
    forest_telemetry: ForestTelemetry = field(default_factory=ForestTelemetry)
    _surrogate: "StageSampler | None" = None

    def refresh_forest(self) -> None:
        self.forest = build_boxes(np.asarray(self.centers)) if self.centers else None
        self._surrogate = None
        if self.forest is not None:
            tel = self.forest_telemetry
            tel.forests_built += 1
            tel.forest_boxes_sum += self.forest.size
            tel.forest_boxes_max = max(tel.forest_boxes_max, self.forest.size)

    def add_center(self, center: np.ndarray) -> None:
        """Append a center; its forest is built when a draw needs it."""
        self.centers.append(center)
        self.forest = self._surrogate = None

    def surrogate(self) -> "StageSampler":
        """The surrogate sampler of the current centers' forest, on the
        session's evaluator, built at most once per forest."""
        if not self.centers:
            raise ValueError("surrogate sampling requires at least one center")
        if self.forest is None:
            self.refresh_forest()
        if self._surrogate is None:
            s = StageSampler.surrogate(self.ev, self.forest)
            if s.total_mass() <= 0.0:
                raise DegenerateDistribution("total assignment cost is zero")
            self._surrogate = s
            self.forest_telemetry.costpair_terms += s.signs.size
        return self._surrogate


def make_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """Counter-based 64-bit generator; the same seed and spawn key reproduce
    runs bit for bit, and distinct spawn keys give independent streams."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=spawn_key)))


class StageSampler:
    """Stage weights of the walk, read off one upward pass
    (:meth:`JoinEvaluator.costpair_walk`) over a stack of signed terms (box
    mask, target, sign s_t), for a whole batch of draws at once.

    Let v be the next table in the walk and p its walk parent, fixed to row
    r_p.  The weight of row r of v is

        [key(r) = key(r_p)] * sum_t s_t I_t ((F_t b_t(r) + a_t(r)) PC_t
                                             + b_t(r) PA_t)

    clamped at 0, where (a_t, b_t) are v's subtree (cost, count) arrays, I_t
    is 1 when every fixed row lies in term t's box, F_t is the fixed rows'
    owned squared distance to term t's target, and (PA_t, PC_t) is the
    cost-pair product of the messages of the unvisited subtrees hanging off
    fixed tables (other than v's own), each read at its fixed parent row's
    key.  With ``count_only`` the weight is sum_t s_t I_t b_t(r) PC_t
    instead.  Each draw keeps its own (I, F, PA, PC) as one row of a
    (draws, T) array, so a stage's weights are two matrix products against
    v's (T, rows) arrays.  The walk only reaches prefixes that extend to a
    join row; elsewhere these weights need not vanish.
    """

    def __init__(self, ev: JoinEvaluator, targets: np.ndarray,
                 signs: list[float], masks: list[np.ndarray] | None = None,
                 count_only: bool = False):
        self.ev = ev
        self.up = ev.costpair_walk(targets, masks)
        self.signs = np.asarray(signs, dtype=np.float64)
        self.count_only = count_only
        self._pos = {v: i for i, v in enumerate(ev.walk)}
        self._children = {u: [c for c in ev.walk if ev.walk_parent[c] == u]
                          for u in ev.walk}

    @classmethod
    def uniform(cls, ev: JoinEvaluator) -> "StageSampler":
        """Join rows uniformly: the count of one whole-space term."""
        return cls(ev, np.zeros((1, ev.n_features)), [1.0], count_only=True)

    @classmethod
    def surrogate(cls, ev: JoinEvaluator,
                  forest: LaminarForest) -> "StageSampler":
        """Join rows by surrogate cost, the squared distance to the
        representative of the smallest box holding the row.  It is the
        laminar difference as 2*|forest|-1 terms: every box's cost to its
        own representative, minus, for a non-root box, its cost to its
        parent's representative.  One masks_for_box call masks every box."""
        boxes, targets, signs = [], [], []
        for idx, parent in enumerate(forest.parents):
            boxes.append(idx)
            targets.append(forest.rep[idx])
            signs.append(1.0)
            if parent is not None:
                boxes.append(idx)
                targets.append(forest.rep[parent])
                signs.append(-1.0)
        masks = ev.masks_for_box(forest.low, forest.high)
        return cls(ev, forest.centers[targets], signs, [m[boxes] for m in masks])

    def stage_weights(self, prefixes: np.ndarray) -> np.ndarray:
        """Per draw, the weight of each row of table ``walk[depth]``, where
        ``prefixes`` is (draws, depth): each draw's rows of the walk's first
        ``depth`` tables, in walk order.  Returns (draws, rows of the
        table)."""
        ev, up = self.ev, self.up
        prefixes = np.asarray(prefixes, dtype=np.int64)
        n, depth = prefixes.shape
        v = ev.walk[depth]
        inside = np.ones((n, self.signs.size), dtype=bool)
        f_cost = np.zeros((n, self.signs.size))
        p_cost, p_count = np.zeros_like(f_cost), np.ones_like(f_cost)
        for u, r in zip(ev.walk, prefixes.T):
            inside &= up.masks[u][:, r].T
            f_cost += up.owned[u][:, r].T
            for c in self._children[u]:
                if self._pos[c] > depth:
                    key = ev.edge_keys(c, u)[1][r]
                    ma, mb = up.msg_cost[c][:, key].T, up.msg_count[c][:, key].T
                    p_cost, p_count = p_cost * mb + ma * p_count, p_count * mb
        signed = self.signs * inside
        if self.count_only:
            w = (signed * p_count) @ up.count[v]
        else:
            w = ((signed * (f_cost * p_count + p_cost)) @ up.count[v]
                 + (signed * p_count) @ up.cost[v])
        if depth:
            par = ev.walk_parent[v]
            ids_v, ids_par, _ = ev.edge_keys(v, par)
            w[ids_v != ids_par[prefixes[:, self._pos[par]]][:, None]] = 0.0
        # inclusion-exclusion may leave -0-size noise
        return np.maximum(w, 0.0)

    def total_mass(self) -> float:
        return float(self.stage_weights(np.empty((1, 0), dtype=np.int64)).sum())

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
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
    """Draw ``n_accepted`` independent accepted samples from the target
    distribution.  Accepted candidates are i.i.d., so collecting them from
    pooled batches matches repeated single-sample rejection runs.  The
    state's evaluator is built from ``tree`` and ``tables`` when it has
    none, and kept on it.
    """
    if state.ev is None:
        state.ev = JoinEvaluator(tree, tables)
    s = state.surrogate()
    centers = np.asarray(state.centers)
    i = len(state.centers) + 1
    d = centers.shape[1]
    budget = BUDGET_FACTOR * i * i * max(d, 1)

    out = np.empty((n_accepted, d))
    got = accepted = candidates = rejections_run = 0
    batch = max(BATCH_SIZE, min(1024, 4 * n_accepted))
    while got < n_accepted:
        prov = s.sample_batch(state.rng, batch)
        pts = s.ev.gather(prov)
        surrogate = assignment_reps_batch(state.forest, pts)[1]
        true_cost = sq_dists(pts, centers).min(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = state.rng.random(batch) < true_cost / surrogate
        candidates += batch
        idx = np.flatnonzero(accept)
        accepted += idx.size
        take = idx[: n_accepted - got]
        out[got: got + take.size] = pts[take]
        got += take.size
        if idx.size == 0:
            rejections_run += batch
            if rejections_run > budget:
                raise RejectionBudgetExceeded(
                    f"{rejections_run} consecutive rejections for center {i} "
                    f"(budget {budget}); retry with a new seed")
        else:
            rejections_run = int(batch - 1 - idx[-1])
    telem = CenterTelemetry(i, candidates, candidates - accepted)
    state.telemetry.append(telem)
    return out, telem


def run_kmeanspp(tree: JoinTree, tables: list[Table], n_centers: int,
                 seed: int = 0) -> tuple[list[np.ndarray], SamplingState]:
    """Sample up to ``n_centers`` centers: the first uniformly, the rest from
    the exact k-means++ distribution given their predecessors.  One
    evaluator serves every draw, and each box forest is built just before
    the draw that needs it.

    Stops early (with a log message) if the remaining points all coincide
    with existing centers.  Deterministic given the seed.
    """
    state = SamplingState([], None, make_rng(seed), JoinEvaluator(tree, tables))
    first = StageSampler.uniform(state.ev)
    if first.total_mass() == 0:
        raise EmptyJoin("join has no rows")
    state.add_center(state.ev.gather(first.sample_batch(state.rng, 1))[0])
    while len(state.centers) < n_centers:
        try:
            pts, _ = rejection_sample_batch(state, tree, tables, 1)
        except DegenerateDistribution:
            log.warning(
                "all join points coincide with the %d sampled centers; "
                "stopping early (%d requested)", len(state.centers), n_centers)
            break
        state.add_center(pts[0])
    return state.centers, state
