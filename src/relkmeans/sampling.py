"""Exact k-means++ simulation on the join via sequential row sampling and
rejection.

Candidates come from an easy surrogate distribution: probability
proportional to each join row's squared distance to the representative of
its smallest laminar box.  Sampling one row per table in schema order,
weighted by grouped box-restricted cost queries, realizes the surrogate
exactly; accepting with probability (true nearest-center cost) /
(surrogate cost) corrects it to the k-means++ target distribution.

Per-table stage weights depend only on the rows fixed so far, so they are
cached per prefix; on small joins this makes repeated sampling from the
same state cheap enough for frequency tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .boxes import LaminarForest, assignment_reps_batch, build_boxes, sq_dists
from .relational import JoinTree, Table
from .sumprod import JoinEvaluator

log = logging.getLogger(__name__)


class EmptyJoin(Exception):
    """The join has no rows to sample from."""


class DegenerateDistribution(Exception):
    """Total surrogate cost is zero: every join point coincides with a center."""


class RejectionBudgetExceeded(Exception):
    """Too many consecutive rejections; retry with a new seed or check the
    rejection budget."""


@dataclass(frozen=True)
class SamplerConfig:
    """Rejection budget is ``budget_factor * i^2 * d`` when sampling the
    i-th center over d features."""

    budget_factor: int = 64
    batch_size: int = 64

    def rejection_budget(self, i: int, d: int) -> int:
        return self.budget_factor * i * i * max(d, 1)


@dataclass(frozen=True)
class CandidatePoint:
    """A join row as a point plus the row index drawn from each table."""

    coords: np.ndarray
    provenance: tuple[int, ...]


@dataclass
class CenterTelemetry:
    center_index: int
    candidates: int
    rejections: int


@dataclass
class SamplingState:
    """One k-means++ sampling session: centers so far, their box forest,
    the RNG, and cached per-prefix stage weights."""

    centers: list[np.ndarray]
    forest: LaminarForest | None
    rng: np.random.Generator
    config: SamplerConfig = field(default_factory=SamplerConfig)
    telemetry: list[CenterTelemetry] = field(default_factory=list)
    _surrogate: "_SequentialSampler | None" = None

    def refresh_forest(self) -> None:
        self.forest = build_boxes(np.asarray(self.centers)) if self.centers else None
        self._surrogate = None


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator; the same seed reproduces runs bit for
    bit."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class _SequentialSampler:
    """Per-prefix stage weights for :meth:`JoinEvaluator.sample_rows`, cached.

    Subclasses provide the grouped weight vector for one table given the
    rows already fixed in the preceding tables.
    """

    def __init__(self, tree: JoinTree, tables: list[Table]):
        self.tree = tree
        self.tables = tables
        self.ev = JoinEvaluator(tree, tables)
        self._weights: dict[tuple[int, ...], np.ndarray] = {}

    def stage_weights(self, prefix: tuple[int, ...]) -> np.ndarray:
        if prefix not in self._weights:
            fixed = {tid: row for tid, row in enumerate(prefix)}
            w = self._compute_weights(len(prefix), fixed)
            w = np.maximum(w, 0.0)  # inclusion-exclusion may leave -0-size noise
            self._weights[prefix] = w
        return self._weights[prefix]

    def _compute_weights(self, group: int, fixed: dict[int, int]) -> np.ndarray:
        raise NotImplementedError

    def total_mass(self) -> float:
        return float(self.stage_weights(()).sum())

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent join rows; returns (size, m) row indices."""
        return self.ev.sample_rows(size, self.stage_weights, rng,
                                   DegenerateDistribution)


class _UniformSampler(_SequentialSampler):
    def _compute_weights(self, group: int, fixed: dict[int, int]) -> np.ndarray:
        masks = self.ev.singleton_masks(fixed)
        return self.ev.count_grouped(group, masks)


class _SurrogateSampler(_SequentialSampler):
    def __init__(self, tree: JoinTree, tables: list[Table], forest: LaminarForest):
        super().__init__(tree, tables)
        self.forest = forest

    def _compute_weights(self, group: int, fixed: dict[int, int]) -> np.ndarray:
        masks = self.ev.singleton_masks(fixed)
        return assignment_cost_grouped(
            self.tree, self.tables, self.forest, group, fixed,
            evaluator=self.ev, conditioned=masks)


def assignment_cost_grouped(tree: JoinTree, tables: list[Table],
                            forest: LaminarForest, group: int,
                            fixed_rows: dict[int, int] | None = None,
                            evaluator: JoinEvaluator | None = None,
                            conditioned: list[np.ndarray] | None = None,
                            ) -> np.ndarray:
    """Per-row total box-assignment cost of the join rows extending each row
    of the group table (with earlier tables optionally pinned to single
    rows).

    Expands the laminar difference recursively: every forest box contributes
    its cost to its own representative minus, for non-root boxes, its cost
    to the parent's representative.  That is 2*|forest|-1 box-restricted
    grouped queries.
    """
    ev = evaluator if evaluator is not None else JoinEvaluator(tree, tables)
    if conditioned is None:
        conditioned = ev.singleton_masks(fixed_rows or {})
    total = np.zeros(tables[group].n_rows)
    for idx, box in enumerate(forest.entries):
        masks = ev.masks_for_box(box, conditioned)
        own_cost, _ = ev.costpair_grouped(group, forest.rep_point(idx), masks)
        total += own_cost
        parent = forest.parents[idx]
        if parent is not None:
            par_cost, _ = ev.costpair_grouped(group, forest.rep_point(parent), masks)
            total -= par_cost
    return total


def sample_uniform_row(tree: JoinTree, tables: list[Table],
                       rng: np.random.Generator,
                       sampler: _UniformSampler | None = None) -> CandidatePoint:
    """A join row uniformly at random, one table at a time, weighted by
    grouped counting queries conditioned on the rows already fixed."""
    s = sampler if sampler is not None else _UniformSampler(tree, tables)
    if s.total_mass() == 0:
        raise EmptyJoin("join has no rows")
    prov = s.sample_batch(rng, 1)
    coords = s.ev.gather(prov)[0]
    return CandidatePoint(coords, tuple(int(r) for r in prov[0]))


def sample_from_surrogate(state: SamplingState, tree: JoinTree,
                          tables: list[Table]) -> CandidatePoint:
    """One draw from the box-assignment surrogate distribution (probability
    of a join row proportional to its squared distance to its smallest box's
    representative)."""
    s = _surrogate_for(state, tree, tables)
    prov = s.sample_batch(state.rng, 1)
    coords = s.ev.gather(prov)[0]
    return CandidatePoint(coords, tuple(int(r) for r in prov[0]))


def _surrogate_for(state: SamplingState, tree: JoinTree,
                   tables: list[Table]) -> _SurrogateSampler:
    if not state.centers:
        raise ValueError("surrogate sampling requires at least one center")
    if state.forest is None:
        state.refresh_forest()
    if state._surrogate is None:
        state._surrogate = _SurrogateSampler(tree, tables, state.forest)
        if state._surrogate.total_mass() <= 0.0:
            state._surrogate = None
            raise DegenerateDistribution("total assignment cost is zero")
    return state._surrogate


def sample_next_center(state: SamplingState, tree: JoinTree,
                       tables: list[Table]) -> np.ndarray:
    """The next k-means++ center, drawn exactly from the target distribution
    by rejection against the surrogate."""
    pts, _ = rejection_sample_batch(state, tree, tables, 1)
    return pts[0]


def rejection_sample_batch(state: SamplingState, tree: JoinTree,
                           tables: list[Table], n_accepted: int,
                           ) -> tuple[np.ndarray, CenterTelemetry]:
    """Draw ``n_accepted`` independent accepted samples from the target
    distribution.  Accepted candidates are i.i.d., so collecting them from
    pooled batches matches repeated single-sample rejection runs.
    """
    s = _surrogate_for(state, tree, tables)
    centers = np.asarray(state.centers)
    i = len(state.centers) + 1
    d = centers.shape[1]
    budget = state.config.rejection_budget(i, d)

    out = np.empty((n_accepted, d))
    got = accepted = candidates = rejections_run = 0
    telem = CenterTelemetry(i, 0, 0)
    batch = max(state.config.batch_size, min(1024, 4 * n_accepted))
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
                telem.candidates, telem.rejections = candidates, candidates - accepted
                raise RejectionBudgetExceeded(
                    f"{rejections_run} consecutive rejections for center {i} "
                    f"(budget {budget}); retry with a new seed")
        else:
            rejections_run = int(batch - 1 - idx[-1])
    telem.candidates, telem.rejections = candidates, candidates - accepted
    state.telemetry.append(telem)
    return out, telem


def run_kmeanspp(tree: JoinTree, tables: list[Table], n_centers: int,
                 seed: int = 0,
                 config: SamplerConfig | None = None,
                 ) -> tuple[list[np.ndarray], SamplingState]:
    """Sample up to ``n_centers`` centers: the first uniformly, the rest from
    the exact k-means++ distribution given their predecessors.

    Stops early (with a log message) if the remaining points all coincide
    with existing centers.  Deterministic given the seed.
    """
    state = SamplingState([], None, make_rng(seed),
                          config or SamplerConfig())
    uniform = _UniformSampler(tree, tables)
    if uniform.total_mass() == 0:
        raise EmptyJoin("join has no rows")
    first = sample_uniform_row(tree, tables, state.rng, sampler=uniform)
    state.centers.append(first.coords)
    state.refresh_forest()
    while len(state.centers) < n_centers:
        try:
            nxt = sample_next_center(state, tree, tables)
        except DegenerateDistribution:
            log.warning(
                "all join points coincide with the %d sampled centers; "
                "stopping early (%d requested)", len(state.centers), n_centers)
            break
        state.centers.append(nxt)
        state.refresh_forest()
    return state.centers, state
