"""Shared fixtures: the two-table path fixture, an independent brute-force
join, the loop construction of the box forest, and a random acyclic schema
generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from relkmeans import FeatureId, JoinEvaluator, Table, gyo_reduce, tables_to_schema
from relkmeans.boxes import LaminarForest
from relkmeans.relational import SamplingGaveUp


@pytest.fixture
def path_tables() -> list[Table]:
    """Two tables sharing one column; their join has exactly 5 rows."""
    t1 = Table(0, "T1", (FeatureId("f1", 0), FeatureId("f2", 1)),
               np.array([[1, 1], [2, 1], [3, 2], [4, 3], [5, 4]], dtype=float))
    t2 = Table(1, "T2", (FeatureId("f2", 1), FeatureId("f3", 2)),
               np.array([[1, 1], [1, 2], [2, 3], [5, 4], [5, 5]], dtype=float))
    return [t1, t2]


@pytest.fixture
def path_tree(path_tables):
    return gyo_reduce(tables_to_schema(path_tables))


@pytest.fixture
def evaluators_built(monkeypatch) -> list[None]:
    """Gains one entry per JoinEvaluator built during the test."""
    built: list[None] = []
    init = JoinEvaluator.__init__

    def spy(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)
    monkeypatch.setattr(JoinEvaluator, "__init__", spy)
    return built


PATH_JOIN_ROWS = [
    (1.0, 1.0, 1.0),
    (1.0, 1.0, 2.0),
    (2.0, 1.0, 1.0),
    (2.0, 1.0, 2.0),
    (3.0, 2.0, 3.0),
]


def brute_force_join_rows(tables: list[Table], cap: int = 500_000,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Naive join oracle: fold tables row by row, matching shared features.
    Independent of join trees and the SumProd engine.  Returns, per join
    row, the row index taken from each table (by table id) and the point in
    feature-index order."""
    partial: list[tuple[dict[str, float], tuple[int, ...]]] = [({}, ())]
    for t in tables:
        names = t.feature_names()
        grown: list[tuple[dict[str, float], tuple[int, ...]]] = []
        for row, prov in partial:
            for i in range(t.n_rows):
                cand = dict(row)
                ok = True
                for pos, nm in enumerate(names):
                    v = t.rows[i, pos]
                    if nm in cand:
                        if cand[nm] != v:
                            ok = False
                            break
                    else:
                        cand[nm] = v
                if ok:
                    grown.append((cand, prov + (i,)))
                    if len(grown) > cap:
                        raise RuntimeError("brute-force join too large")
        partial = grown
    order = sorted({f.name: f.index for t in tables for f in t.features}.items(),
                   key=lambda kv: kv[1])
    data = np.array([[row[nm] for nm, _ in order] for row, _ in partial])
    prov = np.array([p for _, p in partial], dtype=np.int64)
    return (prov.reshape(len(partial), len(tables)),
            data.reshape(len(partial), len(order)))


def brute_force_join(tables: list[Table], cap: int = 500_000) -> np.ndarray:
    """The points of :func:`brute_force_join_rows`."""
    return brute_force_join_rows(tables, cap)[1]


def surrogate_costs(join_rows: np.ndarray, forest) -> np.ndarray:
    """Independent per-row surrogate cost: scan every forest box (closed
    lower, open upper faces) for the smallest-volume one containing the
    row, then square the distance to its representative."""
    costs = np.zeros(len(join_rows))
    for i, p in enumerate(join_rows):
        best_vol, best_rep = None, None
        for low, high, rep in zip(forest.low, forest.high, forest.rep):
            if np.all(low <= p) and np.all(p < high):
                vol = float(np.prod(high - low))
                if best_vol is None or vol < best_vol:
                    best_vol, best_rep = vol, rep
        diff = p - forest.centers[best_rep]
        costs[i] = diff @ diff
    return costs


@dataclass
class ActiveBox:
    """A growing box during reference construction; offsets from the
    representative stay strictly positive."""

    low: np.ndarray
    high: np.ndarray
    rep: int  # canonical original center index
    rep_point: np.ndarray
    meld_product: bool = False  # created by a meld in the current round

    def doubled(self) -> None:
        self.low = self.rep_point - 2.0 * (self.rep_point - self.low)
        self.high = self.rep_point + 2.0 * (self.high - self.rep_point)

    def halved_shape(self) -> tuple[np.ndarray, np.ndarray]:
        low = self.rep_point - 0.5 * (self.rep_point - self.low)
        high = self.rep_point + 0.5 * (self.high - self.rep_point)
        return low, high


def reference_build_boxes(centers, initial_half_side: float | None = None,
                          trace: list | None = None) -> LaminarForest:
    """Loop construction of the box forest, one box object and one pair at
    a time: the reference :func:`relkmeans.boxes.build_boxes` must match
    bit for bit.  Each round doubles every box, then melds the first
    strictly overlapping pair in row-major scan order until none is left;
    parents are found by scanning every pair of entries."""
    pts = np.asarray(centers, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    k, d = pts.shape
    alias: dict[int, int] = {}
    seen: dict[tuple, int] = {}  # float tuples: -0.0 == 0.0 as keys
    for i in range(k):
        alias[i] = seen.setdefault(tuple(pts[i].tolist()), i)
    canonical = list(seen.values())
    if len(canonical) == 1:
        return LaminarForest(np.full((1, d), -np.inf), np.full((1, d), np.inf),
                             np.array(canonical), (None,), 0, pts, alias)

    h0 = initial_half_side
    if h0 is None:
        gaps = [np.max(np.abs(pts[a] - pts[b]))
                for i, a in enumerate(canonical) for b in canonical[i + 1:]]
        h0 = float(2.0 ** np.floor(np.log2(min(gaps) / 4.0)))

    def overlap(a: ActiveBox, b: ActiveBox) -> bool:
        return bool(np.all(np.maximum(a.low, b.low) < np.minimum(a.high, b.high)))

    active = [ActiveBox(pts[c] - h0, pts[c] + h0, c, pts[c]) for c in canonical]
    frozen: list[tuple[np.ndarray, np.ndarray, int]] = []
    round_index = 0
    while len(active) > 1:
        round_index += 1
        if round_index > 4400:
            raise SamplingGaveUp("box construction failed to converge")
        for b in active:
            b.doubled()
            b.meld_product = False
        while True:
            pair = next(((ai, bi) for ai in range(len(active))
                         for bi in range(ai + 1, len(active))
                         if overlap(active[ai], active[bi])), None)
            if pair is None:
                break
            b1, b2 = active[pair[0]], active[pair[1]]
            for b in (b1, b2):
                if not b.meld_product:
                    frozen.append((*b.halved_shape(), b.rep))
            melded = ActiveBox(np.minimum(b1.low, b2.low),
                               np.maximum(b1.high, b2.high),
                               b1.rep, b1.rep_point, meld_product=True)
            active = [b for idx, b in enumerate(active) if idx not in pair]
            active.append(melded)
        if trace is not None:
            trace.append((round_index, h0,
                          [(b.low.copy(), b.high.copy(), b.rep) for b in active]))

    entries = frozen + [(np.full(d, -np.inf), np.full(d, np.inf), active[0].rep)]
    root_index = len(entries) - 1

    def contains(outer: tuple, inner: tuple) -> bool:
        return bool(np.all(outer[0] <= inner[0]) and np.all(inner[1] <= outer[1]))

    def volume_key(b: tuple) -> float:
        side = b[1] - b[0]
        return float(np.sum(np.log(side + 1.0))) if np.all(np.isfinite(side)) \
            else np.inf

    parents: list[int | None] = [None] * len(entries)
    for i, box in enumerate(entries):
        if i == root_index:
            continue
        best, best_vol = root_index, np.inf
        for j, other in enumerate(entries):
            if j in (i, root_index):
                continue
            if contains(other, box) and not contains(box, other):
                vol = volume_key(other)
                if vol < best_vol:
                    best, best_vol = j, vol
        parents[i] = best
    low, high, reps = (np.array(col) for col in zip(*entries))
    return LaminarForest(low, high, reps, tuple(parents), root_index, pts, alias)


def reference_assignment_reps(forest: LaminarForest, points: np.ndarray) -> np.ndarray:
    """Smallest-box representative per point by walking parent chains: the
    deepest containing box (closed lower, open upper faces) wins, ties to
    the lowest index."""
    def depth(i: int) -> int:
        p = forest.parents[i]
        return 0 if p is None else 1 + depth(p)

    reps = np.full(len(points), -1, dtype=np.int64)
    for idx in sorted(range(forest.size), key=lambda i: -depth(i)):
        inside = (forest.low[idx] <= points) & (points < forest.high[idx])
        take = np.all(inside, axis=1) & (reps < 0)
        reps[take] = forest.rep[idx]
    return reps


def random_acyclic_tables(rng: np.random.Generator, max_tables: int = 5,
                          max_rows: int = 8, max_features: int = 6,
                          integer_values: bool = False) -> list[Table]:
    """Random acyclic schema: features span paths of a random table tree,
    so the running-intersection property holds by construction."""
    while True:
        m = int(rng.integers(1, max_tables + 1))
        parent = [None] + [int(rng.integers(0, i)) for i in range(1, m)]
        adj = {i: set() for i in range(m)}
        for i in range(1, m):
            adj[i].add(parent[i])
            adj[parent[i]].add(i)

        def tree_path(u: int, v: int) -> set[int]:
            prev = {u: None}
            stack = [u]
            while stack:
                x = stack.pop()
                if x == v:
                    break
                for y in adj[x]:
                    if y not in prev:
                        prev[y] = x
                        stack.append(y)
            path, x = set(), v
            while x is not None:
                path.add(x)
                x = prev[x]
            return path

        d = int(rng.integers(max(1, m - 1), max_features + 1))
        spans = []
        for _ in range(d):
            u, v = int(rng.integers(m)), int(rng.integers(m))
            spans.append(tree_path(u, v))
        table_feats: dict[int, list[int]] = {i: [] for i in range(m)}
        for fidx, span in enumerate(spans):
            for node in span:
                table_feats[node].append(fidx)
        if any(not feats for feats in table_feats.values()):
            continue  # a bare table; redraw

        tables = []
        for tid in range(m):
            feats = tuple(FeatureId(f"f{j}", j) for j in sorted(table_feats[tid]))
            n = int(rng.integers(1, max_rows + 1))
            cols = []
            for f in feats:
                if len(spans[f.index]) > 1:  # join key: small domain for matches
                    cols.append(rng.integers(0, 3, size=n).astype(float))
                elif integer_values:
                    cols.append(rng.integers(0, 10, size=n).astype(float))
                else:
                    cols.append(np.round(rng.normal(0, 2, size=n), 3))
            tables.append(Table(tid, f"T{tid}", feats, np.column_stack(cols)))
        return tables


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
