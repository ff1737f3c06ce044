"""Shared fixtures: the two-table path fixture, an independent brute-force
join, the loop construction of the box forest, the reference distance pass,
a random acyclic schema generator, and two fixed shapes: a star of tied
codes and the benchmark's depth-2 snowflake."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from relkmeans import FeatureId, JoinEvaluator, Table, gyo_reduce, tables_to_schema
from relkmeans.boxes import LaminarForest
from relkmeans.relational import SamplingGaveUp
from relkmeans.sumprod import _convolve


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


def reference_merge(ids: np.ndarray, keys: np.ndarray, counts: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the counts of equal (id, key) pairs by one float lexsort; the
    result is sorted by id, then key."""
    order = np.lexsort((keys, ids))
    ids, keys, counts = ids[order], keys[order], counts[order]
    new = np.ones(ids.size, dtype=bool)
    new[1:] = (ids[1:] != ids[:-1]) | (keys[1:] != keys[:-1])
    into = np.cumsum(new) - 1
    return ids[new], keys[new], np.bincount(into, weights=counts)


def reference_round_up(delta: float, v_min: float, values: np.ndarray) -> np.ndarray:
    """Round squared distances up onto the (1+delta) grid from v_min, one
    float power per grid index; zero stays in its own bucket."""
    out = np.zeros(values.shape)
    pos = values > 0.0
    steps = np.ceil(np.log(values[pos] / v_min) / math.log1p(delta) - 1e-9)
    steps, inv = np.unique(np.maximum(steps, 0.0), return_inverse=True)
    grid = [v_min * (1.0 + delta) ** int(i) for i in steps]
    out[pos] = np.array(grid)[inv]
    return out


def reference_distance_pass(ev: JoinEvaluator, center: np.ndarray,
                            delta: float | None = None, v_min: float = 1.0,
                            ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The distance pass without integer codes, histograms only, tables in
    reversed walk order.  A table starts as its rows at their squared
    distance to ``center`` over the features it owns (those no lower table
    id holds), summed from 0.0 in table-feature order.  A table with one
    walk child convolves its rows with the child's message.  One with
    walk children c1..ck, k >= 2, combines them two at a time: for each
    j >= 2, one entry per distinct tuple of its rows' separator values
    toward c1..cj, at key 0, is convolved with the combine through c(j-1)
    (c1's message for j = 2), then with cj's message, and every
    combine's keys are rounded up (with ``delta``) and merged by (tuple,
    key); each row is then convolved with its tuple's combine through ck.
    Last, a table's keys are rounded up (with ``delta``) and its equal
    (row, key) pairs merged, and its message merges them by separator key.
    Returns each table's merged (rows, keys, counts).
    :meth:`relkmeans.JoinEvaluator.distance_pass` must match it byte for
    byte below 2**53 join rows."""
    owner = {}
    for t in sorted(ev.tables, key=lambda t: t.id):
        for f in t.features:
            owner.setdefault(f.name, t.id)

    def rounded_merge(ids, keys, counts):
        if delta is not None:
            keys = reference_round_up(delta, v_min, keys)
        return reference_merge(ids, keys, counts)

    hist, msg = {}, {}
    for v in reversed(ev.walk):
        t = ev.tables[v]
        keys = np.zeros(t.n_rows)
        for pos, f in enumerate(t.features):
            if owner[f.name] == t.id:
                keys += (t.rows[:, pos] - center[f.index]) ** 2
        entries = (np.arange(t.n_rows), keys, np.ones(t.n_rows))
        kids = ev.walk_children[v]
        if kids:
            combined, (_, ids, n) = msg[kids[0]], ev.edge_keys(kids[0])
            names = t.feature_names()
            for j in range(1, len(kids)):
                cols = [names.index(s) for c in kids[:j + 1]
                        for s in ev.tree.edge_separator(c, v)]
                _, first, tuples = np.unique(t.rows[:, cols], axis=0,
                                             return_index=True,
                                             return_inverse=True)
                size = first.size
                tup = (np.arange(size), np.zeros(size), np.ones(size))
                *tup, _, _ = _convolve(tup, ids[first], combined, n)
                _, ids_c, n_c = ev.edge_keys(kids[j])
                *tup, _, _ = _convolve(tup, ids_c[first], msg[kids[j]], n_c)
                combined, ids, n = rounded_merge(*tup), tuples.reshape(-1), size
            *entries, _, _ = _convolve(entries, ids, combined, n)
        hist[v] = rows, keys, counts = rounded_merge(*entries)
        if ev.walk_parent[v] is not None:
            msg[v] = reference_merge(ev.edge_keys(v)[0][rows], keys, counts)
    return hist


def reference_profile(root: tuple[np.ndarray, np.ndarray, np.ndarray],
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The ball curve of a root histogram (rows, keys, counts) by a sort of
    its keys: (ascending distinct keys, cumulative counts).  A pass's curve
    (``dists.curve``, a ball sampler's ``sq_radii`` and ``cum_counts``)
    must match it byte for byte below 2**53 join rows."""
    _, keys, counts = root
    keys, inv = np.unique(keys, return_inverse=True)
    counts = np.bincount(inv, weights=counts, minlength=keys.size)
    return keys, np.cumsum(counts)


def tied_star(n_spokes=10, hub_rows=8, spoke_rows=6, noise=0.0, seed=0):
    """Hub(k1..kn, x0) with n spokes Si(ki, xi) over integer codes: under
    each key a spoke's message holds the keys 0, 1 and 4, so a hub row's
    sums repeat from its second spoke on.  ``noise`` > 0 jitters the
    spokes' values, which unties them."""
    rng = np.random.default_rng(seed)
    keys = [FeatureId(f"k{i}", i) for i in range(n_spokes)]
    hub = np.column_stack([rng.integers(0, 2, size=(hub_rows, n_spokes)),
                           np.zeros(hub_rows)]).astype(float)
    return [Table(0, "Hub", (*keys, FeatureId("x0", n_spokes)), hub)] + [
        Table(i + 1, f"S{i}", (keys[i], FeatureId(f"x{i + 1}", n_spokes + 1 + i)),
              np.column_stack([np.arange(spoke_rows) % 2,
                               np.arange(spoke_rows) // 2
                               + noise * rng.normal(size=spoke_rows)]))
        for i in range(n_spokes)]


def snowflake_tables(rows_per_key: list[int], seed: int = 0) -> list[Table]:
    """The depth-2 snowflake of the snowflake-wide workload,
    T0(h,x0) - T1(h,g,x1) - T2(g,x2) and T0 - T3(h,u,x3) - T4(u,x4): hub key
    i has one g and one u value and ``rows_per_key[i]`` rows in every
    table, so it extends to rows_per_key[i]^5 join rows.  Hub key i lies in
    cluster i % 3, its keys and features drawn around 60 * (i % 3), as in
    ``perfbench/workloads.snowflake_wide``."""
    rng = np.random.default_rng(seed)
    h, x0, g, x1, x2, u, x3, x4 = (FeatureId(n, i) for i, n in enumerate(
        ("h", "x0", "g", "x1", "x2", "u", "x3", "x4")))
    cols = [[] for _ in range(5)]
    for i, n in enumerate(rows_per_key):
        mu = 60.0 * (i % 3)
        hv, gv, uv = mu + rng.normal(size=3)
        x = mu + rng.normal(size=(5, n))
        for t, keys in enumerate(((hv,), (hv, gv), (gv,), (hv, uv), (uv,))):
            cols[t].append(np.column_stack([np.full((n, len(keys)), keys), x[t]]))
    schema = ((h, x0), (h, g, x1), (g, x2), (h, u, x3), (u, x4))
    return [Table(t, f"T{t}", feats, np.vstack(cols[t]))
            for t, feats in enumerate(schema)]


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
