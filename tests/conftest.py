"""Shared fixtures: the two-table path fixture, an independent brute-force
join, and a random acyclic schema generator."""

from __future__ import annotations

import numpy as np
import pytest

from relkmeans import FeatureId, Table, gyo_reduce, tables_to_schema


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
    """Independent per-row surrogate cost: scan every forest box for the
    smallest-volume one containing the row, then square the distance to its
    representative."""
    costs = np.zeros(len(join_rows))
    for i, p in enumerate(join_rows):
        best_vol, best_rep = None, None
        for e in forest.entries:
            lo_ok = np.where(e.low_open, p > e.low, p >= e.low)
            hi_ok = np.where(e.high_open, p < e.high, p <= e.high)
            if lo_ok.all() and hi_ok.all():
                vol = float(np.prod(e.high - e.low))
                if best_vol is None or vol < best_vol:
                    best_vol, best_rep = vol, e.representative
        diff = p - forest.centers[best_rep]
        costs[i] = diff @ diff
    return costs


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
