"""Brute-force ground truth: materialize small joins, exact distributions,
exact nearest-center counts and costs.  Guarded so tests cannot accidentally
explode; everything here is reference-quality, not performance code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import sq_dists
from .relational import CyclicVerdict, JoinTree, Table, gyo_reduce, tables_to_schema
from .sumprod import JoinEvaluator


class MaterializationGuard(Exception):
    """Join size exceeds the configured row cap."""


DEFAULT_GUARD = 100_000


@dataclass(frozen=True, eq=False)
class MaterializedJoin:
    """The design matrix as an explicit (N, d) array, feature-index order."""

    rows: np.ndarray
    guard: int

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def materialize(tables: list[Table], guard: int = DEFAULT_GUARD,
                tree: JoinTree | None = None) -> MaterializedJoin:
    """Join all tables exactly (Yannakakis style: semijoin reduce, then join
    bottom-up along the tree).  The size is checked with a counting query
    before any row is built.
    """
    if not tables:
        return MaterializedJoin(np.empty((0, 0)), guard)
    if tree is None:
        verdict = gyo_reduce(tables_to_schema(tables))
        if isinstance(verdict, CyclicVerdict):
            raise ValueError(f"cannot materialize a cyclic schema: {verdict.describe()}")
        tree = verdict

    d = len({f.name for t in tables for f in t.features})
    if all(t.n_rows == 0 for t in tables):
        return MaterializedJoin(np.empty((0, d)), guard)

    ev = JoinEvaluator(tree, tables)
    n = ev.count_scalar()
    if n > guard:
        raise MaterializationGuard(f"join has {n} rows, guard is {guard}")
    if n == 0:
        return MaterializedJoin(np.empty((0, d)), guard)

    order = tree.rooted_order(tree.root)
    keep = {t.id: np.ones(t.n_rows, dtype=bool) for t in tables}

    def sep_keys(tid: int, sep: tuple[str, ...]) -> list[tuple]:
        t = tables[tid]
        names = t.feature_names()
        cols = [t.rows[:, names.index(s)] for s in sep]
        return [tuple(c[i] for c in cols) for i in range(t.n_rows)]

    # upward semijoin: parent keeps rows matched by every (already pruned) child
    for node, par in order:
        if par is None:
            continue
        sep = tree.edge_separator(node, par)
        child_keys = {k for k, ok in zip(sep_keys(node, sep), keep[node]) if ok}
        pk = sep_keys(par, sep)
        keep[par] &= np.array([k in child_keys for k in pk], dtype=bool)
    # downward semijoin: children keep rows matched by the pruned parent
    for node, par in reversed(order):
        if par is None:
            continue
        sep = tree.edge_separator(node, par)
        par_keys = {k for k, ok in zip(sep_keys(par, sep), keep[par]) if ok}
        ck = sep_keys(node, sep)
        keep[node] &= np.array([k in par_keys for k in ck], dtype=bool)

    # bottom-up join; partials are dicts feature -> column list
    partials: dict[int, tuple[list[str], list[tuple]]] = {}
    for t in tables:
        names = list(t.feature_names())
        rows = [tuple(t.rows[i]) for i in range(t.n_rows) if keep[t.id][i]]
        partials[t.id] = (names, rows)

    for node, par in order:
        if par is None:
            break
        sep = tree.edge_separator(node, par)
        cnames, crows = partials[node]
        pnames, prows = partials[par]
        cpos = [cnames.index(s) for s in sep]
        ppos = [pnames.index(s) for s in sep]
        extra = [i for i, name in enumerate(cnames) if name not in pnames]
        buckets: dict[tuple, list[tuple]] = {}
        for row in crows:
            buckets.setdefault(tuple(row[i] for i in cpos), []).append(
                tuple(row[i] for i in extra))
        joined = []
        for prow in prows:
            key = tuple(prow[i] for i in ppos)
            for tail in buckets.get(key, ()):
                joined.append(prow + tail)
                if len(joined) > guard:
                    raise MaterializationGuard(
                        f"intermediate join exceeded guard {guard}")
        partials[par] = (pnames + [cnames[i] for i in extra], joined)

    names, rows = partials[tree.root]
    feature_index = {f.name: f.index for t in tables for f in t.features}
    perm = sorted(range(len(names)), key=lambda i: feature_index[names[i]])
    data = np.array([[row[i] for i in perm] for row in rows], dtype=np.float64)
    data = data.reshape(len(rows), d)
    return MaterializedJoin(data, guard)


def min_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest center."""
    return np.min(sq_dists(points, centers), axis=1)


def exact_kmeanspp_distribution(join: MaterializedJoin,
                                centers: list[np.ndarray]) -> np.ndarray:
    """Per-row probability of being the next center; uniform when no centers."""
    n = join.n_rows
    if n == 0:
        raise ValueError("empty join has no sampling distribution")
    if not centers:
        return np.full(n, 1.0 / n)
    costs = min_sq_dist(join.rows, np.asarray(centers, dtype=np.float64))
    total = costs.sum()
    if total == 0.0:
        raise ValueError("all join points coincide with existing centers")
    return costs / total


def exact_weights(join: MaterializedJoin, centers: list[np.ndarray]) -> np.ndarray:
    """Number of join rows whose nearest center is each c_i (ties to the
    lowest center index)."""
    cs = np.asarray(centers, dtype=np.float64)
    nearest = np.argmin(sq_dists(join.rows, cs), axis=1)  # ties: first minimum
    return np.bincount(nearest, minlength=len(centers)).astype(np.int64)


def exact_cost(join: MaterializedJoin, centers: list[np.ndarray] | np.ndarray) -> float:
    """Exact k-means objective of the given centers on the full join."""
    cs = np.asarray(centers, dtype=np.float64)
    if join.n_rows == 0:
        return 0.0
    return float(min_sq_dist(join.rows, cs).sum())
