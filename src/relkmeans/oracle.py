"""Brute-force ground truth: materialize small joins, exact distributions,
exact nearest-center counts and costs.  Guarded so tests cannot accidentally
explode; everything here is reference-quality, not performance code.

The generic dict engine (:func:`eval_sumprod`, :func:`eval_sumprod_grouped`)
evaluates a SumProd query over any semiring carrier (:class:`SemiringSpec`)
one row at a time, with dicts keyed by separator values; it is the reference
:class:`relkmeans.sumprod.JoinEvaluator` is tested against, not a pipeline
path.

:func:`tables_to_schema` and :func:`rooted_order` serve these references
and the tests: the pipeline reads a schema from its document and walks the
tree in :class:`~relkmeans.sumprod.JoinEvaluator`'s own order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .boxes import sq_dists
from .relational import (DEFAULT_GUARD, CyclicVerdict, FeatureId, JoinTree,
                         MaterializationGuard, SchemaError, SchemaGraph, Table,
                         gyo_reduce)
from .sumprod import (COSTPAIR_ONE, COSTPAIR_ZERO, CostPair, JoinEvaluator,
                      default_ownership)


@dataclass(eq=False, repr=False)
class SemiringSpec:
    """A commutative semiring plus the per-feature embedding q_f.

    ``feature_map`` maps feature name to a function from the real feature
    value into the carrier.
    """

    zero: Any
    one: Any
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    feature_map: Mapping[str, Callable[[float], Any]]


@dataclass(eq=False, repr=False)
class GroupedResult:
    """Per-row query values for one table, aligned with its row order."""

    table_id: int
    values: tuple

    def __len__(self) -> int:
        return len(self.values)


def counting_semiring(features: list[str]) -> SemiringSpec:
    """q_f = 1 everywhere; the query value is the number of join rows."""
    return SemiringSpec(
        zero=0, one=1,
        plus=lambda x, y: x + y,
        times=lambda x, y: x * y,
        feature_map={f: (lambda v: 1) for f in features},
    )


def costpair_semiring(features: list[str], target: Mapping[str, float]) -> SemiringSpec:
    """q_f(v) = ((v - y_f)^2, 1); the a-component sums squared distances to y."""
    def q(name: str) -> Callable[[float], CostPair]:
        yf = float(target[name])
        return lambda v: CostPair((v - yf) ** 2, 1.0)

    return SemiringSpec(
        zero=COSTPAIR_ZERO, one=COSTPAIR_ONE,
        plus=lambda x, y: x + y,
        times=lambda x, y: x * y,
        feature_map={f: q(f) for f in features},
    )


def _node_value(table: Table, row: int, spec: SemiringSpec,
                owner: Mapping[str, int]) -> Any:
    val = spec.one
    for pos, f in enumerate(table.features):
        if owner[f.name] == table.id:
            val = spec.times(val, spec.feature_map[f.name](table.rows[row, pos]))
    return val


def tables_to_schema(tables: list[Table]) -> SchemaGraph:
    """Rebuild the hypergraph of an in-memory table list."""
    seen: dict[str, FeatureId] = {}
    for t in tables:
        for f in t.features:
            if f.name in seen and seen[f.name].index != f.index:
                raise SchemaError(f"feature {f.name!r} has inconsistent indices")
            seen.setdefault(f.name, f)
    vertices = tuple(sorted(seen.values(), key=lambda f: f.index))
    return SchemaGraph(vertices, tuple(frozenset(t.feature_names()) for t in tables))


def rooted_order(tree: JoinTree, root: int) -> list[tuple[int, int | None]]:
    """Post-order (children before parents) of the tree's nodes for the
    given root.

    Returns (node, parent) pairs; the root appears last with parent None.
    """
    adj = tree.adjacency()
    seen = {root}
    stack: list[tuple[int, int | None]] = [(root, None)]
    pre: list[tuple[int, int | None]] = []
    while stack:
        node, par = stack.pop()
        pre.append((node, par))
        for nbr in sorted(adj[node]):
            if nbr not in seen:
                seen.add(nbr)
                stack.append((nbr, node))
    return list(reversed(pre))


def _sep_key(table: Table, row: int, separator: tuple[str, ...]) -> tuple:
    names = table.feature_names()
    return tuple(table.rows[row, names.index(s)] for s in separator)


def eval_sumprod_grouped(tree: JoinTree, tables: list[Table], spec: SemiringSpec,
                         group: int,
                         ownership: Mapping[str, int] | None = None) -> GroupedResult:
    """Grouped SumProd: entry r is the query value with the group table
    pinned to its single row r.  One upward pass rooted at the group table.
    """
    owner = dict(ownership) if ownership is not None else default_ownership(tree, tables)
    order = rooted_order(tree, group)

    # messages[node] = dict: separator key -> carrier, sent to its parent
    messages: dict[int, dict[tuple, Any]] = {}
    sep_of: dict[int, tuple[str, ...]] = {}
    children: dict[int, list[int]] = {i: [] for i in range(tree.n_nodes)}
    for node, par in order:
        if par is not None:
            children[par].append(node)
            sep_of[node] = tree.edge_separator(node, par)

    values_at: dict[int, list[Any]] = {}
    for node, par in order:
        table = tables[node]
        vals = []
        for row in range(table.n_rows):
            v = _node_value(table, row, spec, owner)
            for c in children[node]:
                incoming = messages[c].get(_sep_key(table, row, sep_of[c]))
                if incoming is None:
                    v = spec.zero
                    break
                v = spec.times(v, incoming)
            vals.append(v)
        values_at[node] = vals
        if par is not None:
            msg: dict[tuple, Any] = {}
            for row, v in enumerate(vals):
                key = _sep_key(table, row, sep_of[node])
                msg[key] = spec.plus(msg[key], v) if key in msg else v
            messages[node] = msg

    return GroupedResult(group, tuple(values_at[group]))


def eval_sumprod(tree: JoinTree, tables: list[Table], spec: SemiringSpec,
                 ownership: Mapping[str, int] | None = None) -> Any:
    """Scalar SumProd over all join rows; zero for an empty join."""
    grouped = eval_sumprod_grouped(tree, tables, spec, tree.root, ownership)
    total = spec.zero
    for v in grouped.values:
        total = spec.plus(total, v)
    return total


@dataclass(eq=False, repr=False)
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

    order = rooted_order(tree, tree.root)
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
