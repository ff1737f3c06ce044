"""SumProd queries over a join tree.

The value computed is the semiring sum, over all rows of the (virtual)
join, of the semiring product of per-feature values q_f(x_f).  Evaluation
is one message pass over the join tree, so the join itself is never built.
Each feature is applied at exactly one owner node to avoid double-counting
features shared between tables.

:class:`JoinEvaluator` is the one evaluator the pipeline runs, built once
per stage and taken by every sampler of the stage.  It carries cost pairs
and sparse squared-distance histograms as numpy arrays, and it fixes the
one table order (``walk``) both samplers draw join rows in.
:meth:`JoinEvaluator.costpair_walk` is the one cost/count pass: the join
count, the surrogate cost and every k-means++ stage weight are read off
it, and k-means++ candidates are drawn from those weights one table at a
time, every draw of a batch at once
(:meth:`relkmeans.sampling.StageSampler.sample_batch`).
:meth:`JoinEvaluator.distance_pass` is the one distance pass: ball counts
are read off it, and in-ball draws walk its merges top-down
(:meth:`DistancePass.draw`).  The generic dict engine
(:func:`eval_sumprod`, :func:`eval_sumprod_grouped`) takes any carrier one
row at a time; it is the reference the evaluator is tested against, not a
pipeline path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .boxes import in_boxes
from .relational import JoinTree, Table


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CostPair:
    """Carrier tracking (aggregate cost, count) through a SumProd query."""

    a: float
    b: float

    def __add__(self, other: "CostPair") -> "CostPair":
        return CostPair(self.a + other.a, self.b + other.b)

    def __mul__(self, other: "CostPair") -> "CostPair":
        return CostPair(self.a * other.b + other.a * self.b, self.b * other.b)


COSTPAIR_ZERO = CostPair(0.0, 0.0)
COSTPAIR_ONE = CostPair(0.0, 1.0)


@dataclass(frozen=True)
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


def default_ownership(tree: JoinTree, tables: list[Table]) -> dict[str, int]:
    """Assign each feature to the lowest table id containing it."""
    owner: dict[str, int] = {}
    for t in tables:
        for f in t.features:
            owner.setdefault(f.name, t.id)
    return owner


def _node_value(table: Table, row: int, spec: SemiringSpec,
                owner: Mapping[str, int]) -> Any:
    val = spec.one
    for pos, f in enumerate(table.features):
        if owner[f.name] == table.id:
            val = spec.times(val, spec.feature_map[f.name](table.rows[row, pos]))
    return val


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
    order = tree.rooted_order(group)

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


def _merge(ids: np.ndarray, keys: np.ndarray, counts: np.ndarray,
           ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], "_Constituents"]:
    """Sum the counts of equal (id, key) pairs; the result is sorted by id,
    then key.  Also returns which input entries each result entry merged.

    Input already in (id, key) order, as every rounding merge's is (the
    rounding is monotone), skips the sort: the stable sort would return it
    unchanged."""
    step = (ids[1:] > ids[:-1]) | ((ids[1:] == ids[:-1]) & (keys[1:] >= keys[:-1]))
    if step.all():
        order = np.arange(ids.size)
    else:
        order = np.lexsort((keys, ids))
        ids, keys, counts = ids[order], keys[order], counts[order]
    new = np.ones(ids.size, dtype=bool)
    new[1:] = (ids[1:] != ids[:-1]) | (keys[1:] != keys[:-1])
    into = np.cumsum(new) - 1
    merged = np.bincount(into, weights=counts)
    return (ids[new], keys[new], merged), _Constituents.of(order, into, counts)


@dataclass(frozen=True, eq=False)
class _Constituents:
    """The entries one merge summed into each merged entry, for drawing one
    constituent per merged entry in proportion to its count.

    ``source`` lists the constituents grouped by merged entry.  ``bound`` is
    the merged entry's index plus the constituent's cumulative share of its
    entry, so a uniform u in [0, 1) picks by one ``searchsorted`` for every
    merged entry at once, and shares are normalized per merged entry: a
    constituent of count 1 next to entries of count 1e21 keeps its share.
    """

    source: np.ndarray
    bound: np.ndarray
    last: np.ndarray  # position of each merged entry's last constituent

    @classmethod
    def of(cls, source: np.ndarray, into: np.ndarray,
           weights: np.ndarray) -> "_Constituents":
        """``into`` (non-decreasing) names the merged entry of each
        constituent, ``weights`` its positive count."""
        share = weights / np.bincount(into, weights=weights)[into]
        cum = np.cumsum(share)
        last = np.cumsum(np.bincount(into)) - 1
        before = np.append(0.0, cum[last[:-1]])
        # clipped at 1, no bound reaches into the next merged entry's range
        bound = into + np.minimum(cum - before[into], 1.0)
        bound[last] = np.arange(1, last.size + 1)
        return cls(source, bound, last)

    def pick(self, merged: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One constituent of each entry in ``merged``, drawn in proportion
        to count, from one ``rng.random`` call."""
        pos = np.searchsorted(self.bound, merged + rng.random(merged.size),
                              side="right")
        return self.source[np.minimum(pos, self.last[merged])]


def _convolve(hist: tuple[np.ndarray, np.ndarray, np.ndarray],
              ids_par: np.ndarray, msg: tuple[np.ndarray, np.ndarray, np.ndarray],
              n_keys: int) -> tuple[np.ndarray, ...]:
    """Pair every (row, key, count) entry with every message entry under the
    row's separator key: keys add, counts multiply.  Rows whose separator
    key has no message entry drop out.  Returns (rows, keys, counts) plus,
    per output entry, its ``hist`` entry and its message entry."""
    rows, keys, counts = hist
    msg_ids, msg_keys, msg_counts = msg  # sorted by separator key id
    lens = np.bincount(msg_ids, minlength=n_keys)
    first = np.cumsum(lens) - lens
    sep = ids_par[rows]
    reps = lens[sep]
    src = np.repeat(np.arange(rows.size), reps)
    pick = np.repeat(first[sep] - (np.cumsum(reps) - reps), reps) + np.arange(src.size)
    return (rows[src], keys[src] + msg_keys[pick], counts[src] * msg_counts[pick],
            src, pick)


@dataclass(frozen=True, eq=False)
class _Convolution:
    """One child merged into its parent's histogram: per entry of the
    convolution, the parent entry before it (``src``) and the child's
    message entry (``msg``); ``constituents`` groups them by merged entry."""

    child: int
    constituents: _Constituents
    src: np.ndarray
    msg: np.ndarray


@dataclass(frozen=True, eq=False)
class DistancePass:
    """What :meth:`JoinEvaluator.distance_pass` keeps for one center.

    ``hist[v]`` is table v's histogram (rows, keys, counts), sorted by row,
    then key: ``counts[i]`` join rows of v's subtree (the tree rooted at the
    walk's first table) extend row ``rows[i]`` of v at subtree key
    ``keys[i]``.  The provenance of every merge that built it is kept:
    ``convolutions[v]`` lists v's child merges oldest first,
    ``rounding[v]`` is v's rounding merge (absent in exact mode) and
    ``message[v]`` the merge of v's entries into the message v sends its
    parent.
    """

    walk: tuple[int, ...]
    hist: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    convolutions: dict[int, list[_Convolution]]
    rounding: dict[int, _Constituents]
    message: dict[int, _Constituents]

    @property
    def root(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The histogram of the walk's first table: the whole join."""
        return self.hist[self.walk[0]]

    @cached_property
    def _root_by_key(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root entries in key order: (entry, key, running count)."""
        _, keys, counts = self.root
        order = np.argsort(keys, kind="stable")
        return order, keys[order], np.cumsum(counts[order])

    def draw(self, thresholds: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
        """One join row per entry of ``thresholds``, drawn top-down with
        probability proportional to its count among the join rows whose root
        key is at most that threshold; at least one root key must be.

        Root entries are picked in proportion to their counts: the entries
        under a threshold are a prefix of the key order, so a draw scales a
        uniform u in [0, 1) by its prefix's running count and finds the
        entry by one search over the running counts, for every draw at once.
        A prefix's running counts are those of its entries alone, so each
        threshold's shares are normalized over its own entries.  Then, table
        by table in walk order, each merge is undone newest first: the
        rounding merge, then the child merges, each picking one constituent
        per draw in proportion to its pre-merge count.  A child merge's
        constituent names the child's message entry, and that entry picks
        the child's own entry.  The probabilities telescope, so every join
        row under a draw's threshold is equally likely.  One ``rng.random``
        call per merge.  Returns (draws, m) row indices by table id.
        """
        order, keys, cum = self._root_by_key
        last = np.searchsorted(keys, thresholds, side="right") - 1
        pos = np.searchsorted(cum, rng.random(last.size) * cum[last], side="right")
        entry = {self.walk[0]: order[np.minimum(pos, last)]}
        prov = np.empty((last.size, len(self.walk)), dtype=np.int64)
        for v in self.walk:
            e = entry.pop(v)
            if v in self.rounding:
                e = self.rounding[v].pick(e, rng)
            for conv in reversed(self.convolutions[v]):
                c = conv.constituents.pick(e, rng)
                e = conv.src[c]
                entry[conv.child] = self.message[conv.child].pick(conv.msg[c], rng)
            prov[:, v] = e  # a table's entries before any merge are its rows
        return prov


@dataclass(frozen=True, eq=False)
class WalkMessages:
    """What :meth:`JoinEvaluator.costpair_walk` keeps for a stack of T terms.

    Per table v, arrays of shape (T, rows of v): ``owned[v]``, each row's
    squared distance to the term's target over the features v owns;
    ``masks[v]``, the term's row mask; ``cost[v]`` and ``count[v]``, the
    (cost, count) pair of the join rows of v's subtree (the tree rooted at
    the walk's first table) that extend each row.  Per table other than the
    first, arrays of shape (T, separator keys): ``msg_cost[v]`` and
    ``msg_count[v]``, the message v sends its walk parent.
    """

    owned: dict[int, np.ndarray]
    masks: dict[int, np.ndarray]
    cost: dict[int, np.ndarray]
    count: dict[int, np.ndarray]
    msg_cost: dict[int, np.ndarray]
    msg_count: dict[int, np.ndarray]


class JoinEvaluator:
    """Vectorized cost-pair and distance-histogram passes against one
    (tree, tables) pair.

    Separator keys are factorized once per edge; every pass after that is
    masked bincount aggregation, so a cost-pair pass costs O(terms * total
    rows) and a distance pass O(total rows) times the histogram sizes.  Key
    comparison is exact (values come from input files, never from
    arithmetic), with -0.0 equal to 0.0.

    Counts are float64 throughout: exact below 2**53 join rows and never
    overflowing beyond.  Every count is a sum or product of non-negative
    floats, so past 2**53 only the relative error grows, by at most one
    float64 rounding per operation (test_ballcount's 40**13-row star is off
    by under 1e-15).

    Samplers visit the tables in one fixed order, ``walk``: table 0 first,
    then repeatedly the smallest-id unvisited table adjacent in the join
    tree to a visited one.  It equals table-id order whenever that order is
    connected.  ``walk_parent[v]`` is v's one visited neighbour when v is
    reached (None for table 0), i.e. its parent in the tree rooted at 0.
    """

    def __init__(self, tree: JoinTree, tables: list[Table]):
        self.tree = tree
        self.tables = tables
        self.owner = default_ownership(tree, tables)
        self.n_features = len({f.name for t in tables for f in t.features})
        self._edge_keys: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int]] = {}
        # owned column positions per node, plus feature index for box
        # lookups and for gathering drawn rows into points
        self._owned: dict[int, list[tuple[int, int]]] = {}
        for t in tables:
            self._owned[t.id] = [
                (pos, f.index) for pos, f in enumerate(t.features)
                if self.owner[f.name] == t.id
            ]
        self._owned_dists: dict[tuple[int, bytes], np.ndarray] = {}
        # every pass runs upward in one (node, parent) order rooted at table 0
        self._up = tree.rooted_order(0)
        self.walk_parent: dict[int, int | None] = dict(self._up)
        adj = tree.adjacency()
        walk = [0]
        while len(walk) < len(tables):
            walk.append(min(u for w in walk for u in adj[w] if u not in walk))
        self.walk: tuple[int, ...] = tuple(walk)

    def edge_keys(self, child: int, parent: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(child row key ids, parent row key ids, number of keys) for an edge."""
        edge = (min(child, parent), max(child, parent))
        if edge not in self._edge_keys:
            sep = self.tree.edge_separator(*edge)
            ta, tb = self.tables[edge[0]], self.tables[edge[1]]
            cols = [t.rows[:, [t.feature_names().index(s) for s in sep]]
                    for t in (ta, tb)]
            uniq, ids = np.unique(np.vstack(cols), axis=0, return_inverse=True)
            ids = ids.reshape(-1)
            self._edge_keys[edge] = (ids[:ta.n_rows], ids[ta.n_rows:], len(uniq))
        ids_a, ids_b, n = self._edge_keys[edge]
        if child == min(child, parent):
            return ids_a, ids_b, n
        return ids_b, ids_a, n

    def _owned_sq_dist(self, t: Table, target: np.ndarray) -> np.ndarray:
        """Per row, the squared distance to ``target`` over the features the
        table owns, summed from 0.0 in table-feature order.  Memoized per
        (table, target); the array is read-only."""
        key = (t.id, np.asarray(target, dtype=np.float64).tobytes())
        if key not in self._owned_dists:
            d = np.zeros(t.n_rows)
            for pos, fidx in self._owned[t.id]:
                d += (t.rows[:, pos] - target[fidx]) ** 2
            d.flags.writeable = False
            self._owned_dists[key] = d
        return self._owned_dists[key]

    def count_scalar(self) -> float:
        """Number of join rows: the count component of one whole-space
        :meth:`costpair_walk` term, summed over the walk's first table."""
        up = self.costpair_walk(np.zeros(self.n_features))
        return float(up.count[self.walk[0]].sum())

    def costpair_walk(self, targets: np.ndarray,
                      masks: list[np.ndarray] | None = None) -> WalkMessages:
        """One upward cost-pair pass, rooted at the walk's first table, for a
        stack of T terms at once.  Term t sums squared distances to
        ``targets[t]`` over the join rows whose row in every table v has
        ``masks[v][t]`` set (``masks[v]`` has shape (T, rows of v); None
        keeps every row).

        Every table's subtree pairs and every edge's messages are kept, so
        the stage weights of any prefix of the walk are read off them
        without another pass.  Memory: O(T * total rows) floats.
        """
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        n_terms = targets.shape[0]
        owned, active, cost, count = {}, {}, {}, {}
        for t in self.tables:
            owned[t.id] = np.stack([self._owned_sq_dist(t, y) for y in targets])
            active[t.id] = (masks[t.id] if masks is not None
                            else np.ones((n_terms, t.n_rows), dtype=bool))
            count[t.id] = active[t.id].astype(np.float64)
            cost[t.id] = owned[t.id] * count[t.id]
        msg_cost, msg_count = {}, {}
        for node, par in self._up:
            if par is None:
                break
            ids_child, ids_par, n = self.edge_keys(node, par)
            # one bincount over (term, key) bins: bin t*n + key
            bins = (np.arange(n_terms)[:, None] * n + ids_child).ravel()
            ma, mb = (np.bincount(bins, weights=v[node].ravel(),
                                  minlength=n_terms * n).reshape(n_terms, n)
                      for v in (cost, count))
            msg_cost[node], msg_count[node] = ma, mb
            ma, mb = ma[:, ids_par], mb[:, ids_par]
            cost[par], count[par] = cost[par] * mb + ma * count[par], count[par] * mb
        return WalkMessages(owned, active, cost, count, msg_cost, msg_count)

    def distance_pass(self, center: np.ndarray,
                      round_up: Callable[[np.ndarray], np.ndarray] | None = None,
                      ) -> DistancePass:
        """One upward pass of sparse squared-distance histograms to
        ``center``, rooted at the walk's first table (see
        :class:`DistancePass`).  The radius does not enter it, so one pass
        serves every ball around the center.

        A table's keys start as its rows' owned squared distances; each
        child's message is then convolved in (keys add, counts multiply), in
        the order the rooted order lists the children, and equal (row, key)
        pairs are merged after each child.  ``round_up``, when given, rounds
        each table's keys once, after its last child.  A message is the
        union of the table's entries per separator key.
        """
        hist = {t.id: (np.arange(t.n_rows), self._owned_sq_dist(t, center),
                       np.ones(t.n_rows)) for t in self.tables}
        convolutions: dict[int, list[_Convolution]] = {t.id: [] for t in self.tables}
        rounding, message = {}, {}
        for node, par in self._up:
            if round_up is not None:
                rows, keys, counts = hist[node]
                hist[node], rounding[node] = _merge(rows, round_up(keys), counts)
            if par is None:
                break
            rows, keys, counts = hist[node]
            ids_child, ids_par, n = self.edge_keys(node, par)
            msg, message[node] = _merge(ids_child[rows], keys, counts)
            *merged, src, pick = _convolve(hist[par], ids_par, msg, n)
            hist[par], cons = _merge(*merged)
            convolutions[par].append(_Convolution(node, cons, src, pick))
        return DistancePass(self.walk, hist, convolutions, rounding, message)

    def masks_for_box(self, low: np.ndarray, high: np.ndarray) -> list[np.ndarray]:
        """Per table, the (boxes, rows) mask of the rows inside each box of
        the (boxes, features) ``low``/``high`` arrays on the features the
        table holds (:func:`relkmeans.boxes.in_boxes`).  The join of the
        tables masked by box b is exactly the set of join rows in box b."""
        masks = []
        for t in self.tables:
            idx = [f.index for f in t.features]
            masks.append(in_boxes(t.rows, low[:, idx], high[:, idx]).T)
        return masks

    def gather(self, prov: np.ndarray) -> np.ndarray:
        """Join points, positional by feature index, of the rows chosen per
        table in ``prov``, by table id."""
        pts = np.empty((prov.shape[0], self.n_features))
        for t in self.tables:
            for pos, fidx in self._owned[t.id]:
                pts[:, fidx] = t.rows[prov[:, t.id], pos]
        return pts
