"""SumProd queries over a join tree.

The value computed is the semiring sum, over all rows of the (virtual)
join, of the semiring product of per-feature values q_f(x_f).  Evaluation
is one message pass over the join tree, so the join itself is never built.
Each feature is applied at exactly one owner node to avoid double-counting
features shared between tables.

:class:`JoinEvaluator` is the one evaluator the pipeline runs, built once
per run and taken by every stage and every sampler.  It counts the join
once, exactly (:meth:`JoinEvaluator.count_scalar`), carries cost pairs
and sparse squared-distance histograms as numpy arrays, and it fixes the
one table order (``walk``): samplers draw join rows along it, and every
pass runs it backwards, so each table folds in its children's messages
before it sends its own.
:meth:`JoinEvaluator.costpair_walk` is the one cost/count pass, over
terms that each keep the join rows in one box, and it keeps only messages.
The surrogate cost folds the walk's first table with them
(:meth:`JoinEvaluator.fold`), and a k-means++ stage weight is the
cost-pair product of the drawn prefix's folds, each cut to the subtrees
not yet drawn, times the drawn table's fold
(:meth:`relkmeans.sampling.StageSampler.stage_weights`).
:meth:`JoinEvaluator.distance_pass` is the one distance pass: ball counts
are read off it, and in-ball draws walk its merges top-down
(:meth:`DistancePass.draw`).  Without a center it counts the join per
key, and its top-down draws are uniform join rows, the first k-means++
center among them.  A table with two or more children combines
their messages two at a time, once per tuple of child separator keys, so
a pass grows with keys and the codes it keeps, not with rows times the
product of its children's messages; every node of the pass merges once,
into its message.  The generic dict engine that the evaluator is tested
against lives in :mod:`relkmeans.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .boxes import in_boxes
from .relational import JoinTree, Table

if TYPE_CHECKING:
    from .ballcount import Bucketizer
    from .sampling import UniformStream


@dataclass(repr=False)
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


def default_ownership(tree: JoinTree, tables: list[Table]) -> dict[str, int]:
    """Assign each feature to the lowest table id containing it."""
    owner: dict[str, int] = {}
    for t in tables:
        for f in t.features:
            owner.setdefault(f.name, t.id)
    return owner


def _exact_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes of exact keys: equal keys share a code, codes follow
    key order, and ``grid[code]`` is the key."""
    grid, codes = np.unique(keys, return_inverse=True)
    return codes, grid


def _merge(ids: np.ndarray, codes: np.ndarray, counts: np.ndarray,
           ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], "_Constituents"]:
    """Sum the counts of equal (id, code) pairs of non-negative integers;
    the result is sorted by id, then code.  Also returns which input entries
    each result entry merged, in input order: the sort is stable.

    Each pair and its entry's position pack into one int64, so the stable
    order is one sort of integer values; pairs too wide to pack fall back
    to a lexsort, with the same result."""
    n = ids.size
    shift = n.bit_length()
    span = int(codes.max()) + 1 if n else 1
    new = np.ones(n, dtype=bool)
    if n == 0 or (int(ids.max()) + 1) * span << shift <= 2 ** 63:
        packed = (ids * span + codes) << shift | np.arange(n)
        packed.sort()
        order = packed & ((1 << shift) - 1)
        packed >>= shift
        np.not_equal(packed[1:], packed[:-1], out=new[1:])
    else:
        order = np.lexsort((codes, ids))
        i, c = ids[order], codes[order]
        new[1:] = (i[1:] != i[:-1]) | (c[1:] != c[:-1])
    counts = counts[order]
    into = np.cumsum(new) - 1
    merged = np.bincount(into, weights=counts)
    first = np.flatnonzero(new)
    head = order[first]
    return ((ids[head], codes[head], merged),
            _Constituents.of(order, into, counts, merged, first))


@dataclass(eq=False, repr=False)
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
    def of(cls, source: np.ndarray, into: np.ndarray, weights: np.ndarray,
           totals: np.ndarray, first: np.ndarray) -> "_Constituents":
        """``into`` (non-decreasing) names the merged entry of each
        constituent, ``weights`` its positive count, ``totals`` each merged
        entry's count and ``first`` its first constituent's position.  The
        shares' one cumsum is segmented by subtracting, per merged entry,
        the running share before its first constituent."""
        cum = np.cumsum(weights / totals[into])
        before = np.append(0.0, cum[first[1:] - 1])
        # clipped at 1, no bound reaches into the next merged entry's range
        bound = into + np.minimum(cum - before[into], 1.0)
        last = np.empty_like(first)
        last[:-1] = first[1:] - 1
        last[-1:] = source.size - 1
        bound[last] = np.arange(1, last.size + 1)
        return cls(source, bound, last)

    def pick(self, merged: np.ndarray, rng: UniformStream) -> np.ndarray:
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


@dataclass(eq=False, repr=False)
class _Convolution:
    """One child's message convolved into its parent's entries: per entry
    of the convolution, the parent entry it extends (``src``) and the
    child's message entry (``msg``)."""

    child: int
    src: np.ndarray
    msg: np.ndarray


@dataclass(eq=False, repr=False)
class DistancePass:
    """What :meth:`JoinEvaluator.distance_pass` keeps for one center.

    Its nodes are the tables, plus, for each table p with walk children
    c1..ck, k >= 2, a combine node ``~cj`` per child cj past the first:
    its entries start as one per tuple of p's separator-key ids toward
    c1..cj (``JoinEvaluator.edge_keys(~cj)``), at key 0, on a row of p,
    and its two children are ``~c(j-1)`` (c1 when j = 2), then cj.  p's
    one child is ``~ck``.  ``order`` lists the nodes top-down: the walk,
    each table followed by its combine nodes, ``~ck`` first.

    ``sent[v]`` is the message node v sends its parent, (separator key
    ids, keys, counts) sorted by id, then key: ``counts[i]`` join rows of
    v's subtree (the tree rooted at the walk's first table) carry separator
    key ``ids[i]`` and subtree key ``keys[i]``.  A combine node's separator
    key is its tuple id, and the root's is the empty one, id 0, so its
    message is the ball curve (:attr:`curve`).  ``message[v]`` is the
    provenance of v's one merge, into ``sent[v]``, ``convolutions[v]``
    lists v's child convolutions oldest first (at most one for a table,
    two for a combine node), and ``merge_entries`` counts the entries that
    entered the merges.
    """

    order: tuple[int, ...]
    sent: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]
    convolutions: dict[int, list[_Convolution]]
    message: dict[int, _Constituents]
    merge_entries: int

    @cached_property
    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(ascending distinct root keys, running counts): the ball curve,
        the profile its :class:`relkmeans.ballcount.BallSampler` holds as
        ``sq_radii`` and ``cum_counts``; every draw reads it."""
        _, keys, counts = self.sent[self.order[0]]
        return keys, np.cumsum(counts)

    def draw(self, thresholds: np.ndarray,
             rng: UniformStream) -> np.ndarray:
        """One join row per entry of ``thresholds``, drawn top-down with
        probability proportional to its count among the join rows whose root
        key is at most that threshold; at least one root key must be.

        The keys under a threshold are a prefix of the curve, so one search
        over the running counts, scaled per draw by its prefix's count,
        picks every draw's key at once.  Then every merge is undone, one
        constituent per draw in proportion to its count: the root's merge,
        then, node by node in ``order``, each child convolution newest
        first, whose entry names the child's message entry, whose merge is
        undone in turn.  The probabilities telescope, so every join row
        under a draw's threshold is equally likely.  One ``rng.random`` call
        per merge.  Returns (draws, tables) row indices by table id.
        """
        keys, cum = self.curve
        last = np.searchsorted(keys, thresholds, side="right") - 1
        pos = np.searchsorted(cum, rng.random(last.size) * cum[last], side="right")
        root = self.order[0]
        entry = {root: self.message[root].pick(np.minimum(pos, last), rng)}
        prov = np.empty((last.size, max(self.order) + 1), dtype=np.int64)
        for v in self.order:
            e = entry.pop(v)
            for conv in reversed(self.convolutions[v]):
                entry[conv.child] = self.message[conv.child].pick(conv.msg[e], rng)
                e = conv.src[e]
            if v >= 0:  # a table's entries before any convolution are its rows
                prov[:, v] = e
        return prov


@dataclass(eq=False, repr=False)
class WalkMessages:
    """What :meth:`JoinEvaluator.costpair_walk` keeps for T terms: per table
    v but the walk's first, the (T, separator keys) message v sends its walk
    parent, the (cost, count) pair of each term's in-box join rows of v's
    subtree (rooted at the walk's first table) under each key."""

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

    The join count (:meth:`count_scalar`) is an exact Python ``int`` at any
    size, computed at most once per evaluator.  Every other count is
    float64: exact below 2**53 join rows and never overflowing beyond.
    Each is a sum or product of non-negative floats, so past 2**53 only the
    relative error grows, by at most one float64 rounding per operation
    (test_ballcount's 40**13-row star is off by under 1e-15).

    Samplers visit the tables in one fixed order, ``walk``: table 0 first,
    then repeatedly the smallest-id unvisited table adjacent in the join
    tree to a visited one.  It equals table-id order whenever that order is
    connected.  ``walk_parent[v]`` is v's one visited neighbour when v is
    reached (None for table 0), i.e. its parent in the tree rooted at 0.
    ``walk_pos[v]`` is v's position in the walk, ``walk_children[u]`` the
    tables whose walk parent is u, in ascending id.  Every pass visits each
    table once, in reversed walk order: it folds in the table's children's
    messages, in that order, then sends the table's message to its walk
    parent.
    """

    def __init__(self, tree: JoinTree, tables: list[Table]):
        self.tree = tree
        self.tables = tables
        self.owner = default_ownership(tree, tables)
        self.n_features = len({f.name for t in tables for f in t.features})
        self._edge_keys: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        # owned column positions per node, plus feature index for box
        # lookups and for gathering drawn rows into points
        self._owned: dict[int, list[tuple[int, int]]] = {}
        for t in tables:
            self._owned[t.id] = [
                (pos, f.index) for pos, f in enumerate(t.features)
                if self.owner[f.name] == t.id
            ]
        adj = tree.adjacency()
        self.walk_parent: dict[int, int | None] = {0: None}
        walk = [0]
        while len(walk) < len(tables):
            v, u = min((v, u) for u in walk for v in adj[u]
                       if v not in self.walk_parent)
            walk.append(v)
            self.walk_parent[v] = u
        self.walk: tuple[int, ...] = tuple(walk)
        self.walk_pos = {v: i for i, v in enumerate(walk)}
        self.walk_children = {u: [c for c in walk if self.walk_parent[c] == u]
                              for u in walk}
        self._n_rows: int | None = None

    def edge_keys(self, child: int) -> tuple[np.ndarray, np.ndarray, int]:
        """(child row key ids, parent row key ids, number of keys) for the
        edge from ``child`` to its walk parent.  A combine node ``~c`` of
        :meth:`distance_pass` keys each row of c's walk parent by its tuple
        of separator-key ids toward c and the siblings before it: the row's
        id under the node's first child times c's key count, plus its key
        id toward c, factorized by one 1-D ``np.unique``, so ids stay below
        rows * keys."""
        if child < 0 and child not in self._edge_keys:
            prev, c = self._pass_children(child)
            _, ids, n = self.edge_keys(c)
            ids = np.unique(self.edge_keys(prev)[1] * n + ids,
                            return_inverse=True)[1]
            self._edge_keys[child] = (ids, ids, int(ids.max(initial=-1)) + 1)
        if child not in self._edge_keys:
            par = self.walk_parent[child]
            sep = self.tree.edge_separator(child, par)
            cols = [t.rows[:, [t.feature_names().index(s) for s in sep]]
                    for t in (self.tables[child], self.tables[par])]
            uniq, ids = np.unique(np.vstack(cols), axis=0, return_inverse=True)
            ids, cut = ids.reshape(-1), self.tables[child].n_rows
            self._edge_keys[child] = (ids[:cut], ids[cut:], len(uniq))
        return self._edge_keys[child]

    def _pass_children(self, node: int) -> list[int]:
        """The nodes whose messages ``node`` convolves in
        :meth:`distance_pass`, in order.  For a table: none, its one walk
        child, or, with k >= 2, the combine node of its last.  For the
        combine node ``~c`` of a table's j-th walk child c (j >= 2): the
        node holding the j - 1 children before c (the first child itself,
        or the combine node of the (j-1)-th), then c."""
        if node < 0:
            kids = self.walk_children[self.walk_parent[~node]]
            j = kids.index(~node)
            return [~kids[j - 1] if j > 1 else kids[0], ~node]
        kids = self.walk_children[node]
        return [~kids[-1]] if len(kids) > 1 else kids

    def owned_sq_dist(self, v: int, targets: np.ndarray,
                      rows: slice | np.ndarray = slice(None)) -> np.ndarray:
        """(targets, rows) array: the squared distance of each of table v's
        ``rows`` (every row by default; an index array may repeat rows) to
        each of ``targets`` (one target, or a (targets, features) stack),
        over the features v owns, summed from 0.0 in table-feature order.
        The one owned-distance helper of every pass and stage weight."""
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        cols = self.tables[v].rows[rows]
        d = np.zeros((len(targets), len(cols)))
        for pos, fidx in self._owned[v]:
            d += (cols[:, pos] - targets[:, fidx, None]) ** 2
        return d

    def count_scalar(self) -> int:
        """Number of join rows, exact at any size: one upward pass of per-row
        counts as Python ints in object arrays, summed into each message by
        separator key.  Counted at most once per evaluator."""
        if self._n_rows is None:
            msg = {}
            for v in reversed(self.walk):
                count = np.ones(self.tables[v].n_rows, dtype=object)
                for c in self.walk_children[v]:
                    count = count * msg.pop(c)[self.edge_keys(c)[1]]
                if self.walk_parent[v] is not None:
                    ids, _, n = self.edge_keys(v)
                    msg[v] = np.zeros(n, dtype=object)
                    np.add.at(msg[v], ids, count)
            self._n_rows = int(count.sum())
        return self._n_rows

    def box_mask(self, v: int, low: np.ndarray, high: np.ndarray,
                 rows: slice | np.ndarray = slice(None)) -> np.ndarray:
        """(T, rows) bool: v's ``rows`` in each term's box (:func:`in_boxes`)."""
        idx = [f.index for f in self.tables[v].features]
        return in_boxes(self.tables[v].rows[rows], low[:, idx], high[:, idx]).T

    def fold(self, v: int, targets: np.ndarray, low: np.ndarray,
             high: np.ndarray, up: WalkMessages,
             rows: slice | np.ndarray = slice(None), depth: int = 0,
             ) -> tuple[np.ndarray, np.ndarray]:
        """(cost, count), (T, rows): per term t and each of v's ``rows`` (as
        in :meth:`owned_sq_dist`), the squared distance to ``targets[t]`` of,
        and the number of, the join rows of v's subtree in term t's box that
        extend the row.  v's box mask (``low[t] <= x < high[t]``) and owned
        distances seed them, then the messages of its children past walk
        position ``depth`` are folded in: by default all of them, since a
        child comes after its parent in the walk."""
        count = self.box_mask(v, low, high, rows).astype(np.float64, order="C")
        cost = self.owned_sq_dist(v, targets, rows)
        cost *= count
        for c in self.walk_children[v]:
            if self.walk_pos[c] <= depth:
                continue
            ids_v = self.edge_keys(c)[1][rows]
            ma = up.msg_cost[c][:, ids_v] * count
            mb = up.msg_count[c][:, ids_v]
            cost *= mb
            cost += ma
            count *= mb
            del ma, mb  # at most four (T, rows) arrays are alive
        return cost, count

    def costpair_walk(self, targets: np.ndarray, low: np.ndarray,
                      high: np.ndarray) -> WalkMessages:
        """One upward cost-pair pass, rooted at the walk's first table: term t
        sums squared distances to ``targets[t]`` over the join rows in its
        box (``low``, ``high``: (T, features)), every table but the first
        folded in turn, its message kept and its arrays dropped."""
        n_terms = len(low)
        up = WalkMessages({}, {})
        for v in reversed(self.walk[1:]):
            cost, count = self.fold(v, targets, low, high, up)
            ids, _, n = self.edge_keys(v)
            # one bincount over (term, key) bins: bin t*n + key
            bins = (np.arange(n_terms)[:, None] * n + ids).ravel()
            up.msg_cost[v], up.msg_count[v] = (
                np.bincount(bins, weights=a.ravel(),
                            minlength=n_terms * n).reshape(n_terms, n)
                for a in (cost, count))
            del cost, count, bins  # freed before the next table's fold
        return up

    def distance_pass(self, center: np.ndarray | None,
                      bucketizer: Bucketizer | None = None) -> DistancePass:
        """One upward pass of sparse squared-distance histograms to
        ``center``, rooted at the walk's first table (see
        :class:`DistancePass`).  The radius does not enter it, so one pass
        serves every ball around the center.  With no center every key is
        0, no owned distance is computed and each node merges to one entry
        per separator key: the pass counts the join per key, its curve is
        one key 0, and ``draw(np.zeros(size), rng)`` draws join rows
        uniformly, top-down (Zhao et al., SIGMOD 2018).

        A table's entries start as its rows at their owned squared
        distances.  With one walk child, the child's message is convolved
        in (keys add, counts multiply).  With k >= 2, every row under one
        tuple of child separator keys meets the same messages, so they are
        combined two at a time, once per tuple: the combine node ``~cj``
        starts with one entry per tuple toward c1..cj, at key 0, and
        convolves the combine before it (c1 for j = 2), then cj; each row
        is then convolved with its tuple's message from ``~ck``.  Every
        node convolves at most two messages and merges its entries once,
        straight into its message, by one sort of (separator key, key code)
        integers.  ``bucketizer``, when given, codes keys rounded, else
        they are coded exactly.

        Rounding budget: every merge rounds a key up by at most a factor
        (1 + delta) (per-table ``delta``), and a sum of rounded keys is
        at most the sum's exact value times the largest factor among its
        parts.  A key therefore exceeds its exact value by at most
        (1 + delta)^r, with r the most nodes on a root-to-leaf path of the
        pass: one rounding per node on the path.  At an internal table v
        with k_v children, a path meets v and at most k_v - 1 of its
        combine nodes, so at most k_v roundings, and it meets one more at
        its leaf table.  So a path P of internal tables meets at most
        1 + sum_{v in P} k_v <= 1 + (m - 1) = m roundings, the m that
        :func:`relkmeans.ballcount.bucket_delta` divides the ball slack by
        and :meth:`Bucketizer.widen` raises to.
        Rounding only goes up, so radius searches keep their
        (1 - slack) * target floor.
        """
        code = bucketizer.codes if bucketizer is not None else _exact_codes
        order = []
        for v in self.walk:
            order += [v, *(~c for c in reversed(self.walk_children[v][1:]))]
        convolutions: dict[int, list[_Convolution]] = {}
        sent, message, entries = {}, {}, 0
        for v in reversed(order):
            if v < 0:  # one entry per tuple, at key 0, on a row of the tuple
                _, ids, n = self.edge_keys(v)
                rows = np.zeros(n, dtype=np.int64)
                rows[ids] = np.arange(ids.size)
            else:
                rows = np.arange(self.tables[v].n_rows)
            keys = (np.zeros(rows.size) if v < 0 or center is None
                    else self.owned_sq_dist(v, center)[0])
            hist = (rows, keys, np.ones(rows.size))
            convolutions[v] = []
            for c in self._pass_children(v):
                _, ids_v, n = self.edge_keys(c)
                *hist, src, pick = _convolve(hist, ids_v, sent[c], n)
                convolutions[v].append(_Convolution(c, src, pick))
            rows, keys, counts = hist
            entries += rows.size
            if v == self.walk[0]:
                ids = np.broadcast_to(np.int64(0), rows.size)
            else:
                ids = self.edge_keys(v)[0][rows]
            codes, grid = code(keys)
            del hist, rows, keys  # freed before the merge's sort
            (ids, codes, counts), message[v] = _merge(ids, codes, counts)
            sent[v] = (ids, grid[codes], counts)
        return DistancePass(tuple(order), sent, convolutions, message, entries)

    def gather(self, prov: np.ndarray) -> np.ndarray:
        """Join points, positional by feature index, of the rows chosen per
        table in ``prov``, by table id."""
        pts = np.empty((prov.shape[0], self.n_features))
        for t in self.tables:
            for pos, fidx in self._owned[t.id]:
                pts[:, fidx] = t.rows[prov[:, t.id], pos]
        return pts
