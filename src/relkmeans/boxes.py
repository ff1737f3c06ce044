"""Laminar box forest around previously chosen centers.

Each center starts inside a small disjoint hypercube.  Rounds of doubling
grow every active box away from its representative; when two active boxes
overlap they meld into their bounding box (keeping the first box's
representative), and any box that was freshly doubled this round is frozen
into the output at its pre-doubling shape.  The last survivor hands its
representative to a whole-space root.  The output is laminar: any two boxes
are nested or disjoint, so every point has a unique smallest box, whose
representative serves as the point's approximate nearest center.

The n active boxes are held as (n, d) ``low``/``high`` arrays.  Each meld
takes the first strictly overlapping pair, in row-major order, of an (n, n)
overlap matrix, deletes both rows and appends their bounding box.  The
matrix is built once per round; a meld deletes its two rows and columns
and computes only the new box's column.  The forest is (B, d)
``low``/``high`` arrays and a (B,) ``rep`` vector.  Parents come from one
(B, B) strict-containment matrix, and queries from one (points, B)
membership array (:func:`in_boxes`, the one membership rule).
Each matrix is built one dimension at a time, so memory is O(n^2) and
O(B^2), not O(n^2 d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relational import SamplingGaveUp


@dataclass(eq=False, repr=False)
class LaminarForest:
    """Output boxes with representatives, tree-structured by inclusion.

    Box i holds the points x with ``low[i] <= x < high[i]`` on every axis
    (:func:`in_boxes`); ``rep[i]`` is an original center index and
    ``parents[i]`` the smallest strictly containing box (None only for the
    whole-space root, whose bounds are -inf/inf).  Boxes are frozen in
    construction order, so a box comes before every box containing it
    (``parents[i] > i``) and the root is last.
    """

    low: np.ndarray  # (B, d)
    high: np.ndarray  # (B, d)
    rep: np.ndarray  # (B,)
    parents: tuple[int | None, ...]
    root_index: int
    centers: np.ndarray  # all original centers, shape (k, d)
    alias: dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.rep)


def distinct_centers(pts: np.ndarray) -> tuple[dict[int, int], list[int]]:
    """(alias, canonical): every row of ``pts`` maps to the lowest index
    holding the same point, compared by value (-0.0 equals 0.0), and
    ``canonical`` lists those lowest indices in order."""
    seen: dict[bytes, int] = {}
    alias = {i: seen.setdefault(row.tobytes(), i)
             for i, row in enumerate(pts + 0.0)}
    return alias, list(seen.values())


def _strict_overlaps(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """(n, n): the interiors of boxes i and j intersect.  Boxes merely
    touching on a face stay apart."""
    ov = np.ones((len(low),) * 2, dtype=bool)
    for lo, hi in zip(low.T, high.T):
        ov &= np.maximum.outer(lo, lo) < np.minimum.outer(hi, hi)
    return ov


def _initial_half_side(distinct: np.ndarray) -> float:
    gaps = np.zeros((len(distinct),) * 2)
    for col in distinct.T:
        np.maximum(gaps, np.abs(col[:, None] - col[None, :]), out=gaps)
    delta = gaps[np.triu_indices(len(distinct), 1)].min()
    return float(2.0 ** np.floor(np.log2(delta / 4.0)))


def build_boxes(centers: list[np.ndarray] | np.ndarray,
                initial_half_side: float | None = None,
                trace: list | None = None) -> LaminarForest:
    """Run the doubling/melding/halving construction for the given centers.

    Duplicate centers are collapsed to the lowest original index before
    construction (``forest.alias`` records the mapping).  ``trace``, if
    given, receives one entry per round with the post-meld active boxes;
    it exists for invariant tests only.
    """
    pts = np.asarray(centers, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    k, d = pts.shape
    if k == 0:
        raise ValueError("at least one center is required")

    alias, canonical = distinct_centers(pts)
    if len(canonical) == 1:
        return LaminarForest(np.full((1, d), -np.inf), np.full((1, d), np.inf),
                             np.array(canonical), (None,), 0, pts, alias)

    h0 = initial_half_side if initial_half_side is not None \
        else _initial_half_side(pts[canonical])
    if h0 <= 0:
        raise ValueError("initial half side must be positive")

    rep = np.array(canonical)
    low, high = pts[rep] - h0, pts[rep] + h0
    frozen: list[tuple[np.ndarray, np.ndarray, int]] = []

    round_index = 0
    while len(rep) > 1:
        round_index += 1
        if round_index > 4400:
            raise SamplingGaveUp("box construction failed to converge")
        c = pts[rep]
        low, high = c - 2.0 * (c - low), c + 2.0 * (high - c)
        fresh = np.ones(len(rep), dtype=bool)  # not a meld product
        # ov[i, j]: boxes i < j overlap.  The diagonal is false, so a
        # nonzero argmax is the first overlapping pair in row-major order
        ov = np.triu(_strict_overlaps(low, high), 1)
        while first := int(ov.argmax()):
            pair = np.array(divmod(first, len(rep)))
            for i in pair[fresh[pair]]:
                c = pts[rep[i]]
                frozen.append((c - 0.5 * (c - low[i]), c + 0.5 * (high[i] - c),
                               int(rep[i])))
            keep = np.ones(len(rep), dtype=bool)
            keep[pair] = False
            low = np.vstack([low[keep], low[pair].min(axis=0)])
            high = np.vstack([high[keep], high[pair].max(axis=0)])
            rep = np.append(rep[keep], rep[pair[0]])
            fresh = np.append(fresh[keep], False)
            # the meld deletes two boxes and appends one: only the new
            # box's column is new
            grown = np.zeros((len(rep),) * 2, dtype=bool)
            grown[:-1, :-1] = ov[np.flatnonzero(keep)[:, None], keep]
            grown[:-1, -1] = (np.maximum(low[:-1], low[-1])
                              < np.minimum(high[:-1], high[-1])).all(axis=1)
            ov = grown
        if trace is not None:
            trace.append((round_index, h0, [(lo.copy(), hi.copy(), int(r))
                                            for lo, hi, r in zip(low, high, rep)]))

    frozen.append((np.full(d, -np.inf), np.full(d, np.inf), int(rep[0])))
    low, high, reps = (np.array(col) for col in zip(*frozen))
    root_index = len(reps) - 1
    return LaminarForest(low, high, reps, _inclusion_parents(low, high, root_index),
                         root_index, pts, alias)


def _contains(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """(B, B): ``[j, i]`` is true when box j contains box i (faces may
    touch)."""
    contains = np.ones((len(low),) * 2, dtype=bool)
    for lo, hi in zip(low.T, high.T):
        contains &= (lo[:, None] <= lo) & (hi[:, None] >= hi)
    return contains


def _inclusion_parents(low: np.ndarray, high: np.ndarray, root_index: int,
                       ) -> tuple[int | None, ...]:
    """Per box, the strictly containing box of smallest volume key (sum of
    log(side + 1)), ties to the lowest index; the root when none is."""
    contains = _contains(low, high)
    strict = contains & ~contains.T
    strict[root_index] = False
    vol = np.where(strict, np.log(high - low + 1.0).sum(axis=1)[:, None], np.inf)
    parents: list[int | None] = np.where(
        np.isfinite(vol.min(axis=0)), vol.argmin(axis=0), root_index).tolist()
    parents[root_index] = None
    return tuple(parents)


def sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from each point to each center; the argmin
    along axis 1 is the nearest center, ties to the lowest index."""
    diffs = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)


def in_boxes(points: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """(n, B): point i lies in box j, ``low[j] <= x < high[j]`` on every
    axis.  Closed lower and open upper faces let sibling boxes partition
    the points they share a face with; -inf/inf bounds hold every finite
    point."""
    inside = np.ones((len(points), len(low)), dtype=bool)
    for x, lo, hi in zip(points.T, low.T, high.T):
        inside &= (lo <= x[:, None]) & (x[:, None] < hi)
    return inside


def assignment_reps_batch(forest: LaminarForest,
                          points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized smallest-box assignment for a batch of points.

    Returns (rep center index, squared distance to that representative) per
    point.  Laminarity makes the containing boxes of a point a chain, and a
    box precedes every box containing it, so the first containing box is
    the smallest one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    reps = forest.rep[in_boxes(pts, forest.low, forest.high).argmax(axis=1)]
    diffs = pts - forest.centers[reps]
    return reps, np.einsum("ij,ij->i", diffs, diffs)


def is_laminar(forest: LaminarForest) -> bool:
    """Any two boxes are nested or have disjoint interiors."""
    contains = _contains(forest.low, forest.high)
    return not (_strict_overlaps(forest.low, forest.high)
                & ~contains & ~contains.T).any()
