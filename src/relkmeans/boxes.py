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
overlap matrix, deletes both rows and appends their bounding box.  Parents
come from one (B, B) strict-containment matrix over the B entries, and
queries from one (points, B) membership array.  Each matrix is built one
dimension at a time, so memory is O(n^2) and O(B^2), not O(n^2 d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relational import BoxRect, SamplingGaveUp


@dataclass(frozen=True, eq=False)
class LaminarForest:
    """Output boxes with representatives, tree-structured by inclusion.

    ``entries[i]`` is a box whose ``representative`` field is an original
    center index; ``parents[i]`` points at the smallest strictly containing
    entry (None only for the whole-space root).  Entries are frozen in
    construction order, so a box comes before every box containing it
    (``parents[i] > i``) and the root is last.  Finite boxes carry half-open
    upper faces so sibling boxes partition points unambiguously.
    """

    entries: tuple[BoxRect, ...]
    parents: tuple[int | None, ...]
    root_index: int
    centers: np.ndarray  # all original centers, shape (k, d)
    alias: dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.entries)

    def rep_point(self, entry_index: int) -> np.ndarray:
        return self.centers[self.entries[entry_index].representative]


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
        root = BoxRect.whole_space(d, representative=canonical[0])
        return LaminarForest((root,), (None,), 0, pts, alias)

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
        while (pairs := np.argwhere(np.triu(_strict_overlaps(low, high), 1))).size:
            pair = pairs[0]
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
        if trace is not None:
            trace.append((round_index, h0, [(lo.copy(), hi.copy(), int(r))
                                            for lo, hi, r in zip(low, high, rep)]))

    entries = [
        BoxRect(lo, hi, high_open=np.ones(d, dtype=bool), representative=r)
        for lo, hi, r in frozen
    ]
    entries.append(BoxRect.whole_space(d, representative=int(rep[0])))
    root_index = len(entries) - 1
    return LaminarForest(tuple(entries), _inclusion_parents(entries, root_index),
                         root_index, pts, alias)


def _inclusion_parents(entries: list[BoxRect], root_index: int,
                       ) -> tuple[int | None, ...]:
    """Per entry, the strictly containing entry of smallest volume key (sum
    of log(side + 1)), ties to the lowest index; the root when none is."""
    low = np.array([e.low for e in entries])
    high = np.array([e.high for e in entries])
    contains = np.ones((len(entries),) * 2, dtype=bool)  # [j, i]: j contains i
    for lo, hi in zip(low.T, high.T):
        contains &= (lo[:, None] <= lo) & (hi[:, None] >= hi)
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


def assignment_reps_batch(forest: LaminarForest,
                          points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized smallest-box assignment for a batch of points.

    Returns (rep center index, squared distance to that representative) per
    point.  Laminarity makes the containing boxes of a point a chain, and a
    box precedes every box containing it, so the first containing entry is
    the smallest one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    low, high, low_open, high_open = (
        np.array([getattr(e, name) for e in forest.entries])
        for name in ("low", "high", "low_open", "high_open"))
    inside = np.ones((pts.shape[0], forest.size), dtype=bool)
    for j in range(pts.shape[1]):
        col = pts[:, j, None]
        inside &= np.where(low_open[:, j], col > low[:, j], col >= low[:, j])
        inside &= np.where(high_open[:, j], col < high[:, j], col <= high[:, j])
    rep_of = np.array([e.representative for e in forest.entries])
    reps = rep_of[inside.argmax(axis=1)]
    diffs = pts - forest.centers[reps]
    return reps, np.einsum("ij,ij->i", diffs, diffs)


def is_laminar(forest: LaminarForest) -> bool:
    """Any two entries are nested or have disjoint interiors."""
    for i in range(forest.size):
        for j in range(i + 1, forest.size):
            a, b = forest.entries[i], forest.entries[j]
            inter_low = np.maximum(a.low, b.low)
            inter_high = np.minimum(a.high, b.high)
            if np.all(inter_low < inter_high):  # interiors overlap
                nested = (np.all(a.low <= b.low) and np.all(b.high <= a.high)) or \
                         (np.all(b.low <= a.low) and np.all(a.high <= b.high))
                if not nested:
                    return False
    return True
