"""Laminar box forest around previously chosen centers.

Each center starts inside a small disjoint hypercube.  Rounds of doubling
grow every active box away from its representative; when two active boxes
overlap they meld into their bounding box (keeping the first box's
representative), and any box that was freshly doubled this round is frozen
into the output at its pre-doubling shape.  The last survivor hands its
representative to a whole-space root.  The output is laminar: any two boxes
are nested or disjoint, so every point has a unique smallest box, whose
representative serves as the point's approximate nearest center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .relational import BoxRect, SamplingGaveUp


@dataclass
class ActiveBox:
    """A growing box during construction; offsets from the representative
    stay strictly positive."""

    box_id: int
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


@dataclass(frozen=True, eq=False)
class LaminarForest:
    """Output boxes with representatives, tree-structured by inclusion.

    ``entries[i]`` is a box whose ``representative`` field is an original
    center index; ``parents[i]`` points at the smallest strictly containing
    entry (None only for the whole-space root).  Finite boxes carry
    half-open upper faces so sibling boxes partition points unambiguously.
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


def _initial_half_side(distinct: np.ndarray) -> float:
    gaps = []
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            gaps.append(np.max(np.abs(distinct[i] - distinct[j])))
    delta = min(gaps)
    return float(2.0 ** np.floor(np.log2(delta / 4.0)))


def _strictly_overlap(a: ActiveBox, b: ActiveBox) -> bool:
    # interiors must intersect; boxes merely touching on a face stay apart
    return bool(np.all(np.maximum(a.low, b.low) < np.minimum(a.high, b.high)))


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

    alias: dict[int, int] = {}
    canonical: list[int] = []
    seen: dict[bytes, int] = {}
    for i in range(k):
        key = pts[i].tobytes()
        if key in seen:
            alias[i] = seen[key]
        else:
            seen[key] = i
            alias[i] = i
            canonical.append(i)

    if len(canonical) == 1:
        root = BoxRect.whole_space(d, representative=canonical[0])
        return LaminarForest((root,), (None,), 0, pts, alias)

    distinct = pts[canonical]
    h0 = initial_half_side if initial_half_side is not None \
        else _initial_half_side(distinct)
    if h0 <= 0:
        raise ValueError("initial half side must be positive")

    active = [
        ActiveBox(i, pts[ci] - h0, pts[ci] + h0, ci, pts[ci])
        for i, ci in enumerate(canonical)
    ]
    next_id = len(active)
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
            pair = None
            for ai in range(len(active)):
                for bi in range(ai + 1, len(active)):
                    if _strictly_overlap(active[ai], active[bi]):
                        pair = (ai, bi)
                        break
                if pair:
                    break
            if pair is None:
                break
            b1, b2 = active[pair[0]], active[pair[1]]
            for b in (b1, b2):
                if not b.meld_product:
                    lo, hi = b.halved_shape()
                    frozen.append((lo, hi, b.rep))
            melded = ActiveBox(
                next_id,
                np.minimum(b1.low, b2.low),
                np.maximum(b1.high, b2.high),
                b1.rep,
                b1.rep_point,
                meld_product=True,
            )
            next_id += 1
            active = [b for idx, b in enumerate(active) if idx not in pair]
            active.append(melded)
        if trace is not None:
            trace.append((round_index, h0,
                          [(b.low.copy(), b.high.copy(), b.rep) for b in active]))

    entries = [
        BoxRect(lo, hi, high_open=np.ones(d, dtype=bool), representative=rep)
        for lo, hi, rep in frozen
    ]
    entries.append(BoxRect.whole_space(d, representative=active[0].rep))
    root_index = len(entries) - 1

    parents = _inclusion_parents(entries, root_index)
    return LaminarForest(tuple(entries), parents, root_index, pts, alias)


def _inclusion_parents(entries: list[BoxRect], root_index: int,
                       ) -> tuple[int | None, ...]:
    def contains(outer: BoxRect, inner: BoxRect) -> bool:
        return bool(np.all(outer.low <= inner.low) and np.all(inner.high <= outer.high))

    def volume_key(b: BoxRect) -> float:
        side = b.high - b.low
        return float(np.sum(np.log(side[np.isfinite(side)] + 1.0))) \
            if np.all(np.isfinite(side)) else np.inf

    parents: list[int | None] = [None] * len(entries)
    for i, box in enumerate(entries):
        if i == root_index:
            continue
        best, best_vol = root_index, np.inf
        for j, other in enumerate(entries):
            if j == i or j == root_index:
                continue
            if contains(other, box) and not contains(box, other):
                vol = volume_key(other)
                if vol < best_vol:
                    best, best_vol = j, vol
        parents[i] = best
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
    point.  Laminarity makes the containing boxes of a point a chain, so the
    deepest containing box is the smallest one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    depth = np.zeros(forest.size, dtype=np.int64)
    for i in range(forest.size):
        d, p = 0, forest.parents[i]
        while p is not None:
            d, p = d + 1, forest.parents[p]
        depth[i] = d
    reps = np.full(n, -1, dtype=np.int64)
    for idx in sorted(range(forest.size), key=lambda i: -depth[i]):
        box = forest.entries[idx]
        lo_ok = np.where(box.low_open, pts > box.low, pts >= box.low)
        hi_ok = np.where(box.high_open, pts < box.high, pts <= box.high)
        inside = np.all(lo_ok & hi_ok, axis=1)
        take = inside & (reps < 0)
        reps[take] = box.representative
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
