import numpy as np
import pytest

from relkmeans import JoinEvaluator, gyo_reduce, tables_to_schema
from relkmeans.boxes import assignment_reps_batch, build_boxes, is_laminar

from conftest import (brute_force_join_rows, random_acyclic_tables,
                      reference_assignment_reps, reference_build_boxes,
                      surrogate_costs)


def random_centers(rng, k, d, scale=20.0):
    return np.round(rng.normal(0, scale, size=(k, d)), 3)


class TestDerivedFixture:
    """Hand-stepped construction for centers {0, 16} in one dimension with
    initial side 1: the boxes touch at 8 after four doublings (touching is
    not melding) and overlap after five, freezing [-8,8) and [8,24)."""

    @pytest.fixture
    def forest(self):
        return build_boxes(np.array([[0.0], [16.0]]), initial_half_side=0.5)

    def test_forest_entries(self, forest):
        shapes = sorted(zip(forest.low[:, 0].tolist(), forest.high[:, 0].tolist(),
                            forest.rep.tolist()))
        assert shapes == [(-np.inf, np.inf, 0), (-8.0, 8.0, 0), (8.0, 24.0, 1)]

    def test_smallest_box_queries(self, forest):
        # 9 sits in [8,24) with rep 16, 7 in [-8,8) with rep 0, and -100
        # only in the whole-space root, whose rep is center 0; the half-open
        # upper faces put 8 in [8,24) and 24 in the root only
        reps, costs = assignment_reps_batch(
            forest, np.array([[9.0], [7.0], [-100.0], [8.0], [24.0]]))
        assert reps.tolist() == [1, 0, 0, 1, 0]
        assert costs.tolist() == [49.0, 49.0, 10_000.0, 64.0, 576.0]

    def test_batch_assignment_matches_single(self, forest):
        pts = np.array([[9.0], [7.0], [-100.0], [8.0], [23.9], [24.0]])
        _, costs = assignment_reps_batch(forest, pts)
        assert costs == pytest.approx(surrogate_costs(pts, forest))

    def test_two_center_piecewise_assignment(self, forest):
        # power-of-two sided disjoint cubes around each center, as large as
        # possible; outside both, points assign to the first center
        c0, c1 = 0.0, 16.0
        cases = [(x, c0) for x in [-7.9, 0.0, 3.0, 7.9]] + \
            [(x, c1) for x in [8.0, 9.0, 16.0, 23.9]] + \
            [(x, c0) for x in [-50.0, 24.0, 300.0]]
        xs = np.array([[x] for x, _ in cases])
        _, costs = assignment_reps_batch(forest, xs)
        assert costs.tolist() == [(x - c) ** 2 for x, c in cases]


class TestDegenerateInputs:
    def test_single_center(self):
        forest = build_boxes(np.array([[3.0, 4.0]]))
        assert forest.size == 1
        assert forest.rep.tolist() == [0]
        assert not np.isfinite(forest.low).any()

    def test_identical_centers_collapse(self):
        forest = build_boxes(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 2.0]]))
        assert forest.alias == {0: 0, 1: 0, 2: 2}
        assert set(forest.rep.tolist()) == {0, 2}

    def test_all_identical_centers(self):
        forest = build_boxes(np.array([[5.0], [5.0], [5.0]]))
        assert forest.size == 1 and forest.alias == {0: 0, 1: 0, 2: 0}

    def test_signed_zero_centers_collapse(self):
        # -0.0 and 0.0 are one point: a Chebyshev gap of 0 between them
        # would leave no positive initial half side
        forest = build_boxes(np.array([[0.0], [-0.0], [1.0]]))
        assert forest.alias == {0: 0, 1: 0, 2: 2}
        assert set(forest.rep.tolist()) == {0, 2}


def _same_forest(got, want):
    assert got.parents == want.parents
    assert got.root_index == want.root_index and got.alias == want.alias
    for name in ("low", "high", "rep"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestAgainstLoopConstruction:
    def test_forests_and_traces_match_bit_for_bit(self, rng):
        for trial in range(240):
            k = int(rng.integers(2, 65))
            d = int(rng.integers(1, 7))
            centers = np.round(rng.normal(0, rng.uniform(1, 50), size=(k, d)),
                               int(rng.integers(0, 4)))
            if trial % 2:  # duplicate a few centers, at shuffled positions
                extra = centers[rng.integers(0, k, size=int(rng.integers(1, 5)))]
                centers = rng.permutation(np.vstack([centers, extra]))
            h0 = float(2.0 ** rng.integers(-4, 2)) if trial % 5 == 0 else None
            trace, ref_trace = [], []
            forest = build_boxes(centers, h0, trace)
            ref = reference_build_boxes(centers, h0, ref_trace)
            _same_forest(forest, ref)
            assert len(trace) == len(ref_trace)
            for (j, h, boxes), (ref_j, ref_h, ref_boxes) in zip(trace, ref_trace):
                assert (j, h, len(boxes)) == (ref_j, ref_h, len(ref_boxes))
                for (lo, hi, rep), (ref_lo, ref_hi, ref_rep) in zip(boxes, ref_boxes):
                    assert lo.tobytes() == ref_lo.tobytes()
                    assert hi.tobytes() == ref_hi.tobytes()
                    assert rep == ref_rep
            # assignment_reps_batch takes the first containing entry
            assert all(p > i for i, p in enumerate(forest.parents) if p is not None)
            probes = np.vstack([
                centers,
                centers + rng.normal(0, 1, size=centers.shape),
                rng.uniform(centers.min() - 5, centers.max() + 5, size=(32, d)),
            ])
            reps, _ = assignment_reps_batch(forest, probes)
            assert reps.tolist() == reference_assignment_reps(ref, probes).tolist()


class TestMembershipOnFaces:
    def test_table_masks_and_point_assignment_agree(self, rng):
        """A join row's rows pass the table masks of box b exactly when its
        point satisfies low[b] <= x < high[b], and the point takes the
        representative of the first box it is in.  Integer join points and
        a unit initial half side put many points on box faces, so either
        side closing its upper faces breaks this."""
        upper_faces_hit = reps_moved = 0
        for _ in range(60):
            tables = random_acyclic_tables(rng, max_tables=4, integer_values=True)
            prov, join = brute_force_join_rows(tables)
            if len(np.unique(join, axis=0)) < 2:
                continue
            k = min(len(join), int(rng.integers(2, 8)))
            forest = build_boxes(join[rng.choice(len(join), k, replace=False)],
                                 initial_half_side=1.0)
            low, high = forest.low[:, None, :], forest.high[:, None, :]
            want = np.all((low <= join) & (join < high), axis=2).T  # (rows, B)
            closed = np.all((low <= join) & (join <= high), axis=2).T
            upper_faces_hit += int((want != closed).any())
            reps_moved += int((forest.rep[want.argmax(axis=1)]
                               != forest.rep[closed.argmax(axis=1)]).any())

            ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
            got = np.ones_like(want)
            for t, mask in zip(tables, ev.masks_for_box(forest.low, forest.high)):
                got &= mask[:, prov[:, t.id]].T
            assert np.array_equal(got, want)

            reps, _ = assignment_reps_batch(forest, join)
            assert reps.tolist() == forest.rep[want.argmax(axis=1)].tolist()
        assert upper_faces_hit >= 10 and reps_moved >= 5


class TestInvariants:
    def test_laminarity_randomized(self, rng):
        for _ in range(40):
            k = int(rng.integers(2, 65))
            d = int(rng.integers(1, 7))
            forest = build_boxes(random_centers(rng, k, d))
            assert is_laminar(forest)

    def test_every_center_reps_a_box_and_sits_inside(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 33))
            d = int(rng.integers(1, 5))
            centers = random_centers(rng, k, d)
            forest = build_boxes(centers)
            assert set(forest.alias.values()) <= set(forest.rep.tolist())
            for low, high, rep in zip(forest.low, forest.high, forest.rep):
                assert np.all(low < centers[rep]) and np.all(centers[rep] < high)

    def test_round_bounds(self, rng):
        # at the end of round j every center in an active box sits at least
        # h0 * 2^j from each face, and sides are at most h(b) * h0 * 2^(j+1)
        for _ in range(15):
            k = int(rng.integers(2, 20))
            d = int(rng.integers(1, 5))
            centers = random_centers(rng, k, d, scale=50.0)
            trace: list = []
            forest = build_boxes(centers, trace=trace)
            distinct = np.unique(centers, axis=0)
            for round_j, h0, boxes in trace:
                unit = h0 * 2.0 ** round_j
                for low, high, _rep in boxes:
                    inside = distinct[
                        np.all((distinct >= low) & (distinct <= high), axis=1)]
                    assert len(inside) >= 1
                    face_gap = np.minimum((inside - low).min(),
                                          (high - inside).min())
                    assert face_gap >= unit - 1e-9
                    assert np.all(high - low <= 2.0 * unit * len(inside) + 1e-9)

    def test_parents_are_minimal_enclosing(self, rng):
        for _ in range(10):
            centers = random_centers(rng, int(rng.integers(3, 12)), 2)
            forest = build_boxes(centers)
            for i, parent in enumerate(forest.parents):
                if parent is None:
                    assert i == forest.root_index
                    continue
                assert np.all(forest.low[parent] <= forest.low[i])
                assert np.all(forest.high[i] <= forest.high[parent])

    def test_assignment_ratio_bound(self, rng):
        # surrogate cost within 16 * i^2 * d of the true nearest-center cost
        # for probe points around and between the centers
        worst = 0.0
        for _ in range(30):
            k = int(rng.integers(2, 33))
            d = int(rng.integers(1, 7))
            centers = random_centers(rng, k, d)
            forest = build_boxes(centers)
            probes = np.vstack([
                centers + rng.normal(0, 1, size=centers.shape),
                centers + rng.normal(0, 30, size=centers.shape),
                rng.uniform(centers.min() - 10, centers.max() + 10, size=(64, d)),
            ])
            reps, surrogate = assignment_reps_batch(forest, probes)
            diffs = probes[:, None, :] - centers[None, :, :]
            true = np.einsum("ijk,ijk->ij", diffs, diffs).min(axis=1)
            ok = true > 0
            ratio = surrogate[ok] / true[ok]
            bound = 16.0 * (k + 1) ** 2 * d
            worst = max(worst, float(ratio.max()) / bound)
            assert np.all(ratio <= bound)
        assert worst <= 1.0
