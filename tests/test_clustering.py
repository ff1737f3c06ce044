import numpy as np
import pytest

from relkmeans import FeatureId, JoinEvaluator, Table, gyo_reduce, tables_to_schema
from relkmeans.clustering import (
    InsufficientDistinctPoints,
    WeightedPointSet,
    inverse_cdf,
    relational_cost,
    solve_weighted_kmeans,
    weighted_cost,
    weighted_kmeanspp_seed,
    weighted_lloyd,
)
from relkmeans.boxes import assignment_reps_batch, build_boxes
from relkmeans.oracle import exact_cost, materialize
from relkmeans.sampling import make_rng


@pytest.fixture
def blobs(rng):
    a = rng.normal((0, 0), 0.4, size=(40, 2))
    b = rng.normal((9, 9), 0.4, size=(50, 2))
    pts = np.vstack([a, b])
    w = rng.uniform(0.5, 2.0, size=90)
    return WeightedPointSet(pts, w), a, b, w


class TestWeightedPointSet:
    def test_zero_weights_dropped(self):
        ps = WeightedPointSet(np.array([[0.0], [1.0], [2.0]]),
                              np.array([1.0, 0.0, 2.0]))
        assert ps.size == 2
        assert ps.points.ravel().tolist() == [0.0, 2.0]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.array([[0.0]]), np.array([-1.0]))


class TestSeeding:
    def test_k_equals_distinct_points_costs_zero(self, rng):
        pts = np.array([[0.0], [5.0], [9.0]])
        ps = WeightedPointSet(pts, np.ones(3))
        centers = weighted_kmeanspp_seed(ps, 3, make_rng(0))
        assert weighted_cost(ps, centers) == 0.0

    def test_too_few_distinct_points(self):
        ps = WeightedPointSet(np.array([[1.0], [1.0]]), np.ones(2))
        with pytest.raises(InsufficientDistinctPoints):
            weighted_kmeanspp_seed(ps, 2, make_rng(0))

    def test_dominant_weight_chosen_first(self):
        ps = WeightedPointSet(np.array([[0.0], [100.0]]),
                              np.array([1e12, 1e-12]))
        for seed in range(5):
            centers = weighted_kmeanspp_seed(ps, 1, make_rng(seed))
            assert centers[0, 0] == 0.0

    def test_uniform_weights_match_oracle_distribution(self, rng):
        pts = rng.normal(size=(12, 2))
        ps = WeightedPointSet(pts, np.ones(12))
        first = pts[3]
        d2 = ((pts - first) ** 2).sum(axis=1)
        want = d2 / d2.sum()
        trials = 100_000
        # the seeding's own draw, mass = weight * squared distance
        idx = inverse_cdf(ps.weights * d2, make_rng(1).random(trials))
        counts = np.bincount(idx, minlength=12)
        assert counts[3] == 0  # the first center has no mass
        tv = 0.5 * np.abs(counts / trials - want).sum()
        assert tv < 0.02


class TestLloyd:
    def test_optimal_centers_stay_put(self):
        pts = np.array([[0.0], [2.0], [10.0], [12.0]])
        ps = WeightedPointSet(pts, np.ones(4))
        centers = weighted_lloyd(ps, np.array([[1.0], [11.0]]))
        assert centers.ravel().tolist() == [1.0, 11.0]

    def test_cost_monotone_nonincreasing(self, blobs, rng):
        ps, *_ = blobs
        centers = ps.points[rng.choice(ps.size, 3, replace=False)]
        costs = []
        cur = centers
        for _ in range(12):
            nxt = weighted_lloyd(ps, cur, max_iters=1, tol=0.0)
            costs.append(weighted_cost(ps, nxt))
            cur = nxt
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_two_blobs_find_weighted_means(self, blobs):
        ps, a, b, w = blobs
        centers, _ = solve_weighted_kmeans(ps, 2, seed=4)
        wa, wb = w[:40], w[40:]
        want = sorted([(wa @ a) / wa.sum(), (wb @ b) / wb.sum()],
                      key=lambda c: c[0])
        got = sorted(centers.tolist())
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_empty_cluster_reseeded(self):
        pts = np.array([[0.0], [1.0], [100.0]])
        ps = WeightedPointSet(pts, np.ones(3))
        # both far-away seeds collapse onto the data; one would go empty
        centers = weighted_lloyd(ps, np.array([[1000.0], [2000.0]]))
        assert weighted_cost(ps, centers) < ((pts - pts.mean()) ** 2).sum()

    def test_restarts_deterministic(self, blobs):
        ps, *_ = blobs
        a, ca = solve_weighted_kmeans(ps, 2, seed=9)
        b, cb = solve_weighted_kmeans(ps, 2, seed=9)
        assert np.array_equal(a, b) and ca == cb


class TestRelationalCost:
    @pytest.fixture
    def fixture_db(self):
        t = Table(0, "T", (FeatureId("x", 0),), np.array([[7.0], [9.0], [12.0]]))
        return [t], gyo_reduce(tables_to_schema([t]))

    def test_single_center_surrogate_equals_exact(self, path_tree, path_tables):
        c = np.array([[1.0, 1.0, 1.0]])
        sur = relational_cost(JoinEvaluator(path_tree, path_tables), c)
        ex = exact_cost(materialize(path_tables, tree=path_tree), c)
        assert sur == pytest.approx(ex, rel=1e-12)

    def test_surrogate_upper_bounds_exact(self, path_tree, path_tables, rng):
        for _ in range(10):
            k = int(rng.integers(1, 4))
            cs = rng.normal(2, 2, size=(k, 3))
            sur = relational_cost(JoinEvaluator(path_tree, path_tables), cs)
            ex = exact_cost(materialize(path_tables, tree=path_tree), cs)
            assert sur >= ex - 1e-9

    def test_derived_fixture_value(self, fixture_db):
        tables, tree = fixture_db
        cs = np.array([[0.0], [16.0]])
        assert relational_cost(JoinEvaluator(tree, tables), cs) == pytest.approx(114.0)
        assert exact_cost(materialize(tables, tree=tree), cs) == \
            pytest.approx(114.0)

    @pytest.mark.parametrize("offset", [0.0, 1e7])
    def test_surrogate_matches_direct_box_assignment(self, offset):
        # the laminar inclusion-exclusion subtracts per-box costs of nearly
        # equal size; shifting every coordinate by 1e7 makes those costs
        # large without changing the geometry
        rng = np.random.default_rng(8)
        hubs = np.arange(6.0)
        hub = np.column_stack([hubs, rng.normal(0, 5, 6)])
        leaf1 = np.column_stack([np.repeat(hubs, 3), rng.normal(0, 5, 18)])
        leaf2 = np.column_stack([np.repeat(hubs, 2), rng.normal(0, 5, 12)])
        tables = [
            Table(0, "H", (FeatureId("h", 0), FeatureId("a", 1)), hub + offset),
            Table(1, "L1", (FeatureId("h", 0), FeatureId("b", 2)), leaf1 + offset),
            Table(2, "L2", (FeatureId("h", 0), FeatureId("c", 3)), leaf2 + offset),
        ]
        tree = gyo_reduce(tables_to_schema(tables))
        join = materialize(tables, tree=tree)
        assert join.n_rows == 36
        centers = join.rows[rng.choice(36, 5, replace=False)] + \
            rng.normal(0, 0.5, size=(5, 4))
        direct = assignment_reps_batch(build_boxes(centers), join.rows)[1].sum()
        got = relational_cost(JoinEvaluator(tree, tables), centers)
        assert abs(got - direct) <= 1e-9 * direct
