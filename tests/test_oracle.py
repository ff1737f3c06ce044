import numpy as np
import pytest

from relkmeans import FeatureId, Table, gyo_reduce, tables_to_schema
from relkmeans.oracle import (
    MaterializationGuard,
    exact_cost,
    exact_kmeanspp_distribution,
    exact_weights,
    materialize,
)

from conftest import PATH_JOIN_ROWS, brute_force_join, random_acyclic_tables


def knapsack_tables(weights: list[int]) -> list[Table]:
    """Chain of 2h tables whose join enumerates all subsets of the weights:
    feature 2i takes value 0 or w_i depending on whether item i is picked."""
    h = len(weights)
    tables = []
    for i in range(1, h + 1):
        w = float(weights[i - 1])
        f_prev = FeatureId(f"g{2 * i - 1}", 2 * i - 2)
        f_mid = FeatureId(f"g{2 * i}", 2 * i - 1)
        f_next = FeatureId(f"g{2 * i + 1}", 2 * i)
        tables.append(Table(2 * i - 2, f"T{2 * i - 1}", (f_prev, f_mid),
                            np.array([[0.0, 0.0], [0.0, w]])))
        tables.append(Table(2 * i - 1, f"T{2 * i}", (f_mid, f_next),
                            np.array([[0.0, 0.0], [w, 0.0]])))
    return tables


def knapsack_centers(weights: list[int], budget: int) -> np.ndarray:
    """Two centers on the all-equal diagonal splitting points by coordinate
    sum at budget + 1/2."""
    d = 2 * len(weights) + 1
    b = (2 * budget + 1) / d
    return np.array([np.zeros(d), np.full(d, b)])


class TestMaterialize:
    def test_path_fixture_rows(self, path_tables):
        join = materialize(path_tables)
        assert sorted(map(tuple, join.rows)) == sorted(PATH_JOIN_ROWS)

    def test_empty_schema(self):
        t = Table(0, "T", (FeatureId("x", 0),), np.empty((0, 1)))
        assert materialize([t]).n_rows == 0

    def test_no_tables(self):
        assert materialize([]).rows.shape == (0, 0)

    def test_matches_brute_force_randomized(self, rng):
        for _ in range(30):
            tables = random_acyclic_tables(rng)
            join = materialize(tables)
            want = brute_force_join(tables)
            assert sorted(map(tuple, join.rows)) == sorted(map(tuple, want))

    def test_guard_trips(self, path_tables):
        with pytest.raises(MaterializationGuard):
            materialize(path_tables, guard=3)


class TestDistribution:
    def test_no_centers_is_uniform(self, path_tables):
        join = materialize(path_tables)
        np.testing.assert_allclose(exact_kmeanspp_distribution(join, []),
                                   np.full(5, 0.2))

    def test_center_at_data_point_gets_zero(self, path_tables):
        join = materialize(path_tables)
        probs = exact_kmeanspp_distribution(join, [join.rows[2]])
        assert probs[2] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_sums_to_one(self, path_tables, rng):
        join = materialize(path_tables)
        for _ in range(10):
            centers = [rng.normal(size=3)]
            probs = exact_kmeanspp_distribution(join, centers)
            assert probs.sum() == pytest.approx(1.0)


class TestExactWeights:
    def test_one_center_takes_all(self, path_tables):
        join = materialize(path_tables)
        assert exact_weights(join, [np.zeros(3)]).tolist() == [5]

    def test_symmetric_clusters_split_evenly(self):
        pts = np.concatenate([np.arange(8.0), 100 + np.arange(8.0)])
        t = Table(0, "T", (FeatureId("x", 0),), pts.reshape(-1, 1))
        join = materialize([t])
        got = exact_weights(join, [np.array([3.5]), np.array([103.5])])
        assert got.tolist() == [8, 8]

    @pytest.mark.parametrize("weights,budget", [
        ([1, 2, 3], 3),
        ([2, 2, 2], 4),
        ([1, 1, 5, 7], 8),
        ([3, 5, 8, 13, 2], 15),
    ])
    def test_knapsack_counts_match_enumeration(self, weights, budget):
        tables = knapsack_tables(weights)
        join = materialize(tables)
        assert join.n_rows == 2 ** len(weights)
        centers = knapsack_centers(weights, budget)
        got = exact_weights(join, list(centers))[0]
        h = len(weights)
        want = sum(
            1 for mask in range(2 ** h)
            if sum(w for b, w in enumerate(weights) if mask >> b & 1) <= budget
        )
        assert got == want


class TestExactCost:
    def test_zero_for_centers_on_points(self, path_tables):
        join = materialize(path_tables)
        assert exact_cost(join, list(join.rows)) == 0.0

    def test_matches_direct_scan(self, path_tables, rng):
        join = materialize(path_tables)
        centers = rng.normal(size=(2, 3))
        d2 = ((join.rows[:, None, :] - centers[None]) ** 2).sum(-1).min(1)
        assert exact_cost(join, centers) == pytest.approx(float(d2.sum()))
