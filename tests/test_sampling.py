import numpy as np
import pytest

from relkmeans import FeatureId, Table, gyo_reduce, tables_to_schema
from relkmeans.boxes import build_boxes
from relkmeans.oracle import materialize, exact_cost, exact_kmeanspp_distribution
from relkmeans.sampling import (
    DegenerateDistribution,
    EmptyJoin,
    RejectionBudgetExceeded,
    SamplerConfig,
    SamplingState,
    assignment_cost_grouped,
    make_rng,
    rejection_sample_batch,
    run_kmeanspp,
    sample_from_surrogate,
    sample_next_center,
    sample_uniform_row,
)

from conftest import random_acyclic_tables, surrogate_costs


def single_table(values) -> tuple:
    rows = np.asarray(values, dtype=float).reshape(len(values), -1)
    feats = tuple(FeatureId(f"x{i}", i) for i in range(rows.shape[1]))
    t = Table(0, "T", feats, rows)
    return [t], gyo_reduce(tables_to_schema([t]))


def empirical_tv(samples: np.ndarray, support: np.ndarray,
                 probs: np.ndarray) -> float:
    want = {}
    for row, p in zip(support, probs):
        want[tuple(row)] = want.get(tuple(row), 0.0) + p
    uniq, counts = np.unique(samples, axis=0, return_counts=True)
    got = {tuple(r): c / len(samples) for r, c in zip(uniq, counts)}
    keys = set(want) | set(got)
    return 0.5 * sum(abs(want.get(k, 0.0) - got.get(k, 0.0)) for k in keys)


class TestUniformRow:
    def test_uniform_on_path_fixture(self, path_tree, path_tables):
        rng = make_rng(1)
        from relkmeans.sampling import _UniformSampler
        sampler = _UniformSampler(path_tree, path_tables)
        prov = sampler.sample_batch(rng, 100_000)
        pts = sampler.ev.gather(prov)
        join = materialize(path_tables).rows
        tv = empirical_tv(pts, join, np.full(5, 0.2))
        assert tv < 0.02

    def test_single_row_join(self):
        tables, tree = single_table([[3.0, 4.0]])
        got = sample_uniform_row(tree, tables, make_rng(0))
        assert got.coords.tolist() == [3.0, 4.0]
        assert got.provenance == (0,)

    def test_empty_join_raises(self, path_tables):
        empty = [path_tables[0], path_tables[1].with_rows(np.empty((0, 2)))]
        tree = gyo_reduce(tables_to_schema(empty))
        with pytest.raises(EmptyJoin):
            sample_uniform_row(tree, empty, make_rng(0))


class TestAssignmentCostGrouped:
    def test_single_center_reduces_to_cost_vector(self, path_tree, path_tables):
        forest = build_boxes(np.array([[0.0, 0.0, 0.0]]))
        got = assignment_cost_grouped(path_tree, path_tables, forest, 0)
        assert got.tolist() == [9.0, 15.0, 22.0, 0.0, 0.0]

    def test_two_center_fixture(self):
        tables, tree = single_table([[7.0], [9.0], [12.0]])
        forest = build_boxes(np.array([[0.0], [16.0]]), initial_half_side=0.5)
        got = assignment_cost_grouped(tree, tables, forest, 0)
        assert got.tolist() == [49.0, 49.0, 16.0]

    def test_total_matches_brute_force(self, path_tree, path_tables):
        centers = np.array([[1.0, 1.0, 1.0], [3.0, 2.0, 3.0]])
        forest = build_boxes(centers)
        h = assignment_cost_grouped(path_tree, path_tables, forest, 0)
        join = materialize(path_tables).rows
        want = surrogate_costs(join, forest).sum()
        assert h.sum() == pytest.approx(want, rel=1e-9)
        other = assignment_cost_grouped(path_tree, path_tables, forest, 1)
        assert other.sum() == pytest.approx(want, rel=1e-9)

    def test_conditioned_sums_telescope(self, rng):
        for _ in range(10):
            tables = random_acyclic_tables(rng, max_tables=4)
            if any(t.n_rows == 0 for t in tables) or len(tables) < 2:
                continue
            tree = gyo_reduce(tables_to_schema(tables))
            join = materialize(tables)
            if join.n_rows < 2:
                continue
            centers = join.rows[rng.choice(join.n_rows, 2, replace=False)]
            forest = build_boxes(centers)
            h0 = assignment_cost_grouped(tree, tables, forest, 0)
            r0 = int(np.argmax(h0))
            h1 = assignment_cost_grouped(tree, tables, forest, 1,
                                         fixed_rows={0: r0})
            assert h1.sum() == pytest.approx(h0[r0], rel=1e-9, abs=1e-9)


class TestSurrogateSampling:
    def test_two_point_join_returns_other_point(self):
        tables, tree = single_table([[0.0], [5.0]])
        state = SamplingState([np.array([0.0])], None, make_rng(0))
        state.refresh_forest()
        for _ in range(20):
            got = sample_from_surrogate(state, tree, tables)
            assert got.coords.tolist() == [5.0]

    def test_matches_oracle_distribution(self, path_tree, path_tables):
        centers = [np.array([1.0, 1.0, 1.0]), np.array([5.0, 4.0, 5.0])]
        state = SamplingState(list(centers), None, make_rng(3))
        state.refresh_forest()
        join = materialize(path_tables).rows
        costs = surrogate_costs(join, state.forest)
        probs = costs / costs.sum()
        draws = np.array([
            sample_from_surrogate(state, path_tree, path_tables).coords
            for _ in range(20_000)
        ])
        assert empirical_tv(draws, join, probs) < 0.02

    def test_root_only_forest_matches_two_means(self, path_tree, path_tables):
        center = [np.array([1.0, 1.0, 1.0])]
        state = SamplingState(center, None, make_rng(4))
        state.refresh_forest()
        join = materialize(path_tables).rows
        d2 = ((join - center[0]) ** 2).sum(axis=1)
        probs = d2 / d2.sum()
        draws = np.array([
            sample_from_surrogate(state, path_tree, path_tables).coords
            for _ in range(20_000)
        ])
        assert empirical_tv(draws, join, probs) < 0.02

    def test_degenerate_when_all_points_are_centers(self):
        tables, tree = single_table([[0.0], [4.0]])
        state = SamplingState([np.array([0.0]), np.array([4.0])], None,
                              make_rng(0))
        state.refresh_forest()
        with pytest.raises(DegenerateDistribution):
            sample_from_surrogate(state, tree, tables)


class TestNextCenter:
    def test_distribution_matches_kmeanspp(self, path_tree, path_tables):
        join = materialize(path_tables)
        centers = [join.rows[0], join.rows[4]]
        state = SamplingState(list(centers), None, make_rng(11))
        state.refresh_forest()
        pts, telem = rejection_sample_batch(state, path_tree, path_tables, 50_000)
        want = exact_kmeanspp_distribution(join, centers)
        assert empirical_tv(pts, join.rows, want) < 0.02
        assert telem.candidates >= 50_000

    def test_acceptance_ratio_never_exceeds_one(self, rng):
        from relkmeans.boxes import assignment_reps_batch
        for _ in range(5):
            tables = random_acyclic_tables(rng, max_tables=3)
            tree = gyo_reduce(tables_to_schema(tables))
            join = materialize(tables)
            if join.n_rows < 3:
                continue
            k = int(rng.integers(1, min(4, join.n_rows)))
            centers = join.rows[rng.choice(join.n_rows, k, replace=False)]
            forest = build_boxes(centers)
            _, surrogate = assignment_reps_batch(forest, join.rows)
            diffs = join.rows[:, None, :] - centers[None, :, :]
            true = np.einsum("ijk,ijk->ij", diffs, diffs).min(axis=1)
            assert np.all(true <= surrogate + 1e-12)

    def test_rejection_budget_exceeded(self):
        # the only join row sits just outside the far cluster's local boxes,
        # so its surrogate cost is ~1000x its true cost; with a zero budget
        # the first all-reject batch trips the error (seed pinned)
        tables, tree = single_table([[1015.5]])
        centers = list(np.concatenate([np.arange(16.0),
                                       1000.0 + np.arange(16.0)]).reshape(-1, 1))
        state = SamplingState(centers, None, make_rng(2),
                              SamplerConfig(budget_factor=0))
        state.refresh_forest()
        with pytest.raises(RejectionBudgetExceeded):
            sample_next_center(state, tree, tables)


class TestRunKmeanspp:
    def test_single_center_is_uniform_row(self, path_tree, path_tables):
        centers, _ = run_kmeanspp(path_tree, path_tables, 1, seed=5)
        join = materialize(path_tables).rows
        assert any(np.array_equal(centers[0], r) for r in join)

    def test_same_seed_same_output(self, path_tree, path_tables):
        a, _ = run_kmeanspp(path_tree, path_tables, 4, seed=9)
        b, _ = run_kmeanspp(path_tree, path_tables, 4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_stops_early_when_join_exhausted(self):
        tables, tree = single_table([[0.0], [4.0], [9.0]])
        centers, _ = run_kmeanspp(tree, tables, 10, seed=1)
        assert len(centers) == 3

    def test_expected_cost_nonincreasing_in_center_count(self, path_tree,
                                                         path_tables):
        join = materialize(path_tables)
        means = []
        for k in (1, 2, 3):
            costs = [
                exact_cost(join, run_kmeanspp(path_tree, path_tables, k,
                                              seed=s)[0])
                for s in range(40)
            ]
            means.append(np.mean(costs))
        assert means[0] >= means[1] >= means[2]
