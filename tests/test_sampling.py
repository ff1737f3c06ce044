import random
import sys
from collections import Counter, defaultdict
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from relkmeans import (FeatureId, JoinEvaluator, Table, costpair_semiring,
                       counting_semiring, eval_sumprod, eval_sumprod_grouped,
                       gyo_reduce, load_database, sampling, tables_to_schema)
from relkmeans.ballcount import BallSampler
from relkmeans.boxes import build_boxes, in_boxes
from relkmeans.oracle import materialize, exact_cost, exact_kmeanspp_distribution
from relkmeans.sampling import (
    DegenerateDistribution,
    EmptyJoin,
    RejectionBudgetExceeded,
    SamplingState,
    StageSampler,
    make_rng,
    rejection_sample_batch,
    run_kmeanspp,
)

from conftest import brute_force_join_rows, random_acyclic_tables, surrogate_costs


def single_table(values) -> tuple:
    rows = np.asarray(values, dtype=float).reshape(len(values), -1)
    feats = tuple(FeatureId(f"x{i}", i) for i in range(rows.shape[1]))
    t = Table(0, "T", feats, rows)
    return [t], gyo_reduce(tables_to_schema([t]))


def sample_from_surrogate(state: SamplingState) -> np.ndarray:
    """One draw from the box-assignment surrogate distribution (probability
    of a join row proportional to its squared distance to its smallest box's
    representative)."""
    s = state.surrogate()
    return s.ev.gather(s.sample_batch(state.rng, 1))[0]


def empirical_tv(samples: np.ndarray, support: np.ndarray,
                 probs: np.ndarray) -> float:
    want = {}
    for row, p in zip(support, probs):
        want[tuple(row)] = want.get(tuple(row), 0.0) + p
    uniq, counts = np.unique(samples, axis=0, return_counts=True)
    got = {tuple(r): c / len(samples) for r, c in zip(uniq, counts)}
    keys = set(want) | set(got)
    return 0.5 * sum(abs(want.get(k, 0.0) - got.get(k, 0.0)) for k in keys)


def uniform_rows(ev: JoinEvaluator, size: int, rng) -> np.ndarray:
    """``size`` join rows drawn as the first center is: top-down through a
    center-less distance pass.  (size, m) row indices by table id."""
    return ev.distance_pass(None).draw(np.zeros(size), rng)


class TestUniformRow:
    def test_uniform_on_path_fixture(self, path_tree, path_tables):
        ev = JoinEvaluator(path_tree, path_tables)
        pts = ev.gather(uniform_rows(ev, 100_000, make_rng(1)))
        join = materialize(path_tables).rows
        tv = empirical_tv(pts, join, np.full(5, 0.2))
        assert tv < 0.02

    def test_first_center_reads_no_distance(self, path_tree, path_tables,
                                            monkeypatch):
        """The first center is drawn without a cost-pair pass or an owned
        squared distance: the uniform draw reads counts only."""
        calls: Counter = Counter()
        for name in ("owned_sq_dist", "costpair_walk"):
            original = getattr(JoinEvaluator, name)

            def spy(self, *args, _fn=original, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(self, *args, **kwargs)
            monkeypatch.setattr(JoinEvaluator, name, spy)
        centers, _ = run_kmeanspp(path_tree, path_tables, 1)
        assert len(centers) == 1 and not calls

    def test_single_row_join(self):
        tables, tree = single_table([[3.0, 4.0]])
        centers, _ = run_kmeanspp(tree, tables, 1)
        assert centers[0].tolist() == [3.0, 4.0]

    def test_empty_join_raises(self, path_tables):
        empty = [path_tables[0], replace(path_tables[1], rows=np.empty((0, 2)))]
        tree = gyo_reduce(tables_to_schema(empty))
        with pytest.raises(EmptyJoin):
            run_kmeanspp(tree, empty, 1)


class TestAssignmentCostGrouped:
    """Per-row box-assignment cost of the join rows extending each row,
    read off the surrogate sampler's stage weights."""

    def test_single_center_reduces_to_cost_vector(self, path_tree, path_tables):
        forest = build_boxes(np.array([[0.0, 0.0, 0.0]]))
        got = StageSampler.surrogate(JoinEvaluator(path_tree, path_tables),
                                     forest)
        assert got.stage_weights([[]]).tolist() == [[9.0, 15.0, 22.0, 0.0, 0.0]]

    def test_two_center_fixture(self):
        tables, tree = single_table([[7.0], [9.0], [12.0]])
        forest = build_boxes(np.array([[0.0], [16.0]]), initial_half_side=0.5)
        got = StageSampler.surrogate(JoinEvaluator(tree, tables), forest)
        assert got.stage_weights([[]]).tolist() == [[49.0, 49.0, 16.0]]

    def test_total_matches_brute_force(self, path_tree, path_tables):
        centers = np.array([[1.0, 1.0, 1.0], [3.0, 2.0, 3.0]])
        forest = build_boxes(centers)
        s = StageSampler.surrogate(JoinEvaluator(path_tree, path_tables), forest)
        join = materialize(path_tables).rows
        want = surrogate_costs(join, forest).sum()
        assert s.total_mass() == pytest.approx(want, rel=1e-9)
        second = s.stage_weights(np.arange(path_tables[0].n_rows)[:, None]).sum()
        assert second == pytest.approx(want, rel=1e-9)

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
            s = StageSampler.surrogate(JoinEvaluator(tree, tables),
                                       build_boxes(centers))
            h0 = s.stage_weights([[]])[0]
            r0 = int(np.argmax(h0))
            h1 = s.stage_weights([[r0]])[0]
            assert h1.sum() == pytest.approx(h0[r0], rel=1e-9, abs=1e-9)


class TestSurrogateSampling:
    def test_two_point_join_returns_other_point(self):
        tables, tree = single_table([[0.0], [5.0]])
        state = SamplingState([np.array([0.0])], None, make_rng(0),
                              JoinEvaluator(tree, tables))
        state.refresh_forest()
        for _ in range(20):
            got = sample_from_surrogate(state)
            assert got.tolist() == [5.0]

    def test_matches_oracle_distribution(self, path_tree, path_tables):
        centers = [np.array([1.0, 1.0, 1.0]), np.array([5.0, 4.0, 5.0])]
        state = SamplingState(list(centers), None, make_rng(3),
                              JoinEvaluator(path_tree, path_tables))
        state.refresh_forest()
        join = materialize(path_tables).rows
        costs = surrogate_costs(join, state.forest)
        probs = costs / costs.sum()
        draws = np.array([
            sample_from_surrogate(state)
            for _ in range(20_000)
        ])
        assert empirical_tv(draws, join, probs) < 0.02

    def test_root_only_forest_matches_two_means(self, path_tree, path_tables):
        center = [np.array([1.0, 1.0, 1.0])]
        state = SamplingState(center, None, make_rng(4),
                              JoinEvaluator(path_tree, path_tables))
        state.refresh_forest()
        join = materialize(path_tables).rows
        d2 = ((join - center[0]) ** 2).sum(axis=1)
        probs = d2 / d2.sum()
        draws = np.array([
            sample_from_surrogate(state)
            for _ in range(20_000)
        ])
        assert empirical_tv(draws, join, probs) < 0.02

    def test_degenerate_when_all_points_are_centers(self):
        tables, tree = single_table([[0.0], [4.0]])
        state = SamplingState([np.array([0.0]), np.array([4.0])], None,
                              make_rng(0), JoinEvaluator(tree, tables))
        state.refresh_forest()
        with pytest.raises(DegenerateDistribution):
            sample_from_surrogate(state)


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
            diffs = join.rows[:, None, :] - centers[None, :, :]
            true = np.einsum("ijk,ijk->ij", diffs, diffs).min(axis=1)
            # a forest on a prefix of the centers bounds the cost to all
            prefix = int(rng.integers(1, k + 1))
            for forest in (build_boxes(centers), build_boxes(centers[:prefix])):
                _, surrogate = assignment_reps_batch(forest, join.rows)
                assert np.all(true <= surrogate + 1e-12)

    def test_stale_forest_draws_match_kmeanspp(self, path_tree, path_tables):
        """Draws from a forest built on the first of three centers, tested
        against all three, follow the k-means++ distribution of all three,
        with no rebuild."""
        join = materialize(path_tables)
        state = SamplingState([join.rows[0]], None, make_rng(13))
        state.refresh_forest()
        state.centers += [join.rows[3], join.rows[4]]
        pts, _ = rejection_sample_batch(state, path_tree, path_tables, 100_000)
        assert state.forest_telemetry.forests_built == 1
        want = exact_kmeanspp_distribution(join, state.centers)
        assert empirical_tv(pts, join.rows, want) < 0.02

    def test_rejection_budget_exceeded(self, monkeypatch):
        # the only join row sits just outside the far cluster's local boxes,
        # so its surrogate cost is ~1000x its true cost; with a zero budget
        # the first all-reject batch trips the error (seed pinned)
        tables, tree = single_table([[1015.5]])
        centers = list(np.concatenate([np.arange(16.0),
                                       1000.0 + np.arange(16.0)]).reshape(-1, 1))
        monkeypatch.setattr(sampling, "BUDGET_FACTOR", 0)
        state = SamplingState(centers, None, make_rng(2))
        state.refresh_forest()
        with pytest.raises(RejectionBudgetExceeded):
            rejection_sample_batch(state, tree, tables, 1)


def hub_star(rng: np.random.Generator) -> tuple[list[Table], object]:
    """Three 40-row tables (h, x_i) joined on a hub key h in 0..5."""
    h, x = FeatureId("h", 0), [FeatureId(f"x{i}", i + 1) for i in range(3)]
    tables = [Table(i, f"T{i}", (h, x[i]), np.column_stack(
        [rng.integers(0, 6, 40).astype(float), rng.normal(0, 3, 40)]))
        for i in range(3)]
    return tables, gyo_reduce(tables_to_schema(tables))


class TestRunKmeanspp:
    def test_one_evaluator_serves_every_draw(self, evaluators_built):
        tables, tree = hub_star(np.random.default_rng(8))
        centers, _ = run_kmeanspp(tree, tables, 6, seed=0)
        assert len(centers) == 6
        assert len(evaluators_built) == 1

    def test_no_forest_after_the_last_center(self, monkeypatch):
        """k' centers take at most k' - 1 forests, each on more centers than
        the one before and none on all k'."""
        tables, tree = hub_star(np.random.default_rng(8))
        forests = []

        def spy(centers, *args, **kwargs):
            forests.append(len(centers))
            return build_boxes(centers, *args, **kwargs)
        monkeypatch.setattr(sampling, "build_boxes", spy)
        centers, state = run_kmeanspp(tree, tables, 30, seed=0)
        assert len(centers) == 30
        assert 1 < len(forests) <= 29 and forests[-1] < 30
        assert all(a < b for a, b in zip(forests, forests[1:]))
        assert state.forest_telemetry.forests_built == len(forests)

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


def brute_stage_weights(tables: list[Table], forest, walk: tuple[int, ...],
                        ) -> tuple[dict, dict]:
    """Reference stage weights from the enumerated join: per (walk prefix,
    next row), the summed surrogate cost and the number of the join rows
    whose rows along the walk start with the prefix followed by that row."""
    prov, points = brute_force_join_rows(tables)
    cost, count = defaultdict(float), Counter()
    for rows, c in zip(prov, surrogate_costs(points, forest)):
        path = tuple(int(rows[t]) for t in walk)
        for depth, r in enumerate(path):
            cost[path[:depth], r] += c
            count[path[:depth], r] += 1
    return cost, count


def consistent_prefixes(count: dict) -> list[tuple[int, ...]]:
    """Every walk prefix short of a whole join row whose fixed rows extend
    to at least one join row."""
    return sorted({prefix for prefix, _ in count})


def split_star() -> tuple[list[Table], object]:
    """T0(a,x0), T1(b,x1), T2(a,b,x2): tables 0 and 1 meet only through
    table 2, so table-id order is not connected."""
    a, x0, b, x1, x2 = (FeatureId(n, i) for i, n in enumerate(
        ("a", "x0", "b", "x1", "x2")))
    tables = [
        Table(0, "T0", (a, x0), np.array(
            [[0, 1.0], [0, -2.0], [1, 3.5], [2, 0.5]])),
        Table(1, "T1", (b, x1), np.array(
            [[0, 4.0], [1, -1.0], [1, 2.0]])),
        Table(2, "T2", (a, b, x2), np.array(
            [[0, 0, 1.0], [0, 1, 5.0], [1, 1, -3.0], [1, 0, 0.0], [2, 2, 9.0]])),
    ]
    return tables, gyo_reduce(tables_to_schema(tables))


class TestStageWeights:
    def test_match_per_prefix_reference(self, rng):
        """Weights read off the one upward pass equal the brute-force
        reference (summed surrogate costs) at every join-consistent prefix,
        with all prefixes of one depth weighed in one call."""
        schemas, not_id, prefixes, worst = 0, 0, 0, 0.0
        cases = [split_star()]
        while schemas < 150:
            if cases:
                tables, tree = cases.pop()
            else:
                tables = random_acyclic_tables(rng, max_tables=5)
                tree = gyo_reduce(tables_to_schema(tables))
            join = materialize(tables, tree=tree)
            if join.n_rows < 2:
                continue
            schemas += 1
            k = int(rng.integers(2, 4))
            centers = join.rows[rng.choice(join.n_rows, min(k, join.n_rows),
                                           replace=False)]
            forest = build_boxes(centers)
            ev = JoinEvaluator(tree, tables)
            surrogate = StageSampler.surrogate(ev, forest)
            not_id += ev.walk != tuple(range(len(tables)))
            scale = surrogate.total_mass()
            ref_cost, ref_count = brute_stage_weights(tables, forest, ev.walk)
            by_depth = defaultdict(list)
            for prefix in consistent_prefixes(ref_count):
                by_depth[len(prefix)].append(prefix)
            for depth, group in by_depth.items():
                rows = range(tables[ev.walk[depth]].n_rows)
                batch = np.array(group, dtype=np.int64).reshape(len(group), depth)
                want = np.array([[ref_cost[p, r] for r in rows] for p in group])
                got = surrogate.stage_weights(batch)
                np.testing.assert_allclose(got, want, rtol=1e-9,
                                           atol=1e-12 * scale)
                err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
                worst = max(worst, float(err[want > 1e-9 * scale].max(initial=0)))
                prefixes += len(group)
        assert not_id >= 10 and prefixes >= 700
        assert worst <= 1e-9


class TestWalkOrder:
    def test_split_star_walks_through_the_middle(self):
        tables, tree = split_star()
        assert JoinEvaluator(tree, tables).walk == (0, 2, 1)

    def test_uniform_draws_on_split_star(self):
        tables, tree = split_star()
        join = materialize(tables, tree=tree).rows
        ev = JoinEvaluator(tree, tables)
        pts = ev.gather(uniform_rows(ev, 100_000, make_rng(5)))
        probs = np.full(len(join), 1.0 / len(join))
        assert empirical_tv(pts, join, probs) < 0.02

    def test_surrogate_draws_on_split_star(self):
        tables, tree = split_star()
        join = materialize(tables, tree=tree).rows
        state = SamplingState([join[0], join[3]], None, make_rng(6),
                              JoinEvaluator(tree, tables))
        state.refresh_forest()
        costs = surrogate_costs(join, state.forest)
        s = state.surrogate()
        pts = s.ev.gather(s.sample_batch(state.rng, 100_000))
        assert empirical_tv(pts, join, costs / costs.sum()) < 0.02

    def test_ball_draws_on_split_star_stay_inside(self):
        tables, tree = split_star()
        join = materialize(tables, tree=tree).rows
        center = join[0]
        d2 = ((join - center) ** 2).sum(axis=1)
        sq_radius = float(np.sort(d2)[len(d2) // 2])
        pts = BallSampler(JoinEvaluator(tree, tables), center, 0.01).sample_batch(
            [sq_radius], 2_000, make_rng(7))[0]
        assert (((pts - center) ** 2).sum(axis=1) <= sq_radius).all()
        inside = {tuple(r) for r in join[d2 <= sq_radius]}
        assert {tuple(r) for r in pts} == inside

    def test_id_order_on_benchmark_shapes(self, tmp_path):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        for name, make in workloads.GENERATORS.items():
            out = tmp_path / name
            out.mkdir()
            inst = make(out, 0, **workloads.TINY[name])
            tables, schema = load_database(inst.schema)
            ev = JoinEvaluator(gyo_reduce(schema), tables)
            assert ev.walk == tuple(range(len(tables))), name


def uneven_star(rng: np.random.Generator) -> tuple[list[Table], object]:
    """Thirteen 40-row tables (k, x_i) joined on one hub key k in {0, 1},
    with 20 + d_i rows of table i on key 0 and 20 - d_i on key 1: each key
    extends to the product of its fan-outs, about 1e17 join rows in all."""
    d = [4, -3, 2, 1, -2, 3, 0, 1, -1, 2, 4, -3, 1]
    k = FeatureId("k", 0)
    tables = []
    for i, di in enumerate(d):
        keys = rng.permutation(np.repeat([0.0, 1.0], [20 + di, 20 - di]))
        x = np.round(rng.normal(0, 3, 40), 3)
        tables.append(Table(i, f"T{i}", (k, FeatureId(f"x{i}", i + 1)),
                            np.column_stack([keys, x])))
    return tables, gyo_reduce(tables_to_schema(tables))


def chi_square(drawn: np.ndarray, probs: np.ndarray) -> float:
    """Pearson's statistic of the drawn row indices against ``probs``."""
    expected = drawn.size * probs
    observed = np.bincount(drawn, minlength=probs.size)
    return float(((observed - expected) ** 2 / expected).sum())


class TestMarginalsPastMaterialization:
    """Per-table row marginals of 1e5 draws on a join of about 1e17 rows,
    past 2**53, against exact marginals from the generic engine grouped by
    each table in turn.  40 rows give 39 degrees of freedom, and
    P(chi2 > 88.6) is about 1e-5 there, for each of the 13 tables."""

    CRITICAL = 88.6

    def test_uniform_draws(self):
        tables, tree = uneven_star(np.random.default_rng(13))
        names = sorted({f.name for t in tables for f in t.features})
        n = eval_sumprod(tree, tables, counting_semiring(names))
        assert n > 2 ** 53
        ev = JoinEvaluator(tree, tables)
        prov = uniform_rows(ev, 100_000, make_rng(14))
        for t in tables:
            counts = eval_sumprod_grouped(tree, tables,
                                          counting_semiring(names), t.id)
            assert sum(counts.values) == n  # exact Python ints
            probs = np.array([c / n for c in counts.values])
            assert chi_square(prov[:, t.id], probs) < self.CRITICAL, t.id

    def test_surrogate_draws(self):
        """Candidates before rejection.  A row's exact surrogate mass is
        the laminar difference, one cost-pair query per signed (box,
        target) term, on the tables cut to their rows inside the box."""
        tables, tree = uneven_star(np.random.default_rng(15))
        names = sorted({f.name for t in tables for f in t.features})
        ev = JoinEvaluator(tree, tables)
        centers = ev.gather(uniform_rows(ev, 3, make_rng(16)))
        forest = build_boxes(centers)
        terms = [(b, forest.rep[b], 1.0) for b in range(forest.size)]
        terms += [(b, forest.rep[p], -1.0)
                  for b, p in enumerate(forest.parents) if p is not None]
        assert forest.size > 1
        prov = StageSampler.surrogate(ev, forest).sample_batch(make_rng(17),
                                                               100_000)
        for t in tables:
            mass = np.zeros(t.n_rows)
            for box, rep, sign in terms:
                kept = [np.flatnonzero(in_boxes(
                    u.rows, forest.low[[box]][:, [f.index for f in u.features]],
                    forest.high[[box]][:, [f.index for f in u.features]])[:, 0])
                    for u in tables]
                cut = [replace(u, rows=u.rows[r]) for u, r in zip(tables, kept)]
                target = {f.name: forest.centers[rep, f.index]
                          for u in tables for f in u.features}
                got = eval_sumprod_grouped(tree, cut,
                                           costpair_semiring(names, target), t.id)
                mass[kept[t.id]] += sign * np.array([v.a for v in got.values])
            probs = np.maximum(mass, 0.0) / np.maximum(mass, 0.0).sum()
            assert chi_square(prov[:, t.id], probs) < self.CRITICAL, t.id


class TestPassCount:
    def test_passes_do_not_grow_with_prefixes(self, monkeypatch):
        """Drawing 64 or 4,096 candidates from one forest runs one cost-pair
        pass, not one per drawn prefix, and folds the same tables: each
        table but the first once in the walk, the first once more for its
        kept weights, and at stage d the d fixed tables and the drawn one,
        m(m+3)/2 - 1 folds over m tables."""
        rng = np.random.default_rng(8)
        tables, tree = hub_star(rng)
        join = materialize(tables, tree=tree).rows
        centers = list(join[rng.choice(len(join), 3, replace=False)])
        calls: Counter = Counter()
        for name in ("fold", "costpair_walk"):
            original = getattr(JoinEvaluator, name)

            def spy(self, *args, _fn=original, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(self, *args, **kwargs)
            monkeypatch.setattr(JoinEvaluator, name, spy)
        seen, n_prefixes = [], []
        for size in (64, 4096):
            calls.clear()
            state = SamplingState(list(centers), None, make_rng(9),
                                  JoinEvaluator(tree, tables))
            state.refresh_forest()
            s = state.surrogate()
            prov = s.sample_batch(state.rng, size)
            seen.append(dict(calls))
            walk = list(s.ev.walk)
            n_prefixes.append(sum(len({tuple(r) for r in prov[:, walk[:d]]})
                                  for d in range(len(walk))))
        assert n_prefixes[1] > 2 * n_prefixes[0]
        m = len(tables)
        assert seen[0] == seen[1] == {"costpair_walk": 1,
                                      "fold": m * (m + 3) // 2 - 1}


class TestSamplerMemory:
    def test_keeps_messages_and_the_first_tables_weights(self):
        """A surrogate sampler on a forest of B boxes keeps the walk's
        per-edge messages and, of arrays with a rows axis, only the first
        table's weight vector.  Each stage folds its table's (2B-1, rows)
        arrays and drops them; box masks and owned squared distances are
        computed at the rows a draw reads."""
        rng = np.random.default_rng(10)
        tables, tree = hub_star(rng)
        join = materialize(tables, tree=tree).rows
        forest = build_boxes(join[rng.choice(len(join), 4, replace=False)])
        ev = JoinEvaluator(tree, tables)
        s = StageSampler.surrogate(ev, forest)
        s.sample_batch(make_rng(0), 64)
        n_rows = {t.n_rows for t in tables}
        # no message, bound or target is as long as a table
        assert forest.size > 1 and 2 * forest.size - 1 not in n_rows
        assert not n_rows & {ev.edge_keys(v)[2] for v in ev.walk[1:]}
        assert [f.name for f in fields(s.up)] == ["msg_cost", "msg_count"]
        kept = []

        def visit(name, a):
            if isinstance(a, dict):
                for key, b in a.items():
                    visit(f"{name}[{key}]", b)
            elif isinstance(a, np.ndarray) and a.dtype == np.float64 \
                    and n_rows & set(a.shape):
                kept.append(name)
        for name, a in vars(s).items():
            visit(name, a)
        for f in fields(s.up):
            visit(f"up.{f.name}", getattr(s.up, f.name))
        assert kept == ["first"]
        assert s.first.shape == (tables[ev.walk[0]].n_rows,)


class TestUniformStream:
    """The stream every stage draws its uniforms from."""

    def test_same_seed_and_key_same_values(self):
        a = make_rng(7, (2, 3)).random(1000)
        assert np.array_equal(a, make_rng(7, (2, 3)).random(1000))

    def test_split_invariant(self):
        rng = make_rng(5, (1,))
        parts = [rng.random(3), rng.random(0), rng.random(5)]
        assert np.array_equal(np.concatenate(parts), make_rng(5, (1,)).random(8))

    def test_distinct_seeds_and_keys_distinct_streams(self):
        seeds = [0, 1, 9, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 70, 2 ** 128]
        keys = [(), (0,), (1,), (1, 0), (0, 1), (0, 0), (2 ** 64,), (0, 2 ** 64)]
        firsts = {make_rng(seed, key).random(4).tobytes()
                  for seed in seeds for key in keys}
        assert len(firsts) == len(seeds) * len(keys)

    def test_values_on_the_53_bit_grid(self):
        u = make_rng(3).random(100_000)
        scaled = u * 2.0 ** 53
        assert np.array_equal(scaled, np.floor(scaled))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_chi_square_64_bins(self):
        n = 1_000_000
        counts = np.bincount((make_rng(11).random(n) * 64).astype(np.int64),
                             minlength=64)
        expected = n / 64
        # 63 degrees of freedom: P(chi2 > 110) is about 2e-4
        assert ((counts - expected) ** 2 / expected).sum() < 110

    def test_lag_one_correlation(self):
        u = make_rng(12).random(1_000_000)
        # the standard error at 10^6 draws is 1e-3
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 5e-3

    @pytest.mark.parametrize("seed, key", [(-1, ()), (0, (-1,)), (3, (0, -2))])
    def test_negative_parts_rejected(self, seed, key):
        with pytest.raises(ValueError, match="non-negative"):
            make_rng(seed, key)


def test_stream_ignores_the_global_random_state():
    """Seeding and drawing from the ``random`` module, before one stream,
    between its draws and before another, leaves both streams' values
    the same."""
    saved = random.getstate()
    try:
        random.seed(1)
        first = make_rng(7, (2, 3))
        head = first.random(5)
        random.seed(2)
        random.random()
        tail = first.random(5)
        random.seed(3)
        random.getrandbits(640)
        second = make_rng(7, (2, 3)).random(10)
    finally:
        random.setstate(saved)
    assert np.array_equal(np.concatenate([head, tail]), second)
