import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relkmeans import (
    CostPair,
    FeatureId,
    JoinEvaluator,
    Table,
    costpair_semiring,
    counting_semiring,
    eval_sumprod,
    eval_sumprod_grouped,
    gyo_reduce,
    tables_to_schema,
)
from relkmeans.boxes import sq_dists
from relkmeans.sumprod import COSTPAIR_ONE, COSTPAIR_ZERO, _merge, default_ownership

from conftest import brute_force_join, random_acyclic_tables

ALL_FEATURES = ["f1", "f2", "f3"]
ORIGIN = {"f1": 0.0, "f2": 0.0, "f3": 0.0}


def brute_count(tables):
    return len(brute_force_join(tables))


def brute_sq_cost(tables, target):
    joined = brute_force_join(tables)
    if len(joined) == 0:
        return 0.0
    return float(((joined - target) ** 2).sum())


class TestScalarQueries:
    def test_counting_on_path_fixture(self, path_tree, path_tables):
        spec = counting_semiring(ALL_FEATURES)
        assert eval_sumprod(path_tree, path_tables, spec) == 5

    def test_costpair_on_path_fixture(self, path_tree, path_tables):
        spec = costpair_semiring(ALL_FEATURES, ORIGIN)
        got = eval_sumprod(path_tree, path_tables, spec)
        # frozen from brute force over the 5 join rows: 3+6+6+9+22
        assert got.a == pytest.approx(46.0) and got.b == 5

    def test_empty_table_gives_zero(self, path_tables):
        empty = replace(path_tables[1], rows=np.empty((0, 2)))
        tables = [path_tables[0], empty]
        tree = gyo_reduce(tables_to_schema(tables))
        assert eval_sumprod(tree, tables, counting_semiring(ALL_FEATURES)) == 0
        got = eval_sumprod(tree, tables, costpair_semiring(ALL_FEATURES, ORIGIN))
        assert got == COSTPAIR_ZERO


class TestGroupedQueries:
    def test_counting_grouped_by_first_table(self, path_tree, path_tables):
        spec = counting_semiring(ALL_FEATURES)
        got = eval_sumprod_grouped(path_tree, path_tables, spec, 0)
        assert list(got.values) == [2, 2, 1, 0, 0]

    def test_grouped_sums_to_scalar(self, path_tree, path_tables):
        spec = costpair_semiring(ALL_FEATURES, ORIGIN)
        for group in (0, 1):
            grouped = eval_sumprod_grouped(path_tree, path_tables, spec, group)
            total = sum(grouped.values, start=COSTPAIR_ZERO)
            assert total.a == pytest.approx(46.0) and total.b == 5

    def test_single_table_grouped_is_per_row_q(self):
        t = Table(0, "T", (FeatureId("x", 0),), np.array([[2.0], [3.0]]))
        tree = gyo_reduce(tables_to_schema([t]))
        got = eval_sumprod_grouped(tree, [t], costpair_semiring(["x"], {"x": 0.0}), 0)
        assert [v.a for v in got.values] == [4.0, 9.0]


def boxed_cost(tree, tables, low, high, target):
    """Per row of the walk's first table, the squared distance to ``target``
    summed over the join rows extending the row that lie inside the box
    ``low <= x < high``: one costpair_walk term with the box, then the
    first table folded out of its messages."""
    ev = JoinEvaluator(tree, tables)
    low, high = np.array([low], dtype=float), np.array([high], dtype=float)
    up = ev.costpair_walk(target[None, :], low, high)
    return ev.fold(ev.walk[0], target[None, :], low, high, up)[0][0]


class TestBoxedCostGrouped:
    def test_whole_space_origin(self, path_tree, path_tables):
        got = boxed_cost(path_tree, path_tables, np.full(3, -np.inf),
                         np.full(3, np.inf), np.zeros(3))
        # brute force per T1 row; the row (2,1) extends to (2,1,1) and (2,1,2)
        assert got.tolist() == [9.0, 15.0, 22.0, 0.0, 0.0]

    def test_empty_box_is_all_zero(self, path_tree, path_tables):
        got = boxed_cost(path_tree, path_tables, np.full(3, 50.0), np.full(3, 60.0),
                         np.zeros(3))
        assert got.tolist() == [0.0] * 5

    def test_single_row_join_at_target_is_zero(self):
        t = Table(0, "T", (FeatureId("x", 0), FeatureId("y", 1)),
                  np.array([[2.0, 5.0]]))
        tree = gyo_reduce(tables_to_schema([t]))
        got = boxed_cost(tree, [t], np.full(2, -np.inf), np.full(2, np.inf),
                         np.array([2.0, 5.0]))
        assert got.tolist() == [0.0]

    def test_matches_filter_then_costpair(self, path_tree, path_tables, rng):
        for _ in range(20):
            low = rng.uniform(-1, 3, size=3)
            high = low + rng.uniform(0, 4, size=3)
            got = boxed_cost(path_tree, path_tables, low, high, np.zeros(3))
            joined = brute_force_join(path_tables)
            inside = joined[np.all((joined >= low) & (joined < high), axis=1)] \
                if len(joined) else joined
            t1 = path_tables[0]
            for r in range(t1.n_rows):
                match = inside[np.all(inside[:, 0:2] == t1.rows[r], axis=1)] \
                    if len(inside) else inside
                want = float((match ** 2).sum()) if len(match) else 0.0
                assert got[r] == pytest.approx(want, abs=1e-12)


class TestOracleEquivalence:
    def test_random_schemas_counting_and_cost(self, rng):
        for _ in range(40):
            tables = random_acyclic_tables(rng)
            tree = gyo_reduce(tables_to_schema(tables))
            names = sorted({f.name for t in tables for f in t.features})
            target = {nm: float(rng.normal()) for nm in names}
            tvec = np.array([target[nm] for nm in names])

            count = eval_sumprod(tree, tables, counting_semiring(names))
            assert count == brute_count(tables)

            got = eval_sumprod(tree, tables, costpair_semiring(names, target))
            want = brute_sq_cost(tables, tvec)
            assert got.a == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert got.b == count

    def test_fast_evaluator_matches_generic(self, rng):
        """count_scalar and a multi-term costpair_walk with a random box per
        term, folded at the walk's first table, match the generic engine on
        the tables restricted to each term's box.  A center-less distance
        pass's curve is one key 0 holding the join count."""
        # -0.0 and 0.0 are one join key, for the dict keys and np.unique alike
        signed_zero = [
            Table(0, "A", (FeatureId("k", 0), FeatureId("x", 1)),
                  np.array([[-0.0, 1.0], [0.0, 2.0], [1.0, 3.0]])),
            Table(1, "B", (FeatureId("k", 0), FeatureId("y", 2)),
                  np.array([[0.0, 4.0], [-0.0, 5.0], [2.0, 6.0]])),
        ]
        randomized = (random_acyclic_tables(rng) for _ in range(25))
        for tables in itertools.chain(randomized, [signed_zero]):
            tree = gyo_reduce(tables_to_schema(tables))
            names = sorted({f.name for t in tables for f in t.features})
            ev = JoinEvaluator(tree, tables)
            n = ev.count_scalar()
            assert n == eval_sumprod(tree, tables, counting_semiring(names))
            keys, cum = ev.distance_pass(None).curve
            assert keys.tolist() == [0.0] * (n > 0)
            assert cum.tolist() == [n] * (n > 0)
            n_terms, d = 3, len(names)
            targets = rng.normal(size=(n_terms, d))
            low = np.where(rng.random((n_terms, d)) < 0.3, -np.inf,
                           rng.uniform(-5.0, 1.0, (n_terms, d)))
            high = np.where(rng.random((n_terms, d)) < 0.3, np.inf,
                            rng.uniform(1.0, 5.0, (n_terms, d)))
            masks = [np.all([(low[:, f.index, None] <= t.rows[:, pos])
                             & (t.rows[:, pos] < high[:, f.index, None])
                             for pos, f in enumerate(t.features)], axis=0)
                     for t in tables]
            first = ev.walk[0]
            cost, cnt = ev.fold(first, targets, low, high,
                                ev.costpair_walk(targets, low, high))
            for term in range(n_terms):
                keep = masks[first][term]
                masked = [replace(t, rows=t.rows[m[term]])
                          for t, m in zip(tables, masks)]
                spec = costpair_semiring(names, dict(zip(names, targets[term])))
                gcp = eval_sumprod_grouped(tree, masked, spec, first)
                np.testing.assert_allclose(cost[term][keep],
                                           [v.a for v in gcp.values],
                                           rtol=1e-9, atol=1e-9)
                np.testing.assert_array_equal(cnt[term][keep],
                                              [v.b for v in gcp.values])
                assert not cost[term][~keep].any()
                assert not cnt[term][~keep].any()


class TestMerge:
    def test_sorted_input_merges_as_shuffled_input(self, rng):
        """Input already in (id, code) order merges byte for byte as the
        same entries shuffled, when equal (id, code) pairs keep their order,
        as the stable sort keeps them."""
        for _ in range(50):
            n = int(rng.integers(1, 300))
            ids = np.sort(rng.integers(0, 20, n))
            keys = rng.choice([0, 1, 4, 9], n)
            order = np.lexsort((keys, ids))
            ids, keys = ids[order], keys[order]
            counts = rng.uniform(0.5, 2.0, n)
            pos = rng.permutation(n)
            group = np.cumsum(np.r_[True, (ids[1:] != ids[:-1])
                                    | (keys[1:] != keys[:-1])])
            for g in np.unique(group):
                pos[group == g] = np.sort(pos[group == g])
            perm = np.argsort(pos)  # shuffled entry j is sorted entry perm[j]
            merged, cons = _merge(ids, keys, counts)
            shuffled, cons_s = _merge(ids[perm], keys[perm], counts[perm])
            for a, b in zip(merged, shuffled):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert np.array_equal(cons.source, np.arange(n))
            assert perm[cons_s.source].tobytes() == cons.source.tobytes()
            assert cons_s.bound.tobytes() == cons.bound.tobytes()
            assert cons_s.last.tobytes() == cons.last.tobytes()


    def test_pairs_too_wide_to_pack_merge_alike(self, rng):
        """Codes spread past what packs into one int64 with the id and the
        position take the lexsort path, and merge as the same pairs packed."""
        for _ in range(50):
            n = int(rng.integers(1, 300))
            ids = rng.integers(0, 20, n)
            codes = rng.integers(0, 5, n)
            counts = rng.uniform(0.5, 2.0, n)
            packed, cons = _merge(ids, codes, counts)
            wide, cons_w = _merge(ids, codes << 58, counts)
            assert wide[1].tolist() == (packed[1] << 58).tolist()
            for a, b in [(packed[0], wide[0]), (packed[2], wide[2]),
                         (cons.source, cons_w.source), (cons.bound, cons_w.bound),
                         (cons.last, cons_w.last)]:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFeatureOwnership:
    def test_any_owner_gives_same_result(self, path_tree, path_tables, rng):
        names = ALL_FEATURES
        spec = costpair_semiring(names, {"f1": 1.0, "f2": -2.0, "f3": 0.5})
        base = eval_sumprod(path_tree, path_tables, spec)
        # f2 lives in both tables; flip its owner
        owner = default_ownership(path_tree, path_tables)
        assert owner["f2"] == 0
        flipped = dict(owner, f2=1)
        got = eval_sumprod(path_tree, path_tables, spec, ownership=flipped)
        assert got.a == pytest.approx(base.a, rel=1e-12)
        assert got.b == base.b

    def test_random_ownership_permutations(self, rng):
        for _ in range(10):
            tables = random_acyclic_tables(rng, max_tables=4)
            tree = gyo_reduce(tables_to_schema(tables))
            names = sorted({f.name for t in tables for f in t.features})
            spec = counting_semiring(names)
            base = eval_sumprod(tree, tables, spec)
            holders = {nm: [t.id for t in tables if nm in t.feature_names()]
                       for nm in names}
            owner = {nm: int(rng.choice(h)) for nm, h in holders.items()}
            assert eval_sumprod(tree, tables, spec, ownership=owner) == base


class TestOwnedSqDist:
    def test_matches_per_target_loop_and_sq_dists(self, rng):
        """owned_sq_dist over several targets, at every row and at a row
        selection that repeats rows, is byte-equal to summing each target's
        squared distances from 0.0 over the owned features (the lowest
        holding table id owns a feature), in table-feature order; and close
        to sq_dists over the owned columns."""
        repeated = 0
        for _ in range(30):
            tables = random_acyclic_tables(rng)
            ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
            targets = rng.normal(size=(4, ev.n_features))
            for t in tables:
                owned = [(pos, f.index) for pos, f in enumerate(t.features)
                         if min(u.id for u in tables
                                if f.name in u.feature_names()) == t.id]
                picks = rng.integers(0, t.n_rows, 2 * t.n_rows)
                repeated += np.unique(picks).size < picks.size
                for rows in (slice(None), picks):
                    pts = t.rows[rows]
                    want = np.zeros((len(targets), len(pts)))
                    for i, y in enumerate(targets):
                        for pos, fidx in owned:
                            want[i] += (pts[:, pos] - y[fidx]) ** 2
                    got = ev.owned_sq_dist(t.id, targets, rows)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                    one = ev.owned_sq_dist(t.id, targets[1], rows)
                    assert one.tobytes() == want[1:2].tobytes()
                    cols, idx = [p for p, _ in owned], [i for _, i in owned]
                    np.testing.assert_allclose(
                        got, sq_dists(pts[:, cols], targets[:, idx]).T,
                        rtol=1e-12, atol=1e-12)
        assert repeated >= 30


class TestSemiringAxioms:
    def check_axioms(self, spec, elements, eq):
        rng = np.random.default_rng(0)
        els = list(elements)
        for _ in range(1000):
            x, y, z = (els[i] for i in rng.integers(len(els), size=3))
            assert eq(spec.plus(x, y), spec.plus(y, x))
            assert eq(spec.plus(spec.plus(x, y), z), spec.plus(x, spec.plus(y, z)))
            assert eq(spec.plus(x, spec.zero), x)
            assert eq(spec.times(x, y), spec.times(y, x))
            assert eq(spec.times(spec.times(x, y), z),
                      spec.times(x, spec.times(y, z)))
            assert eq(spec.times(x, spec.one), x)
            assert eq(spec.times(x, spec.zero), spec.zero)
            assert eq(spec.times(x, spec.plus(y, z)),
                      spec.plus(spec.times(x, y), spec.times(x, z)))

    def test_counting_axioms(self):
        spec = counting_semiring(["x"])
        self.check_axioms(spec, range(0, 7), lambda a, b: a == b)

    def test_costpair_axioms(self):
        spec = costpair_semiring(["x"], {"x": 0.0})
        rng = np.random.default_rng(1)
        els = [CostPair(float(rng.uniform(0, 4)), float(rng.integers(0, 5)))
               for _ in range(12)] + [COSTPAIR_ZERO, COSTPAIR_ONE]

        def close(a, b):
            return (a.a == pytest.approx(b.a, rel=1e-9, abs=1e-12)
                    and a.b == pytest.approx(b.b, rel=1e-9, abs=1e-12))

        self.check_axioms(spec, els, close)
