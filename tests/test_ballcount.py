import math

import numpy as np
import pytest

from relkmeans import FeatureId, JoinEvaluator, Table, gyo_reduce, tables_to_schema
from relkmeans.ballcount import (
    BallSampler,
    Bucketizer,
    EmptyBall,
    TargetExceedsN,
    distance_profile,
    radius_for_count,
    sample_in_ball,
)
from relkmeans.sampling import make_rng

from conftest import brute_force_join, random_acyclic_tables

ORIGIN3 = np.zeros(3)


def exact_sq_dists(tables, center):
    joined = brute_force_join(tables)
    if len(joined) == 0:
        return np.array([])
    return np.sort(((joined - center) ** 2).sum(axis=1))


class TestDistanceProfile:
    def test_exact_multiset_on_path_fixture(self, path_tree, path_tables):
        p = distance_profile(path_tree, path_tables, ORIGIN3)
        # brute force over the 5 join rows: {3, 6, 6, 9, 22}
        assert p.sq_radii.tolist() == [3.0, 6.0, 9.0, 22.0]
        assert p.cum_counts.tolist() == [1, 3, 4, 5]
        assert p.total == 5

    def test_counts_at_radii(self, path_tree, path_tables):
        p = distance_profile(path_tree, path_tables, ORIGIN3)
        assert p.count_at(3.0) == 1
        assert p.count_at(6.0) == 3
        assert p.count_at(22.0) == 5
        assert p.count_at(2.99) == 0

    def test_single_row_at_center_hits_zero_bucket(self):
        t = Table(0, "T", (FeatureId("x", 0), FeatureId("y", 1)),
                  np.array([[2.0, 3.0]]))
        tree = gyo_reduce(tables_to_schema([t]))
        p = distance_profile(tree, [t], np.array([2.0, 3.0]))
        assert p.sq_radii.tolist() == [0.0]
        assert p.cum_counts.tolist() == [1]

    def test_exact_mode_matches_brute_force_randomized(self, rng):
        for _ in range(25):
            tables = random_acyclic_tables(rng, max_tables=4)
            tree = gyo_reduce(tables_to_schema(tables))
            names = sorted({f.name for t in tables for f in t.features})
            center = rng.normal(size=len(names))
            p = distance_profile(tree, tables, center)
            want = exact_sq_dists(tables, center)
            reps = np.diff(np.concatenate([[0], p.cum_counts])).astype(int)
            got = np.repeat(p.sq_radii, reps)
            np.testing.assert_allclose(np.sort(got), want, rtol=1e-9, atol=1e-12)

    def test_bucketed_counts_compounding_bound(self, rng):
        for _ in range(15):
            tables = random_acyclic_tables(rng, max_tables=4,
                                           integer_values=True)
            m = len(tables)
            tree = gyo_reduce(tables_to_schema(tables))
            names = sorted({f.name for t in tables for f in t.features})
            center = rng.normal(size=len(names))
            delta = 0.05
            p = distance_profile(tree, tables, center, delta=delta)
            d2 = exact_sq_dists(tables, center)
            if d2.size == 0:
                continue
            factor = (1 + delta) ** m
            for r in np.concatenate([p.sq_radii, rng.uniform(0, d2.max(), 5)]):
                got = p.count_at(r)
                hi = int((d2 <= r).sum())
                lo = int((d2 <= r / factor).sum())
                assert lo <= got <= hi

    def test_count_level_entry_view(self, path_tree, path_tables):
        p = distance_profile(path_tree, path_tables, ORIGIN3)
        assert p.entries().tolist() == [3.0, 6.0, 6.0, 9.0, 22.0]


class TestRadiusForCount:
    def test_target_four_on_path_fixture(self, path_tree, path_tables):
        r = radius_for_count(path_tree, path_tables, ORIGIN3, 4, 0.0)
        assert r == 9.0

    def test_target_n_covers_whole_join(self, path_tree, path_tables):
        r = radius_for_count(path_tree, path_tables, ORIGIN3, 5, 0.0)
        assert r == 22.0

    def test_target_one_is_nearest_point(self, path_tree, path_tables):
        r = radius_for_count(path_tree, path_tables, ORIGIN3, 1, 0.0)
        assert r == 3.0

    def test_target_exceeds_join(self, path_tree, path_tables):
        with pytest.raises(TargetExceedsN):
            radius_for_count(path_tree, path_tables, ORIGIN3, 6, 0.0)

    def test_monotone_in_target(self, rng):
        tables = random_acyclic_tables(rng, max_tables=3)
        tree = gyo_reduce(tables_to_schema(tables))
        names = sorted({f.name for t in tables for f in t.features})
        center = rng.normal(size=len(names))
        p = distance_profile(tree, tables, center, delta=0.01)
        radii = [radius_for_count(tree, tables, center, t, 0.05, profile=p)
                 for t in range(1, p.total + 1)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))


class TestSampleInBall:
    def test_single_point_ball(self, path_tree, path_tables):
        got = sample_in_ball(path_tree, path_tables, ORIGIN3, 3.0, 0.05,
                             make_rng(0))
        assert got.tolist() == [1.0, 1.0, 1.0]

    def test_three_point_ball_near_uniform(self, path_tree, path_tables):
        pts = sample_in_ball(path_tree, path_tables, ORIGIN3, 6.0, 0.05,
                             make_rng(1), size=100_000)
        assert ((pts ** 2).sum(axis=1) <= 6.0).all()
        uniq, counts = np.unique(pts, axis=0, return_counts=True)
        assert len(uniq) == 3
        freqs = counts / counts.sum()
        assert np.all(np.abs(freqs - 1 / 3) <= 0.1 / 3)

    def test_whole_space_matches_uniform(self, path_tree, path_tables):
        pts = sample_in_ball(path_tree, path_tables, ORIGIN3, 22.0, 0.05,
                             make_rng(2), size=50_000)
        uniq, counts = np.unique(pts, axis=0, return_counts=True)
        assert len(uniq) == 5
        tv = 0.5 * np.abs(counts / counts.sum() - 0.2).sum()
        assert tv < 0.05

    def test_empty_ball_raises(self, path_tree, path_tables):
        with pytest.raises(EmptyBall):
            sample_in_ball(path_tree, path_tables, ORIGIN3, 1.0, 0.05,
                           make_rng(0))

    def test_membership_under_bucketing(self, rng):
        for _ in range(5):
            tables = random_acyclic_tables(rng, max_tables=3)
            tree = gyo_reduce(tables_to_schema(tables))
            d2 = exact_sq_dists(tables, np.zeros(
                len({f.name for t in tables for f in t.features})))
            if d2.size < 3:
                continue
            center = np.zeros(
                len({f.name for t in tables for f in t.features}))
            r = float(np.median(d2))
            sampler = BallSampler(tree, tables, center, delta=0.05)
            pts = sampler.sample_batch(r, 500, make_rng(7))
            assert (((pts - center) ** 2).sum(axis=1) <= r).all()


class TestGroupedDistancePass:
    """The grouped pass the in-ball sampler runs, row by row, against brute
    force over the join rows extending each group-table row."""

    def test_rows_match_brute_force_with_and_without_pins(self, rng):
        for _ in range(20):
            tables = random_acyclic_tables(rng, max_tables=4)
            tree = gyo_reduce(tables_to_schema(tables))
            center = rng.normal(size=len({f.name for t in tables
                                          for f in t.features}))
            ev = JoinEvaluator(tree, tables)
            for group in range(len(tables)):
                pins = [{}]
                if group > 0:
                    earlier = int(rng.integers(group))
                    pins.append({earlier: int(rng.integers(tables[earlier].n_rows))})
                for pin in pins:
                    rows, keys, counts = ev.distance_grouped(
                        group, center, masks=ev.singleton_masks(pin))
                    for r in range(tables[group].n_rows):
                        fixed = {**pin, group: r}
                        sub = [t.with_rows(t.rows[[fixed[t.id]]])
                               if t.id in fixed else t for t in tables]
                        mine = rows == r
                        got = np.sort(np.repeat(keys[mine],
                                                counts[mine].astype(int)))
                        np.testing.assert_allclose(
                            got, exact_sq_dists(sub, center),
                            rtol=1e-9, atol=1e-12)


class TestHugeJoin:
    def test_thirteen_table_star_profile_in_closed_form(self):
        # 13 tables of 40 rows on one shared key: 40^13 ~ 6.7e20 join rows,
        # past int64; s tables at x = 1 put a join row at squared distance s
        x = np.r_[np.ones(10), np.zeros(30)]
        tables = [Table(i, f"T{i}", (FeatureId("k", 0), FeatureId(f"x{i}", i + 1)),
                        np.column_stack([np.zeros(40), x])) for i in range(13)]
        tree = gyo_reduce(tables_to_schema(tables))
        p = distance_profile(tree, tables, np.zeros(14))
        per_key = [math.comb(13, s) * 10 ** s * 30 ** (13 - s) for s in range(14)]
        assert p.sq_radii.tolist() == list(range(14))
        np.testing.assert_allclose(p.cum_counts, np.cumsum(per_key, dtype=float),
                                   rtol=1e-12)
        for s in range(14):
            assert p.count_at(s) == pytest.approx(sum(per_key[: s + 1]), rel=1e-12)
        assert p.total == pytest.approx(40 ** 13, rel=1e-12)


class TestBucketizer:
    def test_bucketizer_rounds_up_onto_grid(self):
        b = Bucketizer(0.05, 1.0)
        grid_point = 1.05 ** 7
        got = b.round_up(np.array([0.0, 1.0, grid_point, 1.3]))
        assert got[:2].tolist() == [0.0, 1.0]
        assert got[2] == pytest.approx(grid_point, rel=1e-12)
        assert 1.3 <= got[3] <= 1.3 * 1.05
        # grid values stay put, so a message may union rounded row keys
        assert b.round_up(got).tolist() == got.tolist()
