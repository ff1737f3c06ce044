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
from relkmeans.boxes import sq_dists
from relkmeans.sampling import make_rng
from relkmeans.sumprod import DistancePass

from conftest import brute_force_join, brute_force_join_rows, random_acyclic_tables

ORIGIN3 = np.zeros(3)


def profile_entries(profile):
    """The count-level view of a profile: for j = 0, 1, ..., the smallest
    radius holding at least ceil((1+delta)^j) points (j + 1 when exact)."""
    out, j = [], 0
    while True:
        level = math.ceil((1.0 + profile.delta) ** j) if profile.delta > 0 else j + 1
        try:
            out.append(profile.smallest_radius_for(level))
        except TargetExceedsN:
            return np.array(out)
        j += 1


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
        assert profile_entries(p).tolist() == [3.0, 6.0, 6.0, 9.0, 22.0]


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
            sampler = BallSampler(JoinEvaluator(tree, tables), center, delta=0.05)
            pts = sampler.sample_batch([r], 500, make_rng(7))[0]
            assert (((pts - center) ** 2).sum(axis=1) <= r).all()


def subtree_tables(ev, v):
    """v and every table below it in the tree rooted at the walk's first
    table."""
    below = {v}
    for u in ev.walk:
        if ev.walk_parent[u] in below:
            below.add(u)
    return sorted(below)


class TestGroupedDistancePass:
    """The one distance pass per center, table by table and row by row,
    against brute force over the join rows of each table's subtree."""

    def test_rows_match_brute_force(self, rng):
        for _ in range(20):
            tables = random_acyclic_tables(rng, max_tables=4)
            tree = gyo_reduce(tables_to_schema(tables))
            center = rng.normal(size=len({f.name for t in tables
                                          for f in t.features}))
            ev = JoinEvaluator(tree, tables)
            dists = ev.distance_pass(center)
            for v in range(len(tables)):
                sub = [tables[u] for u in subtree_tables(ev, v)]
                prov, pts = brute_force_join_rows(sub)
                feats = sorted({f.index: f.name for t in sub
                                for f in t.features}.items())
                owned = [pos for pos, (_, name) in enumerate(feats)
                         if ev.owner[name] in {t.id for t in sub}]
                want = np.zeros(len(pts))
                for pos in owned:
                    want += (pts[:, pos] - center[feats[pos][0]]) ** 2
                rows, keys, counts = dists.hist[v]
                at_v = [t.id for t in sub].index(v)
                for r in range(tables[v].n_rows):
                    mine = rows == r
                    got = np.sort(np.repeat(keys[mine], counts[mine].astype(int)))
                    np.testing.assert_allclose(
                        got, np.sort(want[prov[:, at_v] == r]),
                        rtol=1e-9, atol=1e-12)


def tied_path():
    """T0(a,x0) - T1(a,b,x1) - T2(b,x2).  Around the origin, T1's two rows
    under a = 0 reach key 1 through 3 and through 1 rows of T2, so T1's
    message entry for that key merges constituents of unequal counts."""
    a, x0, b, x1, x2 = (FeatureId(n, i) for i, n in enumerate(
        ("a", "x0", "b", "x1", "x2")))
    return [
        Table(0, "T0", (a, x0), np.array([[0, 0.0], [0, 1.0], [1, 0.5]])),
        Table(1, "T1", (a, b, x1), np.array(
            [[0, 0, 1.0], [0, 1, 0.0], [1, 1, 2.0]])),
        Table(2, "T2", (b, x2), np.array(
            [[0, 0.0], [0, 0.0], [0, 0.0], [1, 0.0], [1, 2.0]])),
    ]


class TestTopDownDraws:
    def test_exactly_uniform_over_the_ball(self, rng):
        """After rejection, draws are uniform over the ball's join points
        on random schemas, bushy ones and ones walked out of id order too,
        and on one whose merges sum unequal counts."""
        n_draws = 50_000
        done = bushy = not_id = 0
        worst = 0.0
        for attempt in range(500):
            if done >= 30 and bushy >= 5 and not_id >= 2:
                break
            tables = tied_path() if attempt == 0 else \
                random_acyclic_tables(rng, max_tables=6)
            tree = gyo_reduce(tables_to_schema(tables))
            join = brute_force_join(tables)
            if len(join) < 4:
                continue
            center = np.zeros(5) if attempt == 0 else rng.normal(size=join.shape[1])
            d2 = sq_dists(join, center[None])[:, 0]
            sq_radius = float(np.median(d2))
            sampler = BallSampler(JoinEvaluator(tree, tables), center, delta=0.05)
            fan_out = max(list(sampler.ev.walk_parent.values()).count(v)
                          for v in range(len(tables)))
            bushy += fan_out >= 2
            not_id += sampler.ev.walk != tuple(range(len(tables)))
            done += 1

            members, mult = np.unique(join[d2 <= sq_radius], axis=0,
                                      return_counts=True)
            pts = sampler.sample_batch([sq_radius], n_draws, make_rng(done))[0]
            seen, inv = np.unique(np.vstack([members, pts]), axis=0,
                                  return_inverse=True)
            assert len(seen) == len(members)  # no draw outside the ball
            got = np.bincount(inv.ravel()[len(members):], minlength=len(members))
            assert (got > 0).all()
            n_members = int(mult.sum())
            tv = 0.5 * np.abs(got / n_draws - mult / n_members).sum()
            worst = max(worst, tv / math.sqrt(n_members / n_draws))
        assert done >= 30 and bushy >= 5 and not_id >= 2
        assert worst <= 2.0
        print(f"{done} schemas ({bushy} bushy, {not_id} not in id order): "
              f"worst TV {worst:.2f} * sqrt(K/draws)")


    def test_many_balls_in_one_call(self, rng, monkeypatch):
        """One call draws several balls, bucketed and exact: the whole
        join, two equal radii, so one shared threshold, and a ball whose
        threshold admits a single root entry.  Each ball's draws are
        uniform over that ball, and every top-down candidate lies under its
        own ball's threshold."""
        candidates = []
        draw = DistancePass.draw

        def spy(self, thresholds, rng):
            prov = draw(self, thresholds, rng)
            candidates.append((thresholds, prov))
            return prov
        monkeypatch.setattr(DistancePass, "draw", spy)
        n_draws = 20_000
        done = {None: 0, 0.05: 0}
        worst = 0.0
        for _ in range(300):
            if min(done.values()) >= 8:
                break
            tables = random_acyclic_tables(rng, max_tables=5)
            tree = gyo_reduce(tables_to_schema(tables))
            join = brute_force_join(tables)
            if len(join) < 8:
                continue
            center = rng.normal(size=join.shape[1])
            d2 = sq_dists(join, center[None])[:, 0]
            for delta in done:
                sampler = BallSampler(JoinEvaluator(tree, tables), center, delta)
                root_keys = sampler.dists.root[1]
                nearest = float(d2.min())
                if (root_keys <= sampler._threshold(np.array([nearest]))).sum() != 1:
                    continue
                median = float(np.median(d2))
                radii = np.array([median, math.inf, nearest, median])
                candidates.clear()
                pts = sampler.sample_batch(radii, n_draws,
                                           make_rng(sum(done.values())))
                assert pts.shape == (4, n_draws, join.shape[1])
                for thresholds, prov in candidates:
                    got_d2 = sq_dists(sampler.ev.gather(prov), center[None])[:, 0]
                    assert (got_d2 <= thresholds * (1 + 1e-9)).all()
                for r, ball in zip(radii, pts):
                    members, mult = np.unique(join[d2 <= r], axis=0,
                                              return_counts=True)
                    seen, inv = np.unique(np.vstack([members, ball]), axis=0,
                                          return_inverse=True)
                    assert len(seen) == len(members)  # no draw outside the ball
                    got = np.bincount(inv.ravel()[len(members):],
                                      minlength=len(members))
                    n_members = int(mult.sum())
                    tv = 0.5 * np.abs(got / n_draws - mult / n_members).sum()
                    worst = max(worst, tv / math.sqrt(n_members / n_draws))
                done[delta] += 1
        assert min(done.values()) >= 8
        assert worst <= 2.0


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
