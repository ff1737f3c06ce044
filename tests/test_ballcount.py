import math

import numpy as np
import pytest

from relkmeans import (FeatureId, JoinEvaluator, Table, gyo_reduce, oracle,
                       sumprod, tables_to_schema)
from relkmeans.ballcount import (
    BallSampler,
    Bucketizer,
    EmptyBall,
    TargetExceedsN,
    distance_profile,
    radius_for_count,
    sample_in_ball,
    smallest_positive_deviation,
)
from relkmeans.boxes import sq_dists
from relkmeans.sampling import make_rng
from relkmeans.sumprod import DistancePass

from conftest import (
    brute_force_join,
    brute_force_join_rows,
    random_acyclic_tables,
    reference_distance_pass,
    reference_merge,
    reference_profile,
    reference_round_up,
    snowflake_tables,
    tied_star,
)

ORIGIN3 = np.zeros(3)


def profile_entries(profile, delta=0.0):
    """The count-level view of a profile: for j = 0, 1, ..., the smallest
    radius holding at least ceil((1+delta)^j) points (j + 1 when exact)."""
    out, j = [], 0
    while True:
        level = math.ceil((1.0 + delta) ** j) if delta > 0 else j + 1
        try:
            out.append(profile.radius_for(level))
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
        radii = [p.radius_for(t, 0.05) for t in range(1, p.total + 1)]
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
    """The one distance pass per center, table by table and separator key
    by separator key, against brute force over the join rows of each
    table's subtree."""

    def test_rows_match_brute_force(self, rng):
        """Every table's message holds, per separator key, the squared
        distances of its subtree's join rows through its rows under that
        key; the root's message, the curve, holds the whole join's.  On
        random schemas until 20 of them join non-empty."""
        joined = 0
        for _ in range(60):
            if joined >= 20:
                break
            tables = random_acyclic_tables(rng, max_tables=4)
            tree = gyo_reduce(tables_to_schema(tables))
            center = rng.normal(size=len({f.name for t in tables
                                          for f in t.features}))
            ev = JoinEvaluator(tree, tables)
            joined += ev.count_scalar() > 0
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
                par = ev.walk_parent[v]
                if par is None:
                    keys, cum = dists.curve
                    got = np.repeat(keys, np.diff(cum, prepend=0.0).astype(int))
                    np.testing.assert_allclose(got, np.sort(want),
                                               rtol=1e-9, atol=1e-12)
                    continue
                ids, keys, counts = dists.sent[v]
                ids_child, _, n = ev.edge_keys(v)
                at_v = [t.id for t in sub].index(v)
                for key in range(n):
                    mine = ids == key
                    got = np.repeat(keys[mine], counts[mine].astype(int))
                    under = ids_child[prov[:, at_v]] == key
                    np.testing.assert_allclose(
                        got, np.sort(want[under]), rtol=1e-9, atol=1e-12)
        assert joined >= 20


class TestAgainstUnfusedPass:
    def test_histograms_byte_identical(self, rng):
        """Merging each node once, straight into its message, with
        integer codes, rounding folded in and the per-center grid, leaves
        every table's message byte for byte the reference pass's histogram
        merged by separator key: exact and bucketed at two deltas, on
        random schemas, half of them with heavily tied values, then on four
        four-spoke stars, tied and untied; at least eight have a non-empty
        join and a table whose children are combined.  Every bucketed pass
        over the stars rounds combined keys that a merge by exact key would
        leave unrounded.  The root's message, the curve, is checked against
        the reference root histogram the same way."""
        bushy = 0
        for attempt in range(54):
            if attempt < 50:
                tables = random_acyclic_tables(rng, max_tables=5, max_rows=10,
                                               integer_values=attempt % 2 == 1)
            else:
                tables = tied_star(n_spokes=4, hub_rows=4, noise=attempt % 2,
                                   seed=attempt)
            tree = gyo_reduce(tables_to_schema(tables))
            ev = JoinEvaluator(tree, tables)
            bushy += ev.count_scalar() > 0 and max(
                len(ev.walk_children[v]) for v in ev.walk) >= 2
            center = rng.normal(size=ev.n_features)
            if attempt % 2:
                center = np.round(center)
            for delta in (None, 0.05, 0.01):
                sampler = BallSampler(ev, center, delta)
                bucketizer, dists = sampler.bucketizer, sampler.dists
                hist = reference_distance_pass(
                    ev, center, delta, bucketizer.v_min if bucketizer else 1.0)
                for v, par in oracle.rooted_order(ev.tree, 0):
                    if par is None:
                        got, want = dists.curve, reference_profile(hist[v])
                    else:
                        rows, keys, counts = hist[v]
                        ids_child = ev.edge_keys(v)[0]
                        got = dists.sent[v]
                        want = reference_merge(ids_child[rows], keys, counts)
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        print(f"{bushy} of 54 schemas join non-empty and combine children")
        assert bushy >= 8

    def test_profiles_byte_identical(self, rng):
        """The profile read off the root's message is, byte for byte, the
        one a sort of the reference pass's root keys builds: exact and
        bucketed at two deltas, on random schemas, half of them with
        heavily tied values, until 50 of them join non-empty."""
        tied = joined = 0
        for attempt in range(150):
            if joined >= 50:
                break
            tables = random_acyclic_tables(rng, max_tables=5, max_rows=10,
                                           integer_values=attempt % 2 == 1)
            tree = gyo_reduce(tables_to_schema(tables))
            ev = JoinEvaluator(tree, tables)
            joined += ev.count_scalar() > 0
            center = rng.normal(size=ev.n_features)
            if attempt % 2:
                center = np.round(center)
            for delta in (None, 0.05, 0.01):
                sampler = BallSampler(ev, center, delta)
                bucketizer, got = sampler.bucketizer, sampler.dists.curve
                root = reference_distance_pass(
                    ev, center, delta,
                    bucketizer.v_min if bucketizer else 1.0)[ev.walk[0]]
                want = reference_profile(root)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                tied += got[0].size < root[1].size
        assert joined >= 50
        assert tied >= 25  # runs of equal root keys are common


class TestOneMergePerTable:
    def test_one_merge_per_table_and_child_past_the_first(self, rng,
                                                          monkeypatch):
        """A table with k walk children makes max(1, k) merges: its message
        merge, plus, for k >= 2, the message merge of each of its k - 1
        combine nodes, which combine its children's messages two at a time
        once per tuple of their separator keys.  Every merge is a message
        merge, so the pass's merged entries are its messages' constituents:
        exact and bucketed, on random schemas, some with tables of three or
        more children.  Only schemas whose join is non-empty count toward
        the minimums."""
        calls = []
        merge = sumprod._merge

        def spy(*args):
            calls.append(args[0].size)
            return merge(*args)
        monkeypatch.setattr(sumprod, "_merge", spy)
        done = deep = wide = 0
        for _ in range(1000):
            if done >= 40 and deep >= 15 and wide >= 8:
                break
            tables = random_acyclic_tables(rng, max_tables=6)
            tree = gyo_reduce(tables_to_schema(tables))
            ev = JoinEvaluator(tree, tables)
            fan_out = [len(ev.walk_children[v]) for v in ev.walk]
            center = rng.normal(size=ev.n_features)
            for delta in (None, 0.05):
                calls.clear()
                dists = BallSampler(ev, center, delta).dists
                assert len(calls) == sum(max(1, k) for k in fan_out)
                assert dists.merge_entries == sum(
                    m.source.size for m in dists.message.values())
            if ev.count_scalar() > 0:
                done += 1
                deep += len(tables) >= 3
                wide += max(fan_out) >= 3
        assert done >= 40 and deep >= 15 and wide >= 8

    def test_tied_star_stays_bounded(self):
        """Combining a hub's spokes two at a time, each combine node merging
        its equal (tuple, code) entries into its message, keeps a ten-spoke
        star of tied codes small: convolving every hub row with all ten
        spokes' messages before one merge merges about 470,000 entries."""
        tables = tied_star()
        ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
        assert list(ev.walk_parent.values()).count(0) == 10
        dists = ev.distance_pass(np.zeros(ev.n_features))
        assert dists.merge_entries < 20_000
        assert dists.curve[1][-1] == ev.count_scalar()

    def test_draws_uniform_through_merges_before_children(self, rng):
        """Draws undo the merges that combine a hub's spokes' messages,
        one per combine node of its second and later spokes: after
        rejection they are uniform over the ball, on tied and on untied
        four-spoke stars, exact and bucketed."""
        n_draws = 20_000
        worst = 0.0
        exercised = 0
        for attempt in range(8):
            tables = tied_star(n_spokes=4, hub_rows=4, noise=attempt % 2,
                               seed=attempt)
            ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
            join = brute_force_join(tables)
            center = rng.normal(size=join.shape[1])
            d2 = sq_dists(join, center[None])[:, 0]
            sq_radius = float(np.median(d2))
            for delta in (None, 0.05):
                sampler = BallSampler(ev, center, delta)
                combine = [sampler.dists.message[~c]
                           for c in ev.walk_children[0][1:]]
                assert len(combine) == 3  # merges of spokes 2, 3 and 4
                exercised += any(m.source.size > m.last.size for m in combine)
                members, mult = np.unique(join[d2 <= sq_radius], axis=0,
                                          return_counts=True)
                pts = sampler.sample_batch([sq_radius], n_draws,
                                           make_rng(attempt))[0]
                seen, inv = np.unique(np.vstack([members, pts]), axis=0,
                                      return_inverse=True)
                assert len(seen) == len(members)  # no draw outside the ball
                got = np.bincount(inv.ravel()[len(members):],
                                  minlength=len(members))
                n_members = int(mult.sum())
                tv = 0.5 * np.abs(got / n_draws - mult / n_members).sum()
                worst = max(worst, tv / math.sqrt(n_members / n_draws))
        print(f"{exercised} of 16 passes merged equal combine entries")
        assert exercised >= 8  # every tied star, exact and bucketed
        assert worst <= 2.0


class TestHeavyKey:
    def test_heavy_hub_key_pass_stays_small(self):
        """One heavy hub key of 50 rows per table on the 5-table snowflake
        (59 more keys at 9 rows, N about 3.2e8): a bucketed pass at
        per-table delta 0.01 around a join point of that key combines T1's
        two children's messages once per key tuple and merges about 207,000
        entries.  Convolving every row with both whole messages merges
        1,394,384."""
        tables = snowflake_tables([50] + [9] * 59)
        ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
        assert ev.count_scalar() == 50 ** 5 + 59 * 9 ** 5
        center = ev.gather(np.zeros((1, len(tables)), dtype=np.int64))[0]
        bucketizer = Bucketizer(0.01, smallest_positive_deviation(tables, center))
        dists = ev.distance_pass(center, bucketizer)
        assert dists.merge_entries < 300_000
        assert dists.curve[1][-1] == ev.count_scalar()


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
        threshold admits a single curve key.  Each ball's draws are
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
                curve_keys = sampler.dists.curve[0]
                nearest = float(d2.min())
                if (curve_keys <= sampler._threshold(np.array([nearest]))).sum() != 1:
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


def rounded(bucketizer, values):
    codes, grid = bucketizer.codes(np.asarray(values, dtype=np.float64))
    return grid[codes]


class TestBucketizer:
    def test_bucketizer_rounds_up_onto_grid(self):
        b = Bucketizer(0.05, 1.0)
        grid_point = 1.05 ** 7
        got = rounded(b, [0.0, 1.0, grid_point, 1.3])
        assert got[:2].tolist() == [0.0, 1.0]
        assert got[2] == pytest.approx(grid_point, rel=1e-12)
        assert 1.3 <= got[3] <= 1.3 * 1.05
        # grid values stay put, so a message may union rounded row keys
        assert rounded(b, got).tolist() == got.tolist()

    def test_codes_index_a_cached_grid_of_python_powers(self, rng):
        """Codes follow the values, the grid they index rounds byte for
        byte as one Python float power per grid index does, and a grid
        value, once computed, stays put as later batches grow the grid."""
        for delta in (0.05, 0.003):
            b = Bucketizer(delta, 1e-4)
            seen = {}
            for scale in (1.0, 1e3, 1e6):
                values = np.append(0.0, rng.uniform(0.0, scale, 400))
                codes, grid = b.codes(values)
                order = np.argsort(values, kind="stable")
                assert (np.diff(codes[order]) >= 0).all()
                assert grid[codes].tobytes() == reference_round_up(
                    delta, 1e-4, values).tobytes()
                for c, v in zip(codes.tolist(), grid[codes].tolist()):
                    assert seen.setdefault(c, v) == v
