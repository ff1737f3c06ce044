import json
import math
import time
import weakref

import numpy as np
import pytest

from relkmeans import FeatureId, JoinEvaluator, Table, gyo_reduce, tables_to_schema
from relkmeans.ballcount import BallSampler
from relkmeans.boxes import sq_dists
from relkmeans.cli import main
from relkmeans.clustering import relational_cost
from relkmeans.sampling import run_kmeanspp
from relkmeans.sumprod import DistancePass
from relkmeans.weighting import (
    RingStats,
    WeightConfig,
    WeightedCoreset,
    compute_weights,
    ring_sample_size,
)

from conftest import brute_force_join


def single_table_db(values):
    rows = np.asarray(values, dtype=float).reshape(len(values), -1)
    feats = tuple(FeatureId(f"x{i}", i) for i in range(rows.shape[1]))
    t = Table(0, "T", feats, rows)
    return [t], gyo_reduce(tables_to_schema([t]))


@pytest.fixture
def two_cluster_db(rng):
    half = 16
    a = np.sort(rng.uniform(0, 4, size=half))
    b = np.sort(rng.uniform(100, 104, size=half))
    return single_table_db(np.concatenate([a, b])) + (np.concatenate([a, b]),)


class TestNearestCenter:
    def test_point_at_center(self):
        cs = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.argmin(sq_dists(np.array([[3.0, 4.0]]), cs), axis=1).tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        cs = np.array([[0.0], [2.0]])
        assert np.argmin(sq_dists(np.array([[1.0]]), cs), axis=1).tolist() == [0]

    def test_matches_brute_force(self, rng):
        cs = rng.normal(size=(6, 3))
        pts = rng.normal(size=(50, 3))
        d2 = ((cs[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(sq_dists(pts, cs), axis=1),
                              np.argmin(d2, axis=1))


class TestConfig:
    def test_delta_defaults_to_half_epsilon(self):
        cfg = WeightConfig(epsilon=0.15)
        assert cfg.ball_slack == pytest.approx(0.075)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WeightConfig(epsilon=0.3)
        with pytest.raises(ValueError):
            WeightConfig(epsilon=0.1, delta=0.2)
        for delta in (-0.5, 0.0):
            with pytest.raises(ValueError, match="delta"):
                WeightConfig(epsilon=0.1, delta=delta)
        with pytest.raises(ValueError):
            WeightConfig(tau=10)
        for epsilon in (1e-160, 1e-300):  # tau / eps^2 past the float range
            with pytest.raises(ValueError, match="overflows a float"):
                WeightConfig(epsilon=epsilon)

    def test_sample_size_formula_and_cap(self):
        cfg = WeightConfig(epsilon=0.1, tau=30)
        want = math.ceil(30 / 0.01 * 4 * math.log2(64) ** 2)
        assert ring_sample_size(cfg, 2, 64) == want
        capped = WeightConfig(epsilon=0.1, max_ring_samples=1000)
        assert ring_sample_size(capped, 2, 64) == 1000
        # 3e307 * 5^2 * lg^2 5 overflows: only a cap gives a size
        huge = WeightConfig(epsilon=1e-153)
        with pytest.raises(ValueError, match="ring-cap"):
            ring_sample_size(huge, 5, 5)
        capped = WeightConfig(epsilon=1e-153, max_ring_samples=4)
        assert ring_sample_size(capped, 5, 5) == 4


class TestComputeWeights:
    def test_single_center_total_near_n(self):
        n = 64
        tables, tree = single_table_db(np.arange(n, dtype=float))
        cfg = WeightConfig(epsilon=0.2, seed=3)
        coreset, stats = compute_weights(tree, tables, [np.array([0.0])], cfg)
        total = coreset.weights.sum()
        delta, eps = cfg.ball_slack, cfg.epsilon
        assert (1 - delta) * n <= total + 1 <= (1 + delta) * (1 + eps) * n + 1
        assert all(s.ratio == 1.0 for s in stats if s.samples > 0)

    def test_two_separated_clusters_split_evenly(self, two_cluster_db):
        tables, tree, values = two_cluster_db
        n = len(values)
        centers = [np.array([values[3]]), np.array([values[20]])]
        cfg = WeightConfig(epsilon=0.2, seed=11)
        coreset, _ = compute_weights(tree, tables, centers, cfg)
        slack = 2 * cfg.epsilon + cfg.ball_slack
        for w in coreset.weights:
            assert (1 - slack) * n / 2 <= w + 1 <= (1 + slack) * n / 2 + 1

    def test_duplicate_center_aliasing(self):
        tables, tree = single_table_db(np.arange(16, dtype=float))
        c = np.array([3.0])
        coreset, _ = compute_weights(
            tree, tables, [c, c.copy(), np.array([9.0])],
            WeightConfig(epsilon=0.2, seed=5, max_ring_samples=2000))
        assert coreset.alias == {0: 0, 1: 0, 2: 2}
        assert coreset.weights[1] == 0.0
        assert coreset.weights[0] > 0.0

    def test_signed_zero_centers_alias(self):
        # -0.0 is the same point as 0.0, so it must not claim the radius-0
        # first ring of the join rows at 0
        tables, tree = single_table_db([0.0, 0.0, 1.0, 2.0, 3.0])
        coreset, _ = compute_weights(
            tree, tables, np.array([[0.0], [-0.0], [3.0]]),
            WeightConfig(epsilon=0.2, seed=5, max_ring_samples=2000))
        assert coreset.alias == {0: 0, 1: 0, 2: 2}
        assert coreset.weights[1] == 0.0
        assert coreset.weights[0] > 0.0

    def test_deterministic_given_seed(self):
        tables, tree = single_table_db(np.arange(32, dtype=float))
        centers = [np.array([2.0]), np.array([25.0])]
        cfg = WeightConfig(epsilon=0.2, seed=7, max_ring_samples=3000)
        a, stats_a = compute_weights(tree, tables, centers, cfg)
        b, stats_b = compute_weights(tree, tables, centers, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert stats_a == stats_b

    def test_ring_estimates_track_true_fractions(self, two_cluster_db):
        # wherever the true donut fraction is comfortably above threshold,
        # the sampled ratio lands within epsilon of it
        tables, tree, values = two_cluster_db
        n = len(values)
        centers = np.array([[values[3]], [values[20]]])
        cfg = WeightConfig(epsilon=0.2, seed=13)
        _, stats = compute_weights(tree, tables, centers, cfg)
        pts = brute_force_join(tables)
        threshold = 1 / (2 * len(centers) ** 2 * math.log2(n))
        checked = 0
        by_center: dict[int, float] = {}
        for s in stats:
            prev = by_center.get(s.center_index, -math.inf)
            d2 = ((pts - centers[s.center_index]) ** 2).sum(axis=1)
            in_donut = (d2 > prev) & (d2 <= s.sq_radius)
            by_center[s.center_index] = s.sq_radius
            if not in_donut.any() or s.samples == 0:
                continue
            donut_pts = pts[in_donut]
            owners = np.argmin(sq_dists(donut_pts, centers), axis=1)
            f_true = float((owners == s.center_index).mean())
            if f_true > (1 + cfg.epsilon) * threshold:
                assert abs(s.ratio - f_true) <= cfg.epsilon * max(f_true, 1e-9)
                checked += 1
        assert checked >= 4

    def test_join_rows_at_centers_are_counted(self):
        # every join row coincides with a center: the first donut, closed
        # at 0, is the only one that holds a center's own rows
        tables, tree = single_table_db([0, 0, 0, 5, 5, 5, 9, 9])
        centers = [np.array([0.0]), np.array([5.0]), np.array([9.0])]
        coreset, stats = compute_weights(
            tree, tables, centers,
            WeightConfig(epsilon=0.2, seed=1, max_ring_samples=400))
        assert (coreset.weights > 0).all()
        assert all(s.wins == s.samples for s in stats if s.ring_index == 1)

    def test_radius_zero_rings_draw_nothing(self, monkeypatch):
        # a first ring of radius 0 holds only the center: its fraction is 1
        # without a draw, and the weights are what the draws gave
        radii = []
        sample_batch = BallSampler.sample_batch

        def spy(self, sq_radii, size, rng):
            radii.extend(np.asarray(sq_radii).tolist())
            return sample_batch(self, sq_radii, size, rng)
        monkeypatch.setattr(BallSampler, "sample_batch", spy)
        tables, tree = single_table_db([0, 0, 0, 5, 5, 5, 9, 9])
        centers = [np.array([0.0]), np.array([5.0]), np.array([9.0])]
        coreset, stats = compute_weights(
            tree, tables, centers,
            WeightConfig(epsilon=0.2, seed=1, max_ring_samples=400))
        assert radii and 0.0 not in radii
        assert coreset.weights.tolist() == [1.0, 1.0, 1.0]
        assert [s for s in stats if s.ring_index == 1] == [
            RingStats(i, 1, 0.0, 400, 400, 1.0) for i in range(3)]

    def test_passes_per_center_do_not_grow_with_rings(self, monkeypatch):
        passes = []
        distance_pass = JoinEvaluator.distance_pass

        def spy(self, center, bucketizer=None):
            passes.append(center.tobytes())
            return distance_pass(self, center, bucketizer)
        monkeypatch.setattr(JoinEvaluator, "distance_pass", spy)
        per_center = []
        for n in (16, 1024):  # 4 and 10 rings per center
            passes.clear()
            tables, tree = single_table_db(np.arange(n, dtype=float))
            centers = [np.array([1.0]), np.array([1.0]), np.array([n - 3.0])]
            compute_weights(tree, tables, centers,
                            WeightConfig(epsilon=0.2, seed=2, max_ring_samples=50))
            assert len(set(passes)) == 2
            per_center.append(len(passes) / 2)
        assert per_center[0] == per_center[1] == 1

    def test_one_pass_alive_at_a_time(self, monkeypatch):
        """Each center's distance pass is freed before the next center's
        is built, so the weigher holds one pass at a time."""
        passes, alive = [], []
        distance_pass = JoinEvaluator.distance_pass

        def spy(self, center, bucketizer=None):
            alive.append(sum(ref() is not None for ref in passes))
            dists = distance_pass(self, center, bucketizer)
            passes.append(weakref.ref(dists))
            return dists
        monkeypatch.setattr(JoinEvaluator, "distance_pass", spy)
        tables, tree = single_table_db(np.arange(64, dtype=float))
        centers = [np.array([1.0]), np.array([20.0]), np.array([40.0]),
                   np.array([63.0])]
        compute_weights(tree, tables, centers,
                        WeightConfig(epsilon=0.2, seed=3, max_ring_samples=50))
        assert alive == [0, 0, 0, 0]

    def test_draw_calls_do_not_grow_with_rings(self, monkeypatch):
        # squared distances to either center grow by more than the
        # widening (1 + delta)^m = 1.1 from one point to the next, so no
        # draw is rejected and every center takes one rejection round
        calls = []
        draw = DistancePass.draw

        def spy(self, thresholds, rng):
            # the pass itself, not its id: a freed pass's id can be reused
            calls.append((self, np.unique(thresholds).size))
            return draw(self, thresholds, rng)
        monkeypatch.setattr(DistancePass, "draw", spy)
        for n, n_rings in ((16, 4), (1024, 10)):
            calls.clear()
            tables, tree = single_table_db(1.2 ** np.arange(n))
            centers = [np.array([0.0]), np.array([0.0]), np.array([-0.5])]
            compute_weights(tree, tables, centers,
                            WeightConfig(epsilon=0.2, seed=2, max_ring_samples=50))
            assert len(calls) == len({c for c, _ in calls}) == 2
            assert [rings for _, rings in calls] == [n_rings, n_rings]

    def test_rings_above_threshold_count_only_weighted_rings(self):
        # around 0, the ring at squared radius 36 holds the point at -6,
        # nearest to 0, and 127 points at 6, nearest to 10: its fraction,
        # about 1/128, lies under the threshold 1/64 but above 0
        values = [0.0] * 64 + [-6.0] + [6.0] * 127 + [10.0] * 64
        tables, tree = single_table_db(values)
        coreset, stats = compute_weights(
            tree, tables, [np.array([0.0]), np.array([10.0])],
            WeightConfig(epsilon=0.2, seed=0, max_ring_samples=2000))
        threshold = 1 / (2 * 2 ** 2 * math.log2(len(values)))
        assert [(s.center_index, s.sq_radius) for s in stats
                if 0 < s.ratio < threshold] == [(0, 36.0)]
        counted = [s for s in stats if s.ratio >= threshold]
        assert coreset.telemetry.rings_above_threshold == len(counted)
        for i in (0, 1):
            assert coreset.weights[i] == pytest.approx(sum(
                s.ratio * 2.0 ** (s.ring_index - 1)
                for s in counted if s.center_index == i))

    def test_telemetry_counters(self):
        tables, tree = single_table_db(np.arange(64, dtype=float))
        centers = [np.array([1.0]), np.array([1.0]), np.array([40.0]),
                   np.array([63.0])]
        cfg = WeightConfig(epsilon=0.2, seed=4, max_ring_samples=50)
        a, stats = compute_weights(tree, tables, centers, cfg)
        b, _ = compute_weights(tree, tables, centers, cfg)
        assert a.telemetry == b.telemetry
        t = a.telemetry
        assert t.distance_passes == 3
        assert t.rings == len(stats) == 3 * 6
        prev = {}
        skipped = 0
        for s in stats:
            skipped += s.sq_radius <= prev.get(s.center_index, -math.inf)
            prev[s.center_index] = max(s.sq_radius,
                                       prev.get(s.center_index, -math.inf))
        assert t.rings_skipped == skipped
        assert t.ring_draws == 50 * (t.rings - t.rings_skipped)
        assert t.ring_candidates >= t.ring_draws
        assert t.ring_cap_bound
        uncapped, _ = compute_weights(tree, tables, [np.array([1.0])],
                                      WeightConfig(epsilon=0.2, seed=4))
        assert not uncapped.telemetry.ring_cap_bound

    def test_wins_match_nearest_center_over_all_centers(self, rng,
                                                         monkeypatch):
        # a ring's nearest-center test reads only the centers within 2r of
        # its own; the wins must be those of the test over every center,
        # also where a center between r and 2r away wins donut points
        batches = []
        sample_batch = BallSampler.sample_batch

        def spy(self, sq_radii, size, rng):
            out = sample_batch(self, sq_radii, size, rng)
            batches.append((np.asarray(sq_radii).tolist(), out))
            return out
        monkeypatch.setattr(BallSampler, "sample_batch", spy)
        checked = beaten_from_afar = 0
        for _ in range(4):
            points = rng.normal(size=(120, 2))
            tables, tree = single_table_db(points)
            cs = points[rng.choice(len(points), size=8, replace=False)]
            batches.clear()
            _, stats = compute_weights(
                tree, tables, cs,
                WeightConfig(epsilon=0.2, seed=3, max_ring_samples=300))
            prev = {}
            for s in stats:
                lower = prev.get(s.center_index, -math.inf)
                prev[s.center_index] = max(lower, s.sq_radius)
                if s.samples == 0 or s.sq_radius <= max(lower, 0.0):
                    continue
                radii, draws = batches[s.center_index]
                pts = draws[radii.index(s.sq_radius)]
                d2 = sq_dists(pts, cs[s.center_index][None])[:, 0]
                donut = pts[(d2 > lower) & (d2 <= s.sq_radius)]
                owner = np.argmin(sq_dists(donut, cs), axis=1)
                assert int((owner == s.center_index).sum()) == s.wins
                gaps = sq_dists(cs[owner], cs[s.center_index][None])[:, 0]
                beaten_from_afar += int((gaps > s.sq_radius).any())
                checked += 1
        assert checked >= 40 and beaten_from_afar >= 5

    def test_rejects_tiny_join(self):
        tables, tree = single_table_db([0.0])
        with pytest.raises(ValueError, match="at least 2"):
            compute_weights(tree, tables, [np.array([0.0])],
                            WeightConfig(epsilon=0.2))


def thirteen_table_star(r=40):
    """13 tables of 2r rows, r per key value: N = 2 * r^13 (~1.3e21 at the
    default r = 40)."""
    rng = np.random.default_rng(13)
    key = np.repeat([0.0, 1.0], r)
    tables = [Table(i, f"T{i}", (FeatureId("k", 0), FeatureId(f"x{i}", i + 1)),
                    np.column_stack([key, 10 * key + rng.normal(size=2 * r)]))
              for i in range(13)]
    return tables, gyo_reduce(tables_to_schema(tables))


def twelve_leaf_hub():
    """Hub H(k1..k12) of 2 rows, all keys 0 or all 1, and leaves L_i(k_i,
    x_i) of 80 rows, 40 per key value: N = 2 * 40^12 ~ 3.4e19.  The join
    tree is a star around H, which the walk visits first."""
    rng = np.random.default_rng(12)
    keys = [FeatureId(f"k{i}", i) for i in range(12)]
    key = np.repeat([0.0, 1.0], 40)
    tables = [Table(0, "H", tuple(keys), np.repeat([[0.0], [1.0]], 12, axis=1))]
    tables += [Table(i + 1, f"L{i}", (keys[i], FeatureId(f"x{i}", 12 + i)),
                     np.column_stack([key, 10 * key + rng.normal(size=80)]))
               for i in range(12)]
    return tables, gyo_reduce(tables_to_schema(tables))


class TestHugeJoin:
    def test_thirteen_table_star_past_two_to_the_63(self):
        tables, tree = thirteen_table_star()
        n = 2 * 40.0 ** 13
        centers = [np.r_[0.0, np.zeros(13)], np.r_[1.0, np.full(13, 10.0)]]
        coreset, _ = compute_weights(
            tree, tables, centers, WeightConfig(seed=0, max_ring_samples=4))
        assert np.isfinite(coreset.weights).all()
        assert n / 2 <= coreset.weights.sum() <= 2 * n

    @pytest.mark.parametrize("make", [thirteen_table_star, twelve_leaf_hub])
    def test_kmeanspp_past_two_to_the_63(self, make):
        # stage weights run past 2^63; the 13-table star's join tree is a
        # path, while on the hub the stage of leaf i still holds the
        # pending messages of the 11 - i leaves after it
        tables, tree = make()
        start = time.perf_counter()
        centers, state = run_kmeanspp(tree, tables, 4, seed=0)
        assert time.perf_counter() - start < 30.0
        assert len(centers) == 4 and len(state.telemetry) == 3
        for c in centers:
            # a point is a join row iff every table holds its projection
            for t in tables:
                proj = c[[f.index for f in t.features]]
                assert (t.rows == proj).all(axis=1).any()
        cost = relational_cost(JoinEvaluator(tree, tables), np.array(centers))
        assert np.isfinite(cost) and cost > 0.0


class TestExactJoinCount:
    """Past 2^53 a float64 count drifts: 2 * 41^13 would read 1,886,994
    low and 2 * 43^13 3,762,250 high."""

    @pytest.mark.parametrize("r", [41, 43, 300])
    def test_count_scalar_is_exact(self, r):
        tables, tree = thirteen_table_star(r)
        n = JoinEvaluator(tree, tables).count_scalar()
        assert n == 2 * r ** 13 and type(n) is int

    def test_cli_document_count_is_exact(self, tmp_path, capsys):
        tables, _ = thirteen_table_star(41)
        lines = []
        for t in tables:
            cols = ",".join(t.feature_names())
            body = "".join(f"{k!r},{x!r}\n" for k, x in t.rows.tolist())
            (tmp_path / f"{t.name}.csv").write_text(f"{cols}\n{body}")
            lines.append(f"{t.name}: {cols} @ {t.name}.csv\n")
        doc = tmp_path / "star.txt"
        doc.write_text("".join(lines))
        code = main(["--schema", str(doc), "--k", "1", "--mode", "coreset",
                     "--ring-cap", "4", "--coreset-factor", "0.01"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n_join_rows"] == 2 * 41 ** 13


def test_stages_match_with_and_without_an_evaluator(path_tables, path_tree):
    """run_kmeanspp and compute_weights give the same results on their own
    evaluators as on one evaluator shared with the join count, as the CLI
    runs them."""
    tables, tree = path_tables, path_tree
    cfg = WeightConfig(seed=4, max_ring_samples=50)
    own_centers, own_state = run_kmeanspp(tree, tables, 3, seed=2)
    own, own_stats = compute_weights(tree, tables, own_centers, cfg)
    ev = JoinEvaluator(tree, tables)
    assert ev.count_scalar() == 5
    centers, state = run_kmeanspp(tree, tables, 3, seed=2, ev=ev)
    coreset, stats = compute_weights(tree, tables, centers, cfg, ev=ev)
    assert state.ev is ev
    np.testing.assert_array_equal(centers, own_centers)
    assert state.telemetry == own_state.telemetry
    assert state.forest_telemetry == own_state.forest_telemetry
    np.testing.assert_array_equal(coreset.weights, own.weights)
    assert coreset.alias == own.alias and coreset.telemetry == own.telemetry
    assert stats == own_stats
