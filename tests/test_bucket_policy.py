"""The one bucketing policy (``ballcount.bucket_delta``) and the radius
bound it gives on the weigher's own path.

At ball slack delta over m tables, every distance pass buckets at delta/m
per table.  A ring radius r_j of :func:`compute_weights` then holds at
least ceil((1-delta) * 2^j) join rows and is at most (1+delta/m)^m times
R*_j, the exact smallest squared radius holding that many.
"""

import math

import numpy as np
import pytest

from relkmeans import FeatureId, Table, gyo_reduce, tables_to_schema
from relkmeans import ballcount
from relkmeans.ballcount import bucket_delta, radius_for_count, sample_in_ball
from relkmeans.sampling import make_rng
from relkmeans.weighting import WeightConfig, compute_weights

from conftest import (brute_force_join, random_acyclic_tables,
                      snowflake_tables, tied_star)

RTOL = 1e-9
BAD_SLACKS = (-0.1, math.nan, 0.6, math.inf)


def coded_path(seed: int, n_clusters: int = 3, rows_per_cluster: int = 12,
               levels: int = 3) -> list[Table]:
    """T1(x1,b) - T2(b,y,c) - T3(c,x3) over small integer codes: cluster c
    takes every value from ``levels`` codes starting at 10*c, each equally
    often per column, so join distances are heavily tied."""
    rng = np.random.default_rng(seed)

    def column(off):
        return off + rng.permutation(np.arange(rows_per_cluster) % levels)

    x1, b, y, c, x3 = (FeatureId(n, i) for i, n in enumerate(
        ("x1", "b", "y", "c", "x3")))
    t1, t2, t3 = [], [], []
    for k in range(n_clusters):
        off = 10 * k
        t1.append(np.column_stack([column(off), column(off)]))
        t2.append(np.column_stack([column(off), column(off), column(off)]))
        t3.append(np.column_stack([column(off), column(off)]))
    return [Table(0, "T1", (x1, b), np.vstack(t1).astype(float)),
            Table(1, "T2", (b, y, c), np.vstack(t2).astype(float)),
            Table(2, "T3", (c, x3), np.vstack(t3).astype(float))]


def check_ring_radii(tables, centers, cfg) -> int:
    """Run the weigher and check every ring radius 0 < r_j < inf against the
    materialized join; returns the number of radii checked."""
    tree = gyo_reduce(tables_to_schema(tables))
    joined = brute_force_join(tables)
    _, stats = compute_weights(tree, tables, centers, cfg)
    slack, m = cfg.ball_slack, len(tables)
    factor = (1.0 + slack / m) ** m
    d2_of = [np.sort(((joined - c) ** 2).sum(axis=1)) for c in centers]
    checked = 0
    for s in stats:
        r = s.sq_radius
        if not 0.0 < r < math.inf:
            continue
        d2 = d2_of[s.center_index]
        need = math.ceil((1.0 - slack) * 2 ** s.ring_index)
        exact_r = d2[need - 1]  # R*_j
        assert int((d2 <= r * (1.0 + RTOL)).sum()) >= need, (s, need)
        assert r <= factor * exact_r * (1.0 + RTOL), (s, exact_r, factor)
        checked += 1
    return checked


class TestRingRadiusBound:
    @pytest.mark.parametrize("epsilon,delta", [(0.1, None), (0.2, 0.02)])
    def test_random_acyclic_schemas(self, rng, epsilon, delta):
        cfg = WeightConfig(epsilon=epsilon, delta=delta, max_ring_samples=2)
        checked = done = 0
        for _ in range(200):
            if done >= 25:
                break
            tables = random_acyclic_tables(rng, max_tables=4, max_rows=10)
            joined = brute_force_join(tables)
            if len(joined) < 8:
                continue
            centers = np.vstack([joined[rng.integers(len(joined), size=3)],
                                 rng.normal(size=(1, joined.shape[1]))])
            checked += check_ring_radii(tables, centers, cfg)
            done += 1
        assert done >= 25 and checked >= 100

    @pytest.mark.parametrize("epsilon,delta", [(0.1, None), (0.2, 0.02)])
    def test_integer_tied_path(self, epsilon, delta):
        cfg = WeightConfig(epsilon=epsilon, delta=delta, max_ring_samples=2)
        checked = 0
        for seed in range(2):
            tables = coded_path(seed)
            joined = brute_force_join(tables)
            assert len(joined) == 3 * 12 * 4 ** 2
            pick = np.random.default_rng(seed).integers(len(joined), size=4)
            checked += check_ring_radii(tables, joined[pick], cfg)
        assert checked >= 40

    @pytest.mark.parametrize("epsilon,delta", [(0.1, None), (0.2, 0.02)])
    def test_tables_with_combined_children(self, epsilon, delta):
        """Where a table's children's messages are combined and rounded
        once per key tuple: a four-spoke star of tied codes, whose hub has
        four children, and the smallest snowflake-wide shape, whose T1 has
        two."""
        cfg = WeightConfig(epsilon=epsilon, delta=delta, max_ring_samples=2)
        checked = 0
        for tables in (tied_star(n_spokes=4, hub_rows=4),
                       snowflake_tables([2, 2, 2])):
            joined = brute_force_join(tables)
            pick = np.random.default_rng(0).integers(len(joined), size=3)
            centers = np.vstack([joined[pick], np.full(joined.shape[1], 0.5)])
            checked += check_ring_radii(tables, centers, cfg)
        assert checked >= 40


class TestOnePolicy:
    @pytest.fixture
    def bucket_deltas(self, monkeypatch) -> list:
        """Gains the per-table delta of every ball sampler built."""
        seen = []
        init = ballcount.BallSampler.__init__

        def spy(self, ev, center, delta=None):
            seen.append(delta)
            init(self, ev, center, delta)
        monkeypatch.setattr(ballcount.BallSampler, "__init__", spy)
        return seen

    @pytest.mark.parametrize("epsilon,delta", [(0.1, None), (0.2, 0.02)])
    def test_weigher_and_helpers_bucket_alike(self, path_tree, path_tables,
                                              bucket_deltas, epsilon, delta):
        cfg = WeightConfig(epsilon=epsilon, delta=delta, max_ring_samples=2)
        slack, m = cfg.ball_slack, len(path_tables)
        center = np.array([1.0, 1.0, 1.0])
        compute_weights(path_tree, path_tables, [center], cfg)
        weigher = set(bucket_deltas)
        bucket_deltas.clear()
        radius = radius_for_count(path_tree, path_tables, center, 4, slack)
        counter = set(bucket_deltas)
        bucket_deltas.clear()
        sample_in_ball(path_tree, path_tables, center, radius, slack,
                       make_rng(0), size=4)
        sampler = set(bucket_deltas)
        assert weigher == counter == sampler == {slack / m}
        assert bucket_delta(slack, m) == slack / m

    def test_zero_slack_is_the_exact_pass(self, path_tree, path_tables,
                                          bucket_deltas):
        assert bucket_delta(0.0, 3) is None
        center = np.zeros(3)
        # the path fixture's squared distances to the origin: 3, 6, 6, 9, 22
        assert radius_for_count(path_tree, path_tables, center, 3, 0.0) == 6.0
        pts = sample_in_ball(path_tree, path_tables, center, 6.0, 0.0,
                             make_rng(1), size=50)
        assert ((pts ** 2).sum(axis=1) <= 6.0).all()
        assert bucket_deltas == [None, None]

    def test_default_slack_keeps_the_weighers_old_bucket(self):
        """At delta = epsilon/2 the policy is the float epsilon / (2m)."""
        rng = np.random.default_rng(7)
        for eps, m in zip(rng.uniform(1e-6, 0.2, 2000),
                          rng.integers(1, 40, 2000)):
            cfg = WeightConfig(epsilon=float(eps))
            assert bucket_delta(cfg.ball_slack, int(m)) == eps / (2 * int(m))


class TestSlackChecked:
    @pytest.mark.parametrize("slack", BAD_SLACKS)
    def test_radius_for_count_rejects_bad_slack(self, path_tree, path_tables,
                                                slack):
        with pytest.raises(ValueError, match="ball slack delta"):
            radius_for_count(path_tree, path_tables, np.zeros(3), 2, slack)

    @pytest.mark.parametrize("slack", BAD_SLACKS)
    def test_sample_in_ball_rejects_bad_slack(self, path_tree, path_tables,
                                              slack):
        with pytest.raises(ValueError, match="ball slack delta"):
            sample_in_ball(path_tree, path_tables, np.zeros(3), 6.0, slack,
                           make_rng(0))

    def test_slack_of_one_half_buckets(self):
        assert bucket_delta(0.5, 2) == 0.25
