import json
import math

import numpy as np
import pytest

from relkmeans import ballcount, boxes, sampling, weighting
from relkmeans.cli import CyclicSchemaError, RunConfig, main, run

TABLE1 = "f1,f2\n1,1\n2,1\n3,2\n4,3\n5,4\n"
TABLE2 = "f2,f3\n1,1\n1,2\n2,3\n5,4\n5,5\n"
# eight rows on three distinct points
CODED = "x\n0\n0\n0\n5\n5\n5\n9\n9\n"


@pytest.fixture
def schema_path(tmp_path):
    (tmp_path / "t1.csv").write_text(TABLE1)
    (tmp_path / "t2.csv").write_text(TABLE2)
    doc = tmp_path / "schema.txt"
    doc.write_text("T1: f1,f2 @ t1.csv\nT2: f2,f3 @ t2.csv\n")
    return str(doc)


@pytest.fixture
def cyclic_path(tmp_path):
    for name, cols in (("a", "a,b"), ("b", "b,c"), ("c", "c,a")):
        (tmp_path / f"{name}.csv").write_text(f"{cols}\n0,0\n")
    doc = tmp_path / "cyclic.txt"
    doc.write_text("A: a,b @ a.csv\nB: b,c @ b.csv\nC: c,a @ c.csv\n")
    return str(doc)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestModes:
    def test_verify_reports_cost_ratio(self, schema_path, capsys, tmp_path):
        out_path = str(tmp_path / "r.json")
        code, out, _ = run_cli(
            ["--schema", schema_path, "--k", "2", "--mode", "verify",
             "--seed", "3", "--ring-cap", "4000", "--out", out_path], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n_join_rows"] == 5
        assert "cost_ratio" in doc and doc["cost_ratio"] >= 0
        assert doc["exact_cost"] >= 0 and doc["baseline_cost"] >= 0
        assert json.loads(open(out_path).read()) == doc

    def test_coreset_mode_stops_early(self, schema_path, capsys):
        code, out, _ = run_cli(
            ["--schema", schema_path, "--k", "2", "--mode", "coreset",
             "--seed", "1", "--ring-cap", "4000"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "sampled_centers" in doc and "weights" in doc
        assert "final_centers" not in doc and "exact_cost" not in doc

    def test_cluster_mode_has_surrogate_cost(self, schema_path, capsys):
        code, out, _ = run_cli(
            ["--schema", schema_path, "--k", "2", "--seed", "1", "--ring-cap", "4000"], capsys)
        doc = json.loads(out)
        assert code == 0
        assert "surrogate_cost" in doc and "exact_cost" not in doc


    def test_rows_at_centers_weigh_their_centers(self, tmp_path, capsys):
        # k' covers the join, so every join row becomes a sampled center
        (tmp_path / "t.csv").write_text(CODED)
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        code, out, err = run_cli(
            ["--schema", str(doc), "--k", "2", "--ring-cap", "400"], capsys)
        assert code == 0
        assert "all ring fractions under threshold" not in err
        result = json.loads(out)
        assert sorted(c[0] for c in result["sampled_centers"]) == [0.0, 5.0, 9.0]
        assert all(w > 0 for w in result["weights"])


class TestDiagnostics:
    def test_cyclic_schema_exits_2_with_residual(self, cyclic_path, capsys):
        code, _, err = run_cli(["--schema", cyclic_path, "--k", "2"], capsys)
        assert code == 2
        assert "cyclic schema" in err and "residual hypergraph" in err

    def test_cyclic_schema_raises_typed_error(self, cyclic_path):
        with pytest.raises(CyclicSchemaError, match="residual hypergraph"):
            run(RunConfig(schema=cyclic_path, k=2))

    def test_parse_failure_exits_1(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("x\nnot_a_number\n")
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        code, _, err = run_cli(["--schema", str(doc), "--k", "1"], capsys)
        assert code == 1
        assert "t.csv:2" in err

    def test_guard_breach_in_baseline_mode(self, schema_path, capsys):
        code, _, err = run_cli(
            ["--schema", schema_path, "--k", "2", "--mode", "baseline",
             "--guard", "3"], capsys)
        assert code == 3
        assert "guard" in err

    def test_bad_epsilon_rejected(self, schema_path, capsys):
        # delta must lie in (0, epsilon/2]; every bad knob fails before any
        # table is read
        for bad, named in ((["--epsilon", "0.5"], "epsilon"),
                           (["--delta", "-0.5"], "epsilon"),
                           (["--delta", "0.9"], "epsilon"),
                           (["--ring-cap", "-1"], "ring cap"),
                           (["--ring-cap", "0"], "ring cap"),
                           (["--coreset-factor", "nan"], "coreset factor"),
                           (["--coreset-factor", "inf"], "coreset factor"),
                           (["--coreset-factor", "0"], "coreset factor")):
            code, out, err = run_cli(
                ["--schema", schema_path, "--k", "2", *bad], capsys)
            assert code == 1 and out == ""
            assert err.count("error:") == 1 and named in err
            assert "[load]" not in err

    def test_too_few_distinct_points_exits_1(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text(CODED)
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        code, out, err = run_cli(
            ["--schema", str(doc), "--k", "4", "--ring-cap", "400"], capsys)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "3 distinct points" in err
        assert "Traceback" not in err


def _never_accept(monkeypatch):
    # true cost 0 everywhere: every candidate is rejected
    monkeypatch.setattr(sampling, "sq_dists",
                        lambda pts, cs: np.zeros((len(pts), len(cs))))


def _empty_ball(monkeypatch):
    monkeypatch.setattr(ballcount.BallSampler, "_threshold",
                        lambda self, sq_radii: np.full(len(sq_radii), -1.0))


def _target_past_join(monkeypatch):
    def short(self, count):
        raise ballcount.TargetExceedsN(f"needed {count} points")
    monkeypatch.setattr(ballcount.DistanceProfile, "smallest_radius_for", short)


def _boxes_never_meld(monkeypatch):
    monkeypatch.setattr(boxes, "_strict_overlaps",
                        lambda low, high: np.zeros((len(low),) * 2, dtype=bool))


def _ball_draws_exhausted(monkeypatch):
    monkeypatch.setattr(ballcount, "MAX_DRAW_ROUNDS", 0)


def _empty_profile(monkeypatch):
    def empty(tree, tables, center, delta=None, dists=None):
        return ballcount.DistanceProfile(center, delta or 0.0, np.array([]),
                                         np.array([]), len(tables))
    monkeypatch.setattr(weighting, "distance_profile", empty)


class TestSamplingGaveUp:
    @pytest.mark.parametrize("give_up", [
        _never_accept, _empty_ball, _target_past_join, _boxes_never_meld,
        _ball_draws_exhausted, _empty_profile])
    def test_exits_4_with_one_line(self, schema_path, capsys, monkeypatch,
                                   give_up):
        give_up(monkeypatch)
        with np.errstate(over="ignore"):
            code, out, err = run_cli(
                ["--schema", schema_path, "--k", "2", "--ring-cap", "400"],
                capsys)
        assert code == 4 and out == ""
        lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1
        assert "sampling gave up" in lines[0] and "another --seed" in lines[0]
        assert "Traceback" not in err


class TestEvaluators:
    def test_cluster_run_builds_three_evaluators(self, schema_path, capsys,
                                                 evaluators_built):
        """One for the join count and the surrogate cost, one for sampling
        and one for weighing, whatever k' is."""
        code, out, _ = run_cli(
            ["--schema", schema_path, "--k", "2", "--seed", "1",
             "--ring-cap", "400"], capsys)
        assert code == 0
        assert json.loads(out)["telemetry"]["sampled"] == 5
        assert len(evaluators_built) == 3


class TestDeterminism:
    def test_forest_counters_repeat(self, schema_path, capsys):
        args = ["--schema", schema_path, "--k", "2", "--mode", "coreset",
                "--seed", "5", "--ring-cap", "400"]
        keys = ("forests_built", "forest_boxes_sum", "forest_boxes_max",
                "costpair_terms")
        telems = []
        for _ in range(2):
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            telems.append(json.loads(out)["telemetry"])
        a, b = ({key: t[key] for key in keys} for t in telems)
        assert a == b
        assert a["forests_built"] == telems[0]["sampled"] - 1
        # every forest is sampled from, each with 2 * boxes - 1 terms
        assert a["costpair_terms"] == 2 * a["forest_boxes_sum"] - a["forests_built"]
        assert 1 <= a["forest_boxes_max"] <= a["forest_boxes_sum"]

    def test_weigh_counters_repeat(self, schema_path, capsys):
        args = ["--schema", schema_path, "--k", "2", "--mode", "coreset",
                "--seed", "5", "--ring-cap", "400"]
        docs = []
        for _ in range(2):
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            docs.append(json.loads(out))
        telem = docs[0]["telemetry"]
        assert telem == docs[1]["telemetry"]
        distinct = {tuple(c) for c in docs[0]["sampled_centers"]}
        assert telem["distance_passes"] == len(distinct)
        assert telem["rings"] == len(distinct) * math.ceil(
            math.log2(docs[0]["n_join_rows"]))
        assert telem["ring_draws"] == 400 * (
            telem["rings"] - telem["rings_skipped"])
        assert telem["ring_candidates"] >= telem["ring_draws"]
        assert telem["ring_cap_bound"] is True

    def test_identical_runs_byte_identical(self, schema_path, tmp_path, capsys):
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["--schema", schema_path, "--k", "2", "--mode", "verify",
                "--seed", "42", "--ring-cap", "4000"]
        assert main(args + ["--out", out_a]) == 0
        capsys.readouterr()
        assert main(args + ["--out", out_b]) == 0
        capsys.readouterr()
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_different_seeds_differ(self, schema_path, tmp_path, capsys):
        out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        base = ["--schema", schema_path, "--k", "2", "--mode", "coreset",
                "--ring-cap", "4000"]
        assert main(base + ["--seed", "1", "--out", out_a]) == 0
        assert main(base + ["--seed", "2", "--out", out_b]) == 0
        capsys.readouterr()
        a = json.loads(open(out_a).read())
        b = json.loads(open(out_b).read())
        assert a["sampled_centers"] != b["sampled_centers"]
