import gc
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relkmeans
from relkmeans import JoinEvaluator, ballcount, boxes, cli, sampling
from relkmeans.cli import CyclicSchemaError, RunConfig, build_parser, main, run
from relkmeans.relational import load_database

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


def _child_env(**extra) -> dict[str, str]:
    """The environment of a CLI child importing this package's source."""
    src = str(Path(relkmeans.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


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
        assert "[sample]" not in err  # checked right after the count

    def test_k_above_join_rows_exits_1_before_sampling(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text(CODED)
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        code, out, err = run_cli(
            ["--schema", str(doc), "--k", "9", "--ring-cap", "400"], capsys)
        assert code == 1 and out == ""
        assert err.count("error:") == 1
        assert "need 9 clusters from a join of 8 rows" in err
        assert "[sample]" not in err

    def test_bad_epsilon_rejected(self, schema_path, capsys):
        # delta must lie in (0, epsilon/2]; every bad knob fails before any
        # table is read.  At epsilon 1e-160 tau / epsilon^2 overflows and at
        # 1e-300 epsilon^2 underflows to 0, so no ring cap helps.
        for bad, named in ((["--epsilon", "0.5"], "epsilon"),
                           (["--epsilon", "1e-160", "--ring-cap", "4"], "epsilon"),
                           (["--epsilon", "1e-300", "--ring-cap", "4"], "epsilon"),
                           (["--guard", "-1"], "guard must be non-negative"),
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

    def test_negative_seed_rejected_before_load(self, schema_path, capsys):
        code, out, err = run_cli(
            ["--schema", schema_path, "--k", "2", "--seed", "-1"], capsys)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "seed must be non-negative" in err
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

    @pytest.mark.parametrize("mode", ["cluster", "verify"])
    def test_repeated_column_exits_1_naming_it(self, tmp_path, capsys, mode):
        (tmp_path / "t.csv").write_text("a,a\n1,1\n2,3\n")
        doc = tmp_path / "s.txt"
        doc.write_text("# one table\nT1: a,a @ t.csv\n")
        code, out, err = run_cli(
            ["--schema", str(doc), "--k", "1", "--mode", mode], capsys)
        self.assert_one_error_line(code, out, err)
        assert f"{doc}:2: column 'a' repeats in table 'T1'" in err

    def test_out_of_memory_exits_1_naming_ring_cap(self, tmp_path, capsys):
        # tau = 1e12 asks for about 4e14 test draws per ring: petabytes, so
        # the allocation fails at once on any machine
        (tmp_path / "t.csv").write_text("x\n0\n1\n")
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        code, out, err = run_cli(
            ["--schema", str(doc), "--k", "1", "--tau", "1000000000000"], capsys)
        self.assert_one_error_line(code, out, err)
        assert "error: out of memory" in err and "--ring-cap" in err

    @staticmethod
    def assert_one_error_line(code, out, err):
        assert code == 1 and out == ""
        assert len([ln for ln in err.splitlines() if ln.startswith("error:")]) == 1
        assert "Traceback" not in err

    def test_schema_directory_exits_1_with_one_line(self, tmp_path, capsys):
        code, out, err = run_cli(["--schema", str(tmp_path), "--k", "2"], capsys)
        self.assert_one_error_line(code, out, err)
        assert str(tmp_path) in err

    def test_missing_schema_named_even_with_a_colon(self, tmp_path, capsys):
        missing = tmp_path / "no:such.txt"
        code, out, err = run_cli(["--schema", str(missing), "--k", "2"], capsys)
        self.assert_one_error_line(code, out, err)
        assert str(missing) in err

    def test_schema_without_tables_exits_1(self, tmp_path, capsys):
        doc = tmp_path / "s.txt"
        doc.write_text("# no tables yet\n\n")
        code, out, err = run_cli(["--schema", str(doc), "--k", "2"], capsys)
        self.assert_one_error_line(code, out, err)
        assert f"{doc}: no tables" in err

    def test_ring_size_past_float_range_names_ring_cap(self, schema_path,
                                                       capsys):
        # tau / epsilon^2 = 3e307 is a float; times k'^2 lg^2 N = 25 lg^2 5
        # for the five-row join it is not
        code, out, err = run_cli(
            ["--schema", schema_path, "--k", "2", "--epsilon", "1e-153"], capsys)
        self.assert_one_error_line(code, out, err)
        assert "overflows a float" in err and "--ring-cap" in err

    @pytest.mark.parametrize("values", [
        ["0", "1e200", "-1e200", "5"], ["1e153"] * 50 + ["-1e153"] * 50])
    def test_overflowing_distances_exit_1_naming_rescale(self, tmp_path,
                                                         capsys, values):
        # the first overflows a squared difference; in the second each
        # squared difference, 4e306, is finite, but their sum is not
        (tmp_path / "t.csv").write_text("\n".join(["x", *values]) + "\n")
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(["--schema", str(doc), "--k", "2",
                                      "--mode", "cluster"], capsys)
        self.assert_one_error_line(code, out, err)
        assert "overflow float64" in err and "rescale" in err

    @pytest.mark.parametrize("values", [
        ["0", "1e200", "-1e200", "5"], ["1e153"] * 50 + ["-1e153"] * 50])
    def test_overflowing_distances_print_no_numpy_warning(self, tmp_path,
                                                          values):
        """The same two databases in a fresh interpreter, with numpy's
        default error handling: stderr holds the one error line and no
        RuntimeWarning with its source line."""
        (tmp_path / "t.csv").write_text("\n".join(["x", *values]) + "\n")
        doc = tmp_path / "s.txt"
        doc.write_text("T: x @ t.csv\n")
        done = subprocess.run(
            [sys.executable, "-m", "relkmeans.cli", "--schema", str(doc),
             "--k", "2", "--mode", "cluster"],
            capture_output=True, text=True, env=_child_env(), timeout=120)
        assert done.returncode == 1 and done.stdout == ""
        errors = [ln for ln in done.stderr.splitlines()
                  if ln.startswith("error:")]
        assert len(errors) == 1 and "rescale" in errors[0]
        assert "Warning" not in done.stderr, done.stderr

    @pytest.mark.parametrize("delta", ["1e-30", "1e-12"])
    def test_too_fine_delta_names_delta(self, schema_path, capsys, delta):
        # at 1e-30 a bucket code overflows int64; at 1e-12 the grid would
        # take terabytes
        code, out, err = run_cli(["--schema", schema_path, "--k", "2",
                                  "--ring-cap", "4", "--delta", delta], capsys)
        self.assert_one_error_line(code, out, err)
        assert "per-table bucket delta" in err and "--ring-cap" not in err

    def test_out_in_missing_directory_exits_1_with_one_line(
            self, schema_path, tmp_path, capsys):
        out_path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            ["--schema", schema_path, "--k", "2", "--ring-cap", "400",
             "--out", str(out_path)], capsys)
        self.assert_one_error_line(code, out, err)
        assert str(out_path) in err

    @pytest.mark.parametrize("folder", ["missing", "t1.csv"])
    def test_out_without_directory_fails_before_loading(
            self, schema_path, tmp_path, capsys, monkeypatch, folder):
        loads = []
        monkeypatch.setattr(cli, "load_database",
                            lambda *a: loads.append(a) or load_database(*a))
        out_path = tmp_path / folder / "r.json"
        code, out, err = run_cli(
            ["--schema", schema_path, "--k", "2", "--out", str(out_path)], capsys)
        self.assert_one_error_line(code, out, err)
        assert "error: cannot write --out: " in err and str(out_path) in err
        assert loads == [] and "[load]" not in err


class TestParser:
    def test_defaults_are_the_run_config_defaults(self):
        args = build_parser().parse_args(["--schema", "s", "--k", "2"])
        assert RunConfig(**vars(args)) == RunConfig(schema="s", k=2)

    def test_each_flag_lands_in_its_field(self):
        want = RunConfig(schema="s", k=3, epsilon=0.2, delta=0.05, tau=40,
                         coreset_factor=0.5, seed=7, mode="verify",
                         out="r.json", guard=12, ring_cap=9)
        args = build_parser().parse_args(
            ["--schema", "s", "--k", "3", "--epsilon", "0.2", "--delta", "0.05",
             "--tau", "40", "--coreset-factor", "0.5", "--seed", "7",
             "--mode", "verify", "--out", "r.json", "--guard", "12",
             "--ring-cap", "9"])
        assert RunConfig(**vars(args)) == want


def _never_accept(monkeypatch):
    # true cost 0 everywhere: every candidate is rejected
    monkeypatch.setattr(sampling, "sq_dists",
                        lambda pts, cs: np.zeros((len(pts), len(cs))))


def _empty_ball(monkeypatch):
    monkeypatch.setattr(ballcount.BallSampler, "_threshold",
                        lambda self, sq_radii: np.full(len(sq_radii), -1.0))


def _target_past_join(monkeypatch):
    def short(self, target, delta=0.0):
        raise ballcount.TargetExceedsN(f"needed {target} points")
    monkeypatch.setattr(ballcount.BallSampler, "radius_for", short)


def _boxes_never_meld(monkeypatch):
    monkeypatch.setattr(boxes, "_strict_overlaps",
                        lambda low, high: np.zeros((len(low),) * 2, dtype=bool))


def _ball_draws_exhausted(monkeypatch):
    monkeypatch.setattr(ballcount, "MAX_DRAW_ROUNDS", 0)


def _empty_profile(monkeypatch):
    # the weigher's ball samplers only: the first center reads the curve too
    monkeypatch.setattr(ballcount.BallSampler, "total", property(lambda self: 0))


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
    def test_cluster_run_builds_one_evaluator(self, schema_path, capsys,
                                              evaluators_built):
        """The join count, sampling, weighing and the surrogate cost all
        run on one evaluator, whatever k' is."""
        code, out, _ = run_cli(
            ["--schema", schema_path, "--k", "2", "--seed", "1",
             "--ring-cap", "400"], capsys)
        assert code == 0
        assert json.loads(out)["telemetry"]["sampled"] == 5
        assert len(evaluators_built) == 1

    @pytest.mark.parametrize("mode", ["coreset", "cluster"])
    def test_run_counts_the_join_once(self, schema_path, capsys, monkeypatch,
                                      mode):
        """The CLI and the weigher both ask for the join count; only the
        first call makes a pass over the tables, which reads the one edge's
        keys."""
        edge_reads, passes = [], []
        edge_keys, count = JoinEvaluator.edge_keys, JoinEvaluator.count_scalar

        def read_edge(self, *args):
            edge_reads.append(None)
            return edge_keys(self, *args)

        def counted(self):
            before = len(edge_reads)
            n = count(self)
            passes.append(len(edge_reads) > before)
            return n
        monkeypatch.setattr(JoinEvaluator, "edge_keys", read_edge)
        monkeypatch.setattr(JoinEvaluator, "count_scalar", counted)
        code, out, _ = run_cli(
            ["--schema", schema_path, "--k", "2", "--seed", "1",
             "--ring-cap", "400", "--mode", mode], capsys)
        assert code == 0 and json.loads(out)["n_join_rows"] == 5
        assert len(passes) >= 2 and sum(passes) == 1


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
        # a forest serves later stages until a round on it, stale, accepts nothing
        assert 1 <= a["forests_built"] <= telems[0]["sampled"] - 1
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

    def test_pass_entries_repeat(self, schema_path, capsys, monkeypatch):
        """``pass_entries`` is the same on every run, and it is the entries
        of every message merge of the weigh stage's distance passes, the
        passes around a center."""
        passes = []
        distance_pass = JoinEvaluator.distance_pass

        def spy(self, center, *args):
            found = distance_pass(self, center, *args)
            if center is not None:
                passes.append(found)
            return found
        monkeypatch.setattr(JoinEvaluator, "distance_pass", spy)
        args = ["--schema", schema_path, "--k", "2", "--mode", "coreset",
                "--seed", "5", "--ring-cap", "400"]
        counts = []
        for _ in range(2):
            passes.clear()
            code, out, _ = run_cli(args, capsys)
            assert code == 0
            counts.append(json.loads(out)["telemetry"]["pass_entries"])
            merged = sum(m.source.size for p in passes for m in p.message.values())
            assert counts[-1] == merged > 0
        assert counts[0] == counts[1]

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

    def test_seed_past_64_bits_repeats_and_differs(self, schema_path, tmp_path,
                                                   capsys):
        """A seed past 64 bits, 2^70, runs and repeats byte for byte, and
        its draws differ from those of 0 and of 2^64, which share its low
        64-bit word."""
        base = ["--schema", schema_path, "--k", "2", "--mode", "coreset",
                "--ring-cap", "4000"]
        docs = {}
        for name, seed in (("a", 2 ** 70), ("b", 2 ** 70), ("zero", 0),
                           ("two64", 2 ** 64)):
            out = tmp_path / f"{name}.json"
            assert main(base + ["--seed", str(seed), "--out", str(out)]) == 0
            docs[name] = out.read_bytes()
        capsys.readouterr()
        assert docs["a"] == docs["b"]
        draws = {name: {k: v for k, v in json.loads(doc).items() if k != "seed"}
                 for name, doc in docs.items()}
        assert draws["a"] != draws["zero"]
        assert draws["a"] != draws["two64"]
        assert draws["zero"] != draws["two64"]


def _cluster_child(schema_path, out, **extra) -> subprocess.CompletedProcess:
    """A ``python -m relkmeans.cli --mode cluster`` child writing ``out``."""
    return subprocess.run(
        [sys.executable, "-m", "relkmeans.cli", "--schema", schema_path,
         "--k", "2", "--mode", "cluster", "--seed", "3", "--ring-cap", "400",
         "--out", str(out)],
        capture_output=True, text=True, env=_child_env(**extra), timeout=120)


class TestProcess:
    def test_documents_ignore_the_hash_seed(self, schema_path, tmp_path):
        """Two children under different ``PYTHONHASHSEED`` values write
        byte-identical documents: no stream is seeded by ``hash()``."""
        docs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"hash{hash_seed}.json"
            done = _cluster_child(schema_path, out, PYTHONHASHSEED=hash_seed)
            assert done.returncode == 0, done.stderr
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]

    def test_printed_and_written_documents_complete(self, schema_path,
                                                    tmp_path):
        """A child run through ``python -m`` prints the document it writes,
        whole, with the cluster run's last keys."""
        out = tmp_path / "doc.json"
        done = _cluster_child(schema_path, out)
        assert done.returncode == 0, done.stderr
        assert done.stdout == out.read_text()
        doc = json.loads(done.stdout)
        assert list(doc)[-3:] == ["final_centers", "coreset_cost",
                                  "surrogate_cost"]

    def test_entry_freezes_before_main(self):
        """``cli.entry`` has frozen the import-time heap when ``main``
        starts, and returns what ``main`` returns."""
        probe = ("import gc, sys\n"
                 "import relkmeans.cli as cli\n"
                 "assert gc.get_freeze_count() == 0\n"
                 "cli.main = lambda: print(gc.get_freeze_count()) or 7\n"
                 "sys.exit(cli.entry())\n")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=_child_env(), timeout=120)
        assert done.returncode == 7, done.stderr
        assert int(done.stdout) > 1000

    def test_main_never_freezes(self, schema_path, capsys):
        """An in-process ``main`` call leaves the collector's frozen
        generation as it found it."""
        before = gc.get_freeze_count()
        code, out, _ = run_cli(["--schema", schema_path, "--k", "2", "--mode",
                                "cluster", "--ring-cap", "400"], capsys)
        assert code == 0 and json.loads(out)["final_centers"]
        assert gc.get_freeze_count() == before


class TestColdPath:
    def test_cluster_run_never_imports_numpy_ma(self, schema_path):
        """A cold ``--mode cluster`` run leaves numpy.ma, numpy.random,
        OpenSSL's ``_hashlib`` and ``logging`` unimported: the document
        reports run facts, so the library logs nothing.  numpy.ma costs
        15-24 ms and about 1 MB of peak RSS per run, and np.unique without
        return_index, return_inverse or return_counts imports it.
        numpy.random's bit generators import ``secrets``, hence ``hmac`` and
        ``_hashlib``: about 15 ms and 5.7 MB of peak RSS per run, for
        uniforms that ``sampling.make_rng``'s stream draws without them."""
        probe = (
            "import runpy, sys\n"
            "sys.argv = ['relkmeans', *sys.argv[1:]]\n"
            "try:\n"
            "    runpy.run_module('relkmeans.cli', run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0, stop.code\n"
            "print('imported:', [m for m in ('numpy.ma', 'numpy.random', '_hashlib',\n"
            "                                'logging')\n"
            "                    if m in sys.modules], file=sys.stderr)\n")
        done = subprocess.run(
            [sys.executable, "-c", probe, "--schema", schema_path, "--k", "2",
             "--mode", "cluster", "--seed", "1", "--ring-cap", "400"],
            capture_output=True, text=True, env=_child_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["final_centers"]
        assert done.stderr.splitlines()[-1] == "imported: []"

    def test_cli_loads_only_the_modules_it_runs(self):
        """In a fresh interpreter, ``import relkmeans`` loads no submodule,
        and ``import relkmeans.cli`` loads the pipeline's modules and never
        the oracle, which only the materializing modes import.  Every public
        name still resolves through the package and is listed by ``dir``;
        an unknown name raises AttributeError."""
        probe = (
            "import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('relkmeans'))\n"
            "import relkmeans\n"
            "bare = loaded()\n"
            "import relkmeans.cli\n"
            "cli = loaded()\n"
            "unresolved = [n for n in relkmeans.__all__\n"
            "              if getattr(relkmeans, n).__name__ != n\n"
            "              or n not in dir(relkmeans)]\n"
            "try:\n"
            "    relkmeans.no_such_name\n"
            "    missing = 'resolved'\n"
            "except AttributeError:\n"
            "    missing = 'AttributeError'\n"
            "print(json.dumps([bare, cli, unresolved, missing]))\n")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=_child_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        bare, loaded, unresolved, missing = json.loads(done.stdout)
        assert bare == ["relkmeans"]
        assert loaded == sorted(["relkmeans"] + [
            f"relkmeans.{m}" for m in ("relational", "sumprod", "boxes",
                                       "sampling", "ballcount", "weighting",
                                       "clustering", "cli")])
        assert unresolved == [] and missing == "AttributeError"
        assert len(relkmeans.__all__) == len(set(relkmeans.__all__)) == 28


class TestDocDigests:
    def test_tiny_seed_0_prints_one_digest_per_workload(self):
        script = Path(__file__).resolve().parents[1] / "scripts/doc_digests.py"
        done = subprocess.run(
            [sys.executable, str(script), "--tiny", "--seeds", "0"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert [ln.split()[:2] for ln in lines] == [
            ["star-centers", "0"], ["snowflake-wide", "0"], ["path-coded", "0"]]
        for ln in lines:
            digest = ln.split()[2]
            assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


class TestPassDigests:
    def test_three_lines_per_seed(self):
        """One line per seed and delta: exact, then per-table delta 0.05
        and 0.01, each with the schema's fan-out, the pass's merged entries
        and a curve digest; a seed's schema has a non-empty join."""
        script = Path(__file__).resolve().parents[1] / "scripts/pass_digests.py"
        done = subprocess.run(
            [sys.executable, str(script), "--seeds", "0-1"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = [ln.split() for ln in done.stdout.splitlines()]
        assert [ln[:2] for ln in lines] == [
            [seed, delta] for seed in ("0", "1")
            for delta in ("exact", "0.05", "0.01")]
        empty = hashlib.sha256(b"").hexdigest()
        for _, _, fan_out, entries, digest in lines:
            assert int(fan_out) <= 5 and int(entries) > 0
            assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
            assert digest != empty


class TestScaleProbe:
    def test_one_line_per_size(self):
        """At one hub per cluster: 27 rows per table, 3 * 9**5 join rows,
        and the k' of ``--k 3``, sampled and then weighed; ``1x2`` names 2
        rows per key: 6 rows per table, 3 * 2**5 join rows."""
        script = Path(__file__).resolve().parents[1] / "scripts/scale_probe.py"
        done = subprocess.run(
            [sys.executable, str(script), "--hubs", "1,1x2"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        header, line, small = done.stdout.splitlines()
        assert header.split() == ["hubs", "rows_per_table", "N", "k_prime",
                                  "forests", "sample_s", "peak_mb",
                                  "centers_sha256", "weigh_s", "pass_entries",
                                  "weigh_peak_mb"]
        (hubs, rows, n, k_prime, forests, sample_s, peak_mb, digest,
         weigh_s, entries, weigh_peak_mb) = line.split()
        assert (hubs, rows, float(n)) == ("1", "27", float(f"{3 * 9 ** 5:.3g}"))
        assert int(k_prime) == cli.coreset_size(RunConfig("s", 3), 3 * 9 ** 5)
        assert int(forests) >= 1 and float(sample_s) > 0 and float(peak_mb) > 0
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert float(weigh_s) > 0 and int(entries) > 0
        assert float(weigh_peak_mb) >= float(peak_mb)
        assert small.split()[:3] == ["1x2", "6", "96"]


class TestChildProbe:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts/child_probe.py"

    def test_checkout_against_itself(self):
        """Two pairs on path-coded, this checkout on both sides: per side a
        median inside its quartiles, for wall time and ru_maxrss; per side
        the launcher's median, at most one 50 ms poll above the exact one;
        the win counts; identical documents."""
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), str(self.SCRIPT.parents[1]),
             "--runs", "2", "--workload", "path-coded"],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        head, *sides, ticks, wall, rss, same = done.stdout.splitlines()
        assert head == "== path-coded: 2 pairs" and len(sides) == 2
        walls = []
        for line in sides:
            stats = line.split("): ")[1].replace("[", "").replace("]", "")
            for metric in stats.split(", ru_maxrss_mb "):
                med, q1, q3 = (float(x.strip(",")) for x in metric.split()[-3:])
                assert 0 < q1 <= med <= q3
            walls.append(float(stats.split()[1]))
        assert ticks.startswith("   launcher wall_s medians: side 0 ")
        read = [float(part.split()[-1]) for part in ticks.split(", ")]
        for exact, tick in zip(walls, read, strict=True):
            assert exact <= tick <= exact + 0.05
        assert wall.startswith("   side 1 lower wall: ")
        assert rss.startswith("   side 1 lower ru_maxrss: ")
        assert same == "   identical documents: 2 of 2"

    def test_launcher_poll_schedule(self):
        """``Popen.wait(timeout=...)`` polls when Popen returns, then after
        sleeps of 1, 2, 4, 8, 16 and 32 ms, then every 50 ms: a child that
        spawned in 1 ms is read at 1, 2, 4, 8, 16, 32, 64, 114, 164, ...
        ms."""
        probe = runpy.run_path(str(self.SCRIPT))
        polls = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.114,
                 0.164, 0.214, 0.264]
        for before, at in zip([0.0, *polls], polls):
            for wall in (before + 1e-6, (before + at) / 2, at):
                assert probe["launcher_wall"](wall, 0.001) == pytest.approx(at)
