"""End-to-end benchmark of the relkmeans CLI on seeded synthetic databases.

Run from the root of a checkout (it needs ``src/relkmeans``)::

    python3 perfbench/run.py --workload star-centers --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

With ``--trace 0`` it spawns ``relkmeans --mode cluster`` children one at a
time for ``--seconds`` and reports end-to-end metrics; with ``--trace 1`` it
runs the CLI in-process once untraced and once with spans around every
layer, then the brute-force yardstick, and reports per-layer metrics.  The
last line of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One CLI child runs at a time; one BLAS/OpenMP thread each keeps runs steady
# and never exceeds the core count.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread variables are set)

from tracing import PER_LAYER, Tracer, installed, layer_metrics  # noqa: E402
from workloads import (GENERATORS, TINY, Instance,  # noqa: E402
                       planted_centroids, planted_labels)

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

SETUP_REPEATS = 9       # timed fresh interpreters per run for setup_s
CHILD_TIMEOUT_S = 90.0  # one CLI run
COST_CEILING = 2.0      # cost_vs_planted above this fails the run
BRUTE_RESTARTS = 20

# The end-to-end metrics an untraced run reports: (name, unit, better).
END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cost_vs_planted", "ratio", "lower"),
]

SETUP_SNIPPET = """\
import sys
import relkmeans
from relkmeans.relational import gyo_reduce, load_database
from relkmeans.sumprod import JoinEvaluator
tables, schema = load_database(sys.argv[1])
print(int(JoinEvaluator(gyo_reduce(schema), tables).count_scalar()), flush=True)
"""


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import relkmeans from the checkout's src/ and nowhere else.  Call it
    before any other function here."""
    if not (SRC / "relkmeans" / "cli.py").is_file():
        fail(f"no src/relkmeans under {ROOT}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import relkmeans
    if Path(relkmeans.__file__).resolve().parent != (SRC / "relkmeans").resolve():
        fail(f"relkmeans imported from {relkmeans.__file__}, not {SRC}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


@dataclass
class Prepared:
    """A generated instance plus everything needed to check a run of it."""

    inst: Instance
    workdir: Path
    n_rows: int
    join_rows: np.ndarray
    planted_cost: float
    problems: list[str]


def prepare(workload: str, seed: int, tiny: bool = False) -> Prepared:
    """Generate the workload's files and check the generator: the closed-form
    join size, the program's count and the materialized join must agree."""
    from relkmeans.oracle import exact_cost, materialize
    from relkmeans.relational import gyo_reduce, load_database
    from relkmeans.sumprod import JoinEvaluator

    workdir = WORK / f"{workload}{'-tiny' if tiny else ''}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    inst = GENERATORS[workload](workdir, seed, **(TINY[workload] if tiny else {}))
    tables, schema = load_database(inst.schema)
    tree = gyo_reduce(schema)
    counted = int(JoinEvaluator(tree, tables).count_scalar())
    expected = inst.n_rows
    join = materialize(tables, guard=max(expected, counted) + 1, tree=tree)
    problems = []
    if counted != expected:
        problems.append(f"count_scalar {counted} != closed form {expected}")
    if join.n_rows != expected:
        problems.append(f"materialized {join.n_rows} rows, expected {expected}")
    key_index = next(f.index for t in tables for f in t.features
                     if f.name == inst.key_feature)
    labels = planted_labels(join.rows, key_index, inst.key_cluster)
    planted = exact_cost(join, planted_centroids(join.rows, labels))
    return Prepared(inst, workdir, expected, join.rows, planted, problems)


def cli_args(prep: Prepared, pipeline_seed: int, out: Path) -> list[str]:
    inst = prep.inst
    return ["--schema", str(inst.schema), "--k", str(inst.k),
            "--mode", "cluster", "--seed", str(pipeline_seed),
            *inst.flags, "--out", str(out)]


def pipeline_seed(workload_seed: int, run_index: int) -> int:
    return 1000 * workload_seed + run_index


def check_doc(prep: Prepared, doc: dict) -> tuple[float | None, list[str]]:
    """cost_vs_planted of one result document (None without k centers) and
    the checks it fails."""
    from relkmeans.oracle import MaterializedJoin, exact_cost
    problems = []
    if doc.get("n_join_rows") != prep.n_rows:
        problems.append(f"n_join_rows {doc.get('n_join_rows')} != {prep.n_rows}")
    if doc.get("telemetry", {}).get("sampled") != doc.get("k_prime"):
        problems.append("telemetry.sampled != k_prime")
    centers = doc.get("final_centers") or []
    if len(centers) != prep.inst.k:
        problems.append(f"{len(centers)} final centers, expected {prep.inst.k}")
        return None, problems
    join = MaterializedJoin(prep.join_rows, prep.join_rows.shape[0])
    ratio = exact_cost(join, np.asarray(centers, dtype=np.float64)) / prep.planted_cost
    if not ratio <= COST_CEILING:
        problems.append(f"cost_vs_planted {ratio:.4f} > {COST_CEILING}")
    return ratio, problems


# Times one CLI child and reads its peak RSS.  It runs as a small interpreter
# of its own because a child's ru_maxrss starts from the RSS of the process
# it was forked from, and the benchmark process holds the materialized join.
LAUNCHER = """\
import json, resource, subprocess, sys, time
timeout, err_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
with open(err_path, "w", encoding="utf-8") as err:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = "timeout"
    wall = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"wall": wall, "code": code, "peak_kb": peak_kb}))
"""


def spawn_timed(argv: list[str], stderr_path: Path) -> tuple[float, object, float]:
    """Run one CLI child to exit: (wall seconds from spawn to exit, exit
    code or "timeout", peak RSS in MB)."""
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(CHILD_TIMEOUT_S),
         str(stderr_path), *argv],
        capture_output=True, text=True, env=child_env(),
        timeout=CHILD_TIMEOUT_S + 30, check=True)
    res = json.loads(out.stdout)
    return res["wall"], res["code"], res["peak_kb"] / 1024.0


def measure_setup(prep: Prepared) -> tuple[float, list[str]]:
    """Median seconds from spawning a fresh interpreter until it has printed
    the join count (import, load, GYO, first count)."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS + 1):  # the first fills bytecode caches
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET, str(prep.inst.schema)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=child_env())
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != str(prep.n_rows):
            problems.append(f"setup child printed {line.strip()!r}, "
                            f"exit {proc.returncode}")
    return statistics.median(times[1:]), problems


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    prep = prepare(workload, seed)
    setup_s, problems = measure_setup(prep)
    problems += prep.problems

    walls, rss, ratios = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        i = attempted
        out = prep.workdir / f"run{i}.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "relkmeans.cli",
                *cli_args(prep, pipeline_seed(seed, i), out)]
        wall, code, peak = spawn_timed(argv, prep.workdir / f"run{i}.err")
        attempted += 1
        run_problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            ratio, more = check_doc(prep, json.loads(out.read_text()))
            run_problems += more
            if ratio is not None:  # quality counts even when over the ceiling
                ratios.append(ratio)
        print(f"run {i} (seed {pipeline_seed(seed, i)}): {wall:.3f} s, "
              f"exit {code} {'; '.join(run_problems)}", file=sys.stderr)
        if run_problems:
            failed += 1
        else:
            walls.append(wall)
            rss.append(peak)
        elapsed = time.perf_counter() - start
        if elapsed + wall > seconds:  # the next run would overrun
            break
    values = {
        "run_s": statistics.median(walls) if walls else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "cost_vs_planted": statistics.median(ratios) if ratios else 0.0,
    }
    return {"correct": not problems and failed == 0 and bool(walls),
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": {name: (values[name], unit)
                        for name, unit, _ in END_TO_END}}


def cli_in_process(argv: list[str]) -> tuple[float, object]:
    """cli.main in this process, its document printout swallowed: (wall
    seconds, exit code or the exception that escaped main)."""
    from relkmeans import cli
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails the run, not the benchmark
            traceback.print_exc()
            code = repr(exc)
        wall = time.perf_counter() - t0
    return wall, code


def run_traced(workload: str, seed: int, tiny: bool = False,
               strict: bool = False) -> dict:
    """Untraced then traced in-process CLI run, then brute force; per-layer
    metrics from the traced run."""
    prep = prepare(workload, seed, tiny=tiny)
    problems = list(prep.problems)
    s = pipeline_seed(seed, 0)
    plain_out = prep.workdir / "untraced.json"
    traced_out = prep.workdir / "traced.json"
    plain_s, plain_code = cli_in_process(cli_args(prep, s, plain_out))
    tracer = Tracer()
    with installed(tracer, strict=strict) as inst:
        traced_s, traced_code = cli_in_process(cli_args(prep, s, traced_out))
    for site in inst.missing:
        print(f"trace: binding site {site} not found", file=sys.stderr)
    tracer.write(prep.workdir / "trace.jsonl")

    if plain_code != 0 or traced_code != 0:
        problems.append(f"exit codes {plain_code} untraced, {traced_code} traced")
        doc = {}
    else:
        if plain_out.read_bytes() != traced_out.read_bytes():
            problems.append("traced document differs from the untraced one")
        doc = json.loads(traced_out.read_text())
        problems += check_doc(prep, doc)[1]

    from relkmeans.clustering import WeightedPointSet, solve_weighted_kmeans
    from relkmeans.oracle import materialize
    from relkmeans.relational import gyo_reduce, load_database
    tables, schema = load_database(prep.inst.schema)
    tree = gyo_reduce(schema)
    t0 = time.perf_counter()
    join = materialize(tables, guard=prep.n_rows + 1, tree=tree)
    t1 = time.perf_counter()
    solve_weighted_kmeans(WeightedPointSet(join.rows, np.ones(join.n_rows)),
                          prep.inst.k, seed=s, restarts=BRUTE_RESTARTS)
    t2 = time.perf_counter()

    m = layer_metrics(tracer)
    telem = doc.get("telemetry", {})
    candidates = sum(telem.get("candidates_per_center", []))
    accepted = len(telem.get("candidates_per_center", []))
    m.update({
        "sampling.candidates": candidates,
        "sampling.centers": accepted,
        "sampling.accept_ratio": accepted / candidates if candidates else 0.0,
        "oracle.materialize_s": t1 - t0,
        "clustering.brute_lloyd_s": t2 - t1,
        "oracle.brute_s": t2 - t0,
        "cli.trace_overhead": traced_s / plain_s,
    })
    print(f"trace: main {plain_s:.3f} s untraced, {traced_s:.3f} s traced; "
          f"{m['cli.unstaged_s']:.4f} s of cli.run outside the stage spans; "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped",
          file=sys.stderr)
    metrics = {name: (m[name], unit) for name, unit, _ in PER_LAYER}
    return {"correct": not problems, "attempted": 1, "failed": int(bool(problems)),
            "problems": problems, "fn_calls": dict(tracer.fn_calls),
            "metrics": metrics}


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*GENERATORS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    import_program()
    print(json.dumps({"environment": environment()}))
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            res = run_traced(name, args.seed)
        else:
            res = run_untraced(name, args.seed, args.seconds)
        results[name] = res
        for p in res.get("problems", []):
            print(f"check failed: {p}", file=sys.stderr)
        if args.workload == "all":
            print(f"== {name}: attempted {res['attempted']}, failed "
                  f"{res['failed']}, failed_share "
                  f"{res['failed'] / res['attempted']:.3f}")
            for key, (value, unit) in res["metrics"].items():
                print(f"   {key:34s} {value:14.6g} {unit}")
    if args.workload != "all":
        print(result_line(results[names[0]]))
    else:
        print(json.dumps({name: json.loads(result_line(r))
                          for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
