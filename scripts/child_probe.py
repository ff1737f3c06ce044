#!/usr/bin/env python3
"""Time ``relkmeans.cli --mode cluster`` children of two checkouts,
alternating, on the ``perfbench/workloads`` instances.

Each workload's instance (this checkout's generator, workload seed 0) is
written to a temporary directory.  Each checkout's ``src/`` is copied there
without bytecode caches, and every child runs with
``PYTHONDONTWRITEBYTECODE=1``, so each one compiles the package as a child
of the benchmark does.  Pair i runs both sides at pipeline seed i; the
first side runs first in even pairs.  Each child is reaped by ``os.wait4``,
which gives its exact wall time (spawn to exit) and its own
``ru_maxrss``.  The probe imports no numpy, because a child's
``ru_maxrss`` starts from the memory of the process that spawned it.

Per workload and side it prints the median and quartiles of wall time and
``ru_maxrss``; then each side's median wall as ``perfbench/run.py``'s
``LAUNCHER`` would read it, every child's exit rounded up to the next poll
of ``Popen.wait(timeout=...)``, so a wall cut that crosses no poll shows as
none; then how many pairs the second side won on each, and how many pairs
printed byte-identical documents.

    python scripts/child_probe.py FIRST_CHECKOUT [SECOND_CHECKOUT] \\
        [--runs 10] [--workload all]

The second checkout defaults to this one.
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("star-centers", "snowflake-wide", "path-coded")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Writes each workload's instance and prints "<name> <k> <flags...>".
MAKE = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import workloads
for name in sys.argv[3:]:
    out = Path(sys.argv[2], name)
    out.mkdir()
    inst = workloads.GENERATORS[name](out, 0)
    print(name, inst.schema.relative_to(sys.argv[2]), inst.k, *inst.flags)
"""


def launcher_wall(wall: float, spawned: float) -> float:
    """The wall a ``Popen.wait(timeout=...)`` caller reads for a child that
    exits ``wall`` seconds after its spawn began, when ``Popen`` returned
    after ``spawned`` seconds: the first poll at or after the exit.  The
    wait polls once at once, then after sleeps of 1, 2, 4, ..., 32 ms, then
    every 50 ms."""
    t, sleep = spawned, 0.001
    while t < wall:
        t += sleep
        sleep = min(2 * sleep, 0.05)
    return t


def run_child(argv: list[str], cwd: str, env: dict[str, str],
              out_path: Path) -> tuple[float, float, float, bytes]:
    """(wall seconds, the wall the launcher would read, ru_maxrss in MB,
    stdout) of one child reaped by ``os.wait4``; a failed child stops the
    probe."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        spawned = time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"child exited {proc.returncode}: {' '.join(argv)}")
    return (wall, launcher_wall(wall, spawned), usage.ru_maxrss / 1024.0,
            out_path.read_bytes())


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="+", type=Path,
                    help="first checkout, then optionally the second")
    ap.add_argument("--runs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    args = ap.parse_args()
    if len(args.checkouts) > 2 or args.runs < 2:
        ap.error("give one or two checkouts and at least 2 runs")
    sides = [*args.checkouts, ROOT][:2]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory() as tmp:
        made = subprocess.run(
            [sys.executable, "-c", MAKE, str(ROOT / "perfbench"), tmp, *names],
            capture_output=True, text=True, check=True).stdout.splitlines()
        envs = []
        for i, side in enumerate(sides):
            src = Path(tmp, f"side{i}", "src")
            shutil.copytree(side / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs.append(dict(os.environ, PYTHONPATH=str(src),
                             PYTHONDONTWRITEBYTECODE="1",
                             **{var: "1" for var in THREAD_VARS}))
        for line in made:
            name, schema, k, *flags = line.split()
            walls, ticks, peaks, docs = ([[], []] for _ in range(4))
            for run in range(args.runs):
                argv = [sys.executable, "-m", "relkmeans.cli", "--schema",
                        schema, "--k", k, *flags, "--mode", "cluster",
                        "--seed", str(run)]
                for i in ((0, 1) if run % 2 == 0 else (1, 0)):
                    wall, tick, peak, doc = run_child(argv, tmp, envs[i],
                                                      Path(tmp, f"doc{i}"))
                    walls[i].append(wall)
                    ticks[i].append(tick)
                    peaks[i].append(peak)
                    docs[i].append(doc)
            print(f"== {name}: {args.runs} pairs")
            for i, side in enumerate(sides):
                print(f"   side {i} ({side}): wall_s {summary(walls[i])}, "
                      f"ru_maxrss_mb {summary(peaks[i])}")
            print("   launcher wall_s medians: " + ", ".join(
                f"side {i} {statistics.median(t):.4f}"
                for i, t in enumerate(ticks)))
            for label, vals in (("wall", walls), ("ru_maxrss", peaks)):
                wins = sum(b < a for a, b in zip(*vals))
                print(f"   side 1 lower {label}: {wins} of {args.runs}")
            same = sum(a == b for a, b in zip(*docs))
            print(f"   identical documents: {same} of {args.runs}", flush=True)


if __name__ == "__main__":
    main()
