#!/usr/bin/env python3
"""Time k-means++ sampling and weighing on
``perfbench/workloads.snowflake_wide`` at paper scale, one fresh
interpreter per size.

For each ``--hubs`` entry the instance (3 clusters, seed 0) is written to
a temporary directory.  An entry ``H`` means ``hubs_per_cluster=H`` at 9
rows per key; ``HxR`` means ``R`` rows per key.  Then a new ``python``
process loads it with this checkout's ``src/``, counts the join, runs
``run_kmeanspp`` for the k' that ``relkmeans.cli --k 3`` asks for, at seed
0, and weighs the sampled centers with ``compute_weights`` at ring cap 4,
as ``relkmeans.cli --ring-cap 4`` does.  One line per size gives: rows per
table, the join size N, k', forests built, the seconds of ``run_kmeanspp``
(the CLI's ``[sample]`` stage), the process's ``ru_maxrss`` right after
sampling, the sha256 of the sampled centers' float64 bytes, the seconds of
``compute_weights`` (``[weigh]``), the entries its distance passes merged
(``pass_entries``), and ``ru_maxrss`` after weighing.  Equal digests from
two checkouts mean equal centers.

    python scripts/scale_probe.py [--hubs 20,100,400,4x30]

20, 100 and 400 hubs per cluster give 540, 2,700 and 10,800 rows per
table; the last takes about 10 s of sampling and 0.5 GB.  ``4x30`` gives
360 rows per table and a join of 2.9e8 rows.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import hashlib, json, resource, sys, time
import numpy as np
from relkmeans.cli import RunConfig, coreset_size
from relkmeans.relational import gyo_reduce, load_database
from relkmeans.sampling import run_kmeanspp
from relkmeans.sumprod import JoinEvaluator
from relkmeans.weighting import WeightConfig, compute_weights

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

schema, k = sys.argv[1], int(sys.argv[2])
tables, graph = load_database(schema)
tree = gyo_reduce(graph)
ev = JoinEvaluator(tree, tables)
n_rows = ev.count_scalar()
k_prime = coreset_size(RunConfig(schema, k), n_rows)
t0 = time.perf_counter()
centers, state = run_kmeanspp(tree, tables, k_prime, seed=0, ev=ev)
sample_s = time.perf_counter() - t0
sample_peak = peak_mb()
t0 = time.perf_counter()
coreset, _ = compute_weights(tree, tables, centers,
                             WeightConfig(max_ring_samples=4), ev=ev)
weigh_s = time.perf_counter() - t0
print(json.dumps({
    "rows": max(t.n_rows for t in tables), "n": n_rows, "k_prime": k_prime,
    "forests": state.forest_telemetry.forests_built, "sample_s": sample_s,
    "peak_mb": sample_peak,
    "centers": hashlib.sha256(np.asarray(centers).tobytes()).hexdigest(),
    "weigh_s": weigh_s, "pass_entries": coreset.telemetry.pass_entries,
    "weigh_peak_mb": peak_mb()}))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hubs", default="20,100,400",
                    help="comma-separated hubs_per_cluster values, each "
                         "optionally followed by x and the rows per key")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print("hubs rows_per_table N k_prime forests sample_s peak_mb "
          "centers_sha256 weigh_s pass_entries weigh_peak_mb", flush=True)
    for entry in args.hubs.split(","):
        hubs, _, rows = entry.partition("x")
        with tempfile.TemporaryDirectory() as tmp:
            inst = workloads.snowflake_wide(Path(tmp), 0,
                                            hubs_per_cluster=int(hubs),
                                            rows_per_key=int(rows or 9))
            out = subprocess.run(
                [sys.executable, "-c", CHILD, str(inst.schema), str(inst.k)],
                env=env, capture_output=True, text=True, check=True).stdout
        r = json.loads(out)
        print(f"{entry} {r['rows']} {r['n']:.3g} {r['k_prime']} {r['forests']} "
              f"{r['sample_s']:.3f} {r['peak_mb']:.1f} {r['centers']} "
              f"{r['weigh_s']:.3f} {r['pass_entries']} {r['weigh_peak_mb']:.1f}",
              flush=True)


if __name__ == "__main__":
    main()
