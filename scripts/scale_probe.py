#!/usr/bin/env python3
"""Time k-means++ sampling on ``perfbench/workloads.snowflake_wide`` at
paper scale, one fresh interpreter per size.

For each ``hubs_per_cluster`` value the instance (9 rows per key, 3
clusters, seed 0) is written to a temporary directory.  Then a new
``python`` process loads it with this checkout's ``src/``, counts the join,
and runs ``run_kmeanspp`` for the k' that ``relkmeans.cli --k 3`` asks
for, at seed 0.  One line per size gives: rows per table, the join size N,
k', forests built, the seconds of ``run_kmeanspp`` (the CLI's ``[sample]``
stage), the process's ``ru_maxrss`` right after sampling, and the sha256 of
the sampled centers' float64 bytes.  Equal digests from two checkouts mean
equal centers.

    python scripts/scale_probe.py [--hubs 20,100,400]

20, 100 and 400 hubs per cluster give 540, 2,700 and 10,800 rows per
table; the last takes about 10 s of sampling and 0.5 GB.
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

schema, k = sys.argv[1], int(sys.argv[2])
tables, graph = load_database(schema)
tree = gyo_reduce(graph)
ev = JoinEvaluator(tree, tables)
n_rows = ev.count_scalar()
k_prime = coreset_size(RunConfig(schema, k), n_rows)
t0 = time.perf_counter()
centers, state = run_kmeanspp(tree, tables, k_prime, seed=0, ev=ev)
sample_s = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "rows": max(t.n_rows for t in tables), "n": n_rows, "k_prime": k_prime,
    "forests": state.forest_telemetry.forests_built, "sample_s": sample_s,
    "peak_mb": peak_kb / 1024,
    "centers": hashlib.sha256(np.asarray(centers).tobytes()).hexdigest()}))
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hubs", default="20,100,400",
                    help="comma-separated hubs_per_cluster values")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print("hubs rows_per_table N k_prime forests sample_s peak_mb "
          "centers_sha256", flush=True)
    for hubs in (int(h) for h in args.hubs.split(",")):
        with tempfile.TemporaryDirectory() as tmp:
            inst = workloads.snowflake_wide(Path(tmp), 0, hubs_per_cluster=hubs)
            out = subprocess.run(
                [sys.executable, "-c", CHILD, str(inst.schema), str(inst.k)],
                env=env, capture_output=True, text=True, check=True).stdout
        r = json.loads(out)
        print(f"{hubs} {r['rows']} {r['n']:.3g} {r['k_prime']} {r['forests']} "
              f"{r['sample_s']:.3f} {r['peak_mb']:.1f} {r['centers']}",
              flush=True)


if __name__ == "__main__":
    main()
