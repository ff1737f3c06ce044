#!/usr/bin/env python3
"""Generate a synthetic star-schema database with planted clusters, run the
full pipeline through the CLI, and compare against clustering the
materialized join directly.

    python scripts/demo_pipeline.py [--clusters 3] [--seed 0] [--outdir DIR]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def write_instance(outdir: Path, n_clusters: int, seed: int) -> Path:
    rng = np.random.default_rng(seed)
    hub, leaf1, leaf2 = [], [], []
    for c in range(n_clusters):
        mu = c * 60.0
        for _ in range(12):
            hv = mu + rng.normal(0, 1.0)
            for _ in range(3):
                hub.append((hv, mu + rng.normal(0, 1.0)))
                leaf1.append((hv, mu + rng.normal(0, 1.0)))
                leaf2.append((hv, mu + rng.normal(0, 1.0)))

    def dump(name: str, cols: tuple[str, str], rows) -> None:
        lines = [",".join(cols)]
        lines += [f"{a:.6f},{b:.6f}" for a, b in rows]
        (outdir / f"{name}.csv").write_text("\n".join(lines) + "\n")

    dump("hub", ("h", "x1"), hub)
    dump("leaf1", ("h", "x2"), leaf1)
    dump("leaf2", ("h", "x3"), leaf2)
    schema = outdir / "schema.txt"
    schema.write_text(
        "Hub: h,x1 @ hub.csv\nL1: h,x2 @ leaf1.csv\nL2: h,x3 @ leaf2.csv\n")
    return schema


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clusters", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()

    outdir = Path(args.outdir) if args.outdir else Path(tempfile.mkdtemp())
    outdir.mkdir(parents=True, exist_ok=True)
    schema = write_instance(outdir, args.clusters, args.seed)
    result = outdir / "result.json"
    cmd = [sys.executable, "-m", "relkmeans.cli",
           "--schema", str(schema), "--k", str(args.clusters),
           "--mode", "verify", "--seed", str(args.seed),
           "--ring-cap", "2000", "--out", str(result)]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return proc.returncode

    doc = json.loads(result.read_text())
    print(f"join rows        : {doc['n_join_rows']}")
    print(f"sampled centers  : {doc['k_prime']}")
    telem = doc["telemetry"]
    print(f"forests built    : {telem['forests_built']}")
    print(f"candidates tested: {sum(telem['candidates_per_center'])}")
    print(f"pipeline cost    : {doc['exact_cost']:.2f}")
    print(f"direct-Lloyd cost: {doc['baseline_cost']:.2f}")
    print(f"cost ratio       : {doc['cost_ratio']:.3f}")
    print(f"full result      : {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
