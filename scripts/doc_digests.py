#!/usr/bin/env python3
"""Print ``<workload> <seed> <sha256 of stdout>`` of this checkout's
``relkmeans.cli --mode cluster`` on each ``perfbench/workloads.GENERATORS``
instance (workload seed 0; its ``TINY`` sizes with ``--tiny``), run inside
a temporary directory so that the document's schema path is the same in
every checkout.  Equal lines from two checkouts mean equal documents.

    python scripts/doc_digests.py [--seeds 0-4] [--tiny]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    ap = argparse.ArgumentParser(description="sha256 of each workload's document")
    ap.add_argument("--seeds", default="0-4", help="first-last, inclusive")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in workloads.GENERATORS.items():
            out = Path(tmp, name)
            out.mkdir()
            inst = make(out, 0, **(workloads.TINY[name] if args.tiny else {}))
            for seed in range(int(first), int(last or first) + 1):
                doc = subprocess.run(
                    [sys.executable, "-m", "relkmeans.cli", "--schema",
                     str(inst.schema.relative_to(tmp)), "--k", str(inst.k),
                     *inst.flags, "--mode", "cluster", "--seed", str(seed)],
                    cwd=tmp, env=env, capture_output=True, check=True).stdout
                print(name, seed, hashlib.sha256(doc).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
