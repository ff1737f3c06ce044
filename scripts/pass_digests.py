#!/usr/bin/env python3
"""Print ``<seed> <delta> <fan_out> <merge_entries> <sha256 of the curve>``
for one distance pass of this checkout's ``src/`` on each seeded random
schema, exact and bucketed at per-table delta 0.05 and 0.01.

Seed s draws schemas with ``tests/conftest.random_acyclic_tables``
(up to 6 tables of up to 10 rows, integer values at odd s) from
``np.random.default_rng(s)`` until one has a non-empty join, then a
normal center from the same stream, rounded at odd s.  ``fan_out`` is
the most walk children of any table, ``merge_entries`` the entries the
pass merged, and the digest covers the curve's keys and running counts,
as float64 bytes.  Equal lines from two checkouts mean equal curves.

    python scripts/pass_digests.py [--seeds 0-199]
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from conftest import random_acyclic_tables
    from relkmeans import JoinEvaluator, gyo_reduce, tables_to_schema
    from relkmeans.ballcount import BallSampler
    ap = argparse.ArgumentParser(description="sha256 of each random pass's curve")
    ap.add_argument("--seeds", default="0-199", help="first-last, inclusive")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    for seed in range(int(first), int(last or first) + 1):
        rng = np.random.default_rng(seed)
        while True:  # redraw empty joins: their curves are empty
            tables = random_acyclic_tables(rng, max_tables=6, max_rows=10,
                                           integer_values=seed % 2 == 1)
            ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
            if ev.count_scalar():
                break
        center = rng.normal(size=ev.n_features)
        if seed % 2:
            center = np.round(center)
        fan_out = max(len(ev.walk_children[v]) for v in ev.walk)
        for delta in (None, 0.05, 0.01):
            dists = BallSampler(ev, center, delta).dists
            digest = hashlib.sha256(b"".join(a.tobytes() for a in dists.curve))
            print(seed, delta or "exact", fan_out, dists.merge_entries,
                  digest.hexdigest(), flush=True)


if __name__ == "__main__":
    main()
