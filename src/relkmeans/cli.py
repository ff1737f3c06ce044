"""Batch entry point: load a schema, sample centers, weigh them, cluster.

The result is a single JSON document with stable key order; identical
config and seed reproduce it byte for byte.  Per-stage wall-clock goes to
stderr so it never perturbs the document.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .clustering import (InsufficientDistinctPoints, WeightedPointSet,
                         relational_cost, solve_weighted_kmeans)
from .oracle import DEFAULT_GUARD, MaterializationGuard, materialize, exact_cost
from .relational import (CyclicVerdict, SamplingGaveUp, SchemaError, gyo_reduce,
                         load_database)
from .sampling import run_kmeanspp
from .sumprod import JoinEvaluator
from .weighting import WeightConfig, compute_weights

MODES = ("coreset", "cluster", "baseline", "verify")


class CyclicSchemaError(Exception):
    """The schema's join hypergraph is cyclic; the message names the
    residual hypergraph GYO reduction got stuck on."""


@dataclass(frozen=True)
class RunConfig:
    schema: str
    k: int
    epsilon: float = 0.1
    delta: float | None = None  # defaults to epsilon / 2
    tau: int = 30
    coreset_factor: float = 3.0
    seed: int = 0
    mode: str = "cluster"
    out: str | None = None
    guard: int = DEFAULT_GUARD
    ring_cap: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (math.isfinite(self.coreset_factor) and self.coreset_factor > 0):
            raise ValueError("coreset factor must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class _StageClock:
    def __init__(self):
        self.t0 = time.perf_counter()

    def lap(self, stage: str) -> None:
        t1 = time.perf_counter()
        print(f"[{stage}] {t1 - self.t0:.3f}s", file=sys.stderr)
        self.t0 = t1


def coreset_size(cfg: RunConfig, n_rows: int) -> int:
    lg = max(1, math.ceil(math.log2(n_rows))) if n_rows > 1 else 1
    return min(n_rows, max(cfg.k, math.ceil(cfg.coreset_factor * cfg.k * lg)))


def run(cfg: RunConfig) -> dict:
    """Execute the pipeline per the configured mode and return the result
    document (raises SchemaError / ValueError / MaterializationGuard /
    InsufficientDistinctPoints with diagnostics; cyclic schemas raise
    CyclicSchemaError naming the residual; randomized stages that give up
    raise SamplingGaveUp).  The accuracy knobs are checked before any table
    is read."""
    wcfg = WeightConfig(epsilon=cfg.epsilon, delta=cfg.delta, tau=cfg.tau,
                        seed=cfg.seed, max_ring_samples=cfg.ring_cap)
    clock = _StageClock()
    tables, schema = load_database(cfg.schema)
    verdict = gyo_reduce(schema)
    if isinstance(verdict, CyclicVerdict):
        raise CyclicSchemaError(f"cyclic schema: {verdict.describe()}")
    tree = verdict
    clock.lap("load")

    ev = JoinEvaluator(tree, tables)
    n_rows = ev.count_scalar()
    if n_rows == 0:
        raise ValueError("empty join: nothing to cluster")
    k_prime = coreset_size(cfg, n_rows)

    centers, state = run_kmeanspp(tree, tables, k_prime, seed=cfg.seed, ev=ev)
    clock.lap("sample")

    coreset, _ = compute_weights(tree, tables, centers, wcfg, ev=ev)
    clock.lap("weigh")

    doc: dict = {
        "schema": str(cfg.schema),
        "mode": cfg.mode,
        "k": cfg.k,
        "epsilon": cfg.epsilon,
        "delta": wcfg.ball_slack,
        "tau": cfg.tau,
        "coreset_factor": cfg.coreset_factor,
        "seed": cfg.seed,
        "guard": cfg.guard,
        "n_join_rows": n_rows,
        "k_prime": k_prime,
        "sampled_centers": [list(c) for c in coreset.centers],
        "weights": list(coreset.weights),
        "telemetry": {
            "requested_centers": k_prime,
            "sampled": len(centers),
            "candidates_per_center": [t.candidates for t in state.telemetry],
            "rejections_per_center": [t.rejections for t in state.telemetry],
            **dataclasses.asdict(state.forest_telemetry),
            **dataclasses.asdict(coreset.telemetry),
        },
    }
    if cfg.mode == "coreset":
        return doc

    weights = coreset.weights
    if np.all(weights == 0):
        # every ring fraction fell below threshold (e.g. k' = N and every
        # point is a center); unit weights are the faithful coreset then
        print("note: all ring fractions under threshold, using unit weights",
              file=sys.stderr)
        weights = np.ones(len(weights))
    ps = WeightedPointSet(coreset.centers, weights)
    final, coreset_cost = solve_weighted_kmeans(ps, cfg.k, seed=cfg.seed)
    doc["final_centers"] = [list(c) for c in final]
    doc["coreset_cost"] = coreset_cost
    doc["surrogate_cost"] = relational_cost(ev, final)
    clock.lap("cluster")
    if cfg.mode == "cluster":
        return doc

    join = materialize(tables, guard=cfg.guard, tree=tree)
    doc["exact_cost"] = exact_cost(join, final)
    clock.lap("materialize")
    if cfg.mode == "baseline":
        return doc

    baseline = WeightedPointSet(join.rows, np.ones(join.n_rows))
    base_centers, _ = solve_weighted_kmeans(baseline, cfg.k, seed=cfg.seed,
                                            restarts=20)
    doc["baseline_cost"] = exact_cost(join, base_centers)
    if doc["baseline_cost"] > 0:
        doc["cost_ratio"] = doc["exact_cost"] / doc["baseline_cost"]
    else:
        doc["cost_ratio"] = 1.0 if doc["exact_cost"] == 0 else math.inf
    clock.lap("verify")
    return doc


def build_parser() -> argparse.ArgumentParser:
    """The CLI flags, one per :class:`RunConfig` field; a flag left out
    leaves its field's default."""
    p = argparse.ArgumentParser(
        prog="relkmeans",
        description="Approximate k-means over an acyclic relational database "
                    "without materializing the join.",
        argument_default=argparse.SUPPRESS)
    p.add_argument("--schema", required=True, help="schema document path")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float,
                   help="ball-count slack, sets delta/m buckets (default epsilon/2)")
    p.add_argument("--tau", type=int)
    p.add_argument("--coreset-factor", type=float,
                   help="coreset size multiplier c in k' = min(c*k*ceil(lg N), N)")
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--out", help="write the JSON result here")
    p.add_argument("--guard", type=int,
                   help="materialization row cap for baseline/verify modes")
    p.add_argument("--ring-cap", type=int,
                   help="cap per-ring test draws in the weigher")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        folder = os.path.dirname(cfg.out or "") or "."
        if cfg.out and not os.path.isdir(folder):  # fail before the run
            code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
            raise ValueError("cannot write --out: "
                             f"{OSError(code, os.strerror(code), cfg.out)}")
        doc = run(cfg)
    except (SchemaError, InsufficientDistinctPoints, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc}); a smaller --ring-cap bounds the "
              "weigher's test draws", file=sys.stderr)
        return 1
    except CyclicSchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MaterializationGuard as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SamplingGaveUp as exc:
        print(f"error: sampling gave up ({exc}); another --seed may succeed",
              file=sys.stderr)
        return 4
    text = json.dumps(doc, indent=2)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
