"""Seeded synthetic databases for the benchmark, one generator per workload.

Each generator writes CSV files plus a schema document into a directory and
returns an :class:`Instance`: the schema path, the CLI flags of the
workload, the join size known in closed form from the construction, and
the planted clustering.  The program under test only ever sees the files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One generated database.

    ``n_rows`` is the join size known from the construction.
    ``key_feature`` names a join key whose value identifies a row's planted
    cluster through ``key_cluster``.
    """

    schema: Path
    k: int
    flags: tuple[str, ...]
    n_rows: int
    key_feature: str
    key_cluster: dict[float, int] = field(repr=False)


def _dump(path: Path, cols: tuple[str, ...], rows, fmt: str) -> None:
    lines = [",".join(cols)]
    lines += [",".join(fmt.format(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def star_centers(outdir: Path, seed: int, n_clusters: int = 3,
                 hubs_per_cluster: int = 12, rows_per_hub: int = 3) -> Instance:
    """The demo's three-table star (same draws, same CSV bytes as
    ``scripts/demo_pipeline.py`` at the same seed)."""
    rng = np.random.default_rng(seed)
    hub, leaf1, leaf2 = [], [], []
    key_cluster: dict[float, int] = {}
    for c in range(n_clusters):
        mu = c * 60.0
        for _ in range(hubs_per_cluster):
            hv = mu + rng.normal(0, 1.0)
            key_cluster[float(f"{hv:.6f}")] = c
            for _ in range(rows_per_hub):
                hub.append((hv, mu + rng.normal(0, 1.0)))
                leaf1.append((hv, mu + rng.normal(0, 1.0)))
                leaf2.append((hv, mu + rng.normal(0, 1.0)))
    _dump(outdir / "hub.csv", ("h", "x1"), hub, "{:.6f}")
    _dump(outdir / "leaf1.csv", ("h", "x2"), leaf1, "{:.6f}")
    _dump(outdir / "leaf2.csv", ("h", "x3"), leaf2, "{:.6f}")
    schema = outdir / "schema.txt"
    schema.write_text(
        "Hub: h,x1 @ hub.csv\nL1: h,x2 @ leaf1.csv\nL2: h,x3 @ leaf2.csv\n")
    n_keys = n_clusters * hubs_per_cluster
    return Instance(schema, n_clusters,
                    ("--coreset-factor", "0.5", "--ring-cap", "4"),
                    n_keys * rows_per_hub ** 3, "h", key_cluster)


def snowflake_wide(outdir: Path, seed: int, n_clusters: int = 3,
                   hubs_per_cluster: int = 1, rows_per_key: int = 9,
                   ) -> Instance:
    """Depth-2 snowflake T0(h,x0)-T1(h,g,x1)-T2(g,x2), T0-T3(h,u,x3)-T4(u,x4).

    Every hub key h has one g and one u value, and every table holds
    ``rows_per_key`` rows per key, so each hub key extends to
    rows_per_key^5 join rows.
    """
    rng = np.random.default_rng(seed)
    t0, t1, t2, t3, t4 = [], [], [], [], []
    key_cluster: dict[float, int] = {}
    for c in range(n_clusters):
        mu = c * 60.0
        for _ in range(hubs_per_cluster):
            hv, gv, uv = (mu + rng.normal(0, 1.0) for _ in range(3))
            key_cluster[float(f"{hv:.6f}")] = c
            for _ in range(rows_per_key):
                t0.append((hv, mu + rng.normal(0, 1.0)))
                t1.append((hv, gv, mu + rng.normal(0, 1.0)))
                t2.append((gv, mu + rng.normal(0, 1.0)))
                t3.append((hv, uv, mu + rng.normal(0, 1.0)))
                t4.append((uv, mu + rng.normal(0, 1.0)))
    _dump(outdir / "t0.csv", ("h", "x0"), t0, "{:.6f}")
    _dump(outdir / "t1.csv", ("h", "g", "x1"), t1, "{:.6f}")
    _dump(outdir / "t2.csv", ("g", "x2"), t2, "{:.6f}")
    _dump(outdir / "t3.csv", ("h", "u", "x3"), t3, "{:.6f}")
    _dump(outdir / "t4.csv", ("u", "x4"), t4, "{:.6f}")
    schema = outdir / "schema.txt"
    schema.write_text(
        "T0: h,x0 @ t0.csv\nT1: h,g,x1 @ t1.csv\nT2: g,x2 @ t2.csv\n"
        "T3: h,u,x3 @ t3.csv\nT4: u,x4 @ t4.csv\n")
    n_hubs = n_clusters * hubs_per_cluster
    return Instance(schema, n_clusters,
                    ("--coreset-factor", "0.2", "--ring-cap", "4"),
                    n_hubs * rows_per_key ** 5, "h", key_cluster)


def path_coded(outdir: Path, seed: int, n_clusters: int = 3,
               rows_per_cluster: int = 30, levels: int = 3) -> Instance:
    """Path T1(x1,b)-T2(b,y,c)-T3(c,x3) over small integer codes.

    Cluster c takes every value from ``levels`` codes starting at 10*c, so
    joins stay inside a cluster and many join points coincide.  Within a
    cluster each column holds every code equally often, in shuffled order,
    so the join size is the same for every seed:
    n_clusters * rows * (rows / levels)^2.
    """
    if rows_per_cluster % levels:
        raise ValueError("rows_per_cluster must be a multiple of levels")
    rng = np.random.default_rng(seed)

    def column(off: int) -> np.ndarray:
        return off + rng.permutation(np.arange(rows_per_cluster) % levels)

    t1, t2, t3 = [], [], []
    for c in range(n_clusters):
        off = 10 * c
        t1 += zip(column(off), column(off))
        t2 += zip(column(off), column(off), column(off))
        t3 += zip(column(off), column(off))
    _dump(outdir / "t1.csv", ("x1", "b"), t1, "{:d}")
    _dump(outdir / "t2.csv", ("b", "y", "c"), t2, "{:d}")
    _dump(outdir / "t3.csv", ("c", "x3"), t3, "{:d}")
    schema = outdir / "schema.txt"
    schema.write_text(
        "T1: x1,b @ t1.csv\nT2: b,y,c @ t2.csv\nT3: c,x3 @ t3.csv\n")
    key_cluster = {float(10 * c + lv): c
                   for c in range(n_clusters) for lv in range(levels)}
    per_code = rows_per_cluster // levels
    return Instance(schema, n_clusters,
                    ("--coreset-factor", "0.35", "--ring-cap", "10"),
                    n_clusters * rows_per_cluster * per_code ** 2,
                    "b", key_cluster)


GENERATORS = {
    "star-centers": star_centers,
    "snowflake-wide": snowflake_wide,
    "path-coded": path_coded,
}

# Smallest instances of each shape, for the self-test.
TINY = {
    "star-centers": dict(hubs_per_cluster=2, rows_per_hub=2),
    "snowflake-wide": dict(hubs_per_cluster=1, rows_per_key=2),
    "path-coded": dict(rows_per_cluster=6),
}


def planted_labels(rows: np.ndarray, key_index: int,
                   key_cluster: dict[float, int]) -> np.ndarray:
    """Planted cluster of each materialized join row."""
    return np.array([key_cluster[float(v)] for v in rows[:, key_index]],
                    dtype=np.int64)


def planted_centroids(rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean of each planted cluster's join rows."""
    return np.array([rows[labels == c].mean(axis=0)
                     for c in np.unique(labels)])
