"""Relational input layer: tables, schema hypergraph, join trees.

A database is a list of :class:`Table` objects over a shared set of named,
real-valued features.  The join of all tables is never materialized here;
this module only provides the structural pieces the rest of the library
needs: loading, acyclicity detection via GYO reduction and the resulting
join tree.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class SchemaError(Exception):
    """Malformed schema document or CSV payload (message carries file/line)."""


class SamplingGaveUp(RuntimeError):
    """A randomized stage stopped without a result (a rejection budget or
    round limit ran out, a ball or a count came out empty); another seed may
    succeed."""


class MaterializationGuard(Exception):
    """Join size exceeds the configured row cap."""


DEFAULT_GUARD = 100_000


@dataclass(frozen=True, repr=False)
class FeatureId:
    """A named column of the design matrix and its ordinal position."""

    name: str
    index: int


@dataclass(eq=False, repr=False)
class Table:
    """One relation: an ordered feature list plus a float64 row matrix."""

    id: int
    name: str
    features: tuple[FeatureId, ...]
    rows: np.ndarray  # shape (n_rows, len(features))

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            rows = rows.reshape(-1, len(self.features))
        elif rows.shape[1] != len(self.features):
            raise ValueError(f"table {self.name!r}: rows have {rows.shape[1]} "
                             f"columns, expected {len(self.features)}")
        self.rows = rows

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)


@dataclass(repr=False)
class SchemaGraph:
    """Join hypergraph: one vertex per feature, one hyperedge per table."""

    vertices: tuple[FeatureId, ...]
    hyperedges: tuple[frozenset[str], ...]

    @property
    def n_features(self) -> int:
        return len(self.vertices)


@dataclass(repr=False)
class JoinTree:
    """Evaluation tree over tables satisfying the running-intersection property.

    ``parents[i]`` is the parent table id of node i (None for the root).
    Nodes are table ids, so ``len(parents) == m``.
    """

    parents: tuple[int | None, ...]
    node_features: tuple[frozenset[str], ...]
    root: int

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i in range(self.n_nodes)}
        for i, p in enumerate(self.parents):
            if p is not None:
                adj[i].append(p)
                adj[p].append(i)
        return adj

    def edge_separator(self, u: int, v: int) -> tuple[str, ...]:
        shared = self.node_features[u] & self.node_features[v]
        return tuple(sorted(shared))


@dataclass(repr=False)
class CyclicVerdict:
    """GYO reduction got stuck; holds the residual hypergraph for diagnostics."""

    residual: tuple[tuple[int, frozenset[str]], ...]  # (table id, remaining features)

    def describe(self) -> str:
        parts = [
            f"T{tid}({','.join(sorted(feats))})" for tid, feats in self.residual
        ]
        return "residual hypergraph: " + " ".join(parts)


def load_database(schema_doc: str | Path) -> tuple[list[Table], SchemaGraph]:
    """Load the tables of the schema document at path ``schema_doc``.

    The document has one line per table, ``name: col1,col2,... @ csv_path``;
    blank lines and ``#`` comments are skipped.  Relative CSV paths are
    resolved against the document's directory.  An unreadable document, or
    one naming no table, raises :class:`SchemaError`.
    """
    doc = Path(schema_doc)
    try:
        text = doc.read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{doc}: {exc}") from exc

    entries: list[tuple[str, list[str], Path]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line or "@" not in line:
            raise SchemaError(f"{doc}:{lineno}: expected 'name: cols @ path'")
        name, rest = line.split(":", 1)
        cols_part, path_part = rest.rsplit("@", 1)
        name = name.strip()
        cols = [c.strip() for c in cols_part.split(",") if c.strip()]
        if not name or not cols:
            raise SchemaError(f"{doc}:{lineno}: missing table name or columns")
        if name in (e[0] for e in entries):
            raise SchemaError(f"{doc}:{lineno}: duplicate table name {name!r}")
        dup = next((c for i, c in enumerate(cols) if c in cols[:i]), None)
        if dup is not None:
            raise SchemaError(
                f"{doc}:{lineno}: column {dup!r} repeats in table {name!r}")
        entries.append((name, cols, Path(path_part.strip())))
    if not entries:
        raise SchemaError(f"{doc}: no tables")

    columns = dict.fromkeys(c for _, cols, _ in entries for c in cols)
    feature_index = {c: i for i, c in enumerate(columns)}

    tables: list[Table] = []
    for tid, (name, cols, path) in enumerate(entries):
        rows = _read_csv(doc.parent / path, cols)
        feats = tuple(FeatureId(c, feature_index[c]) for c in cols)
        tables.append(Table(tid, name, feats, rows))

    vertices = tuple(FeatureId(n, i) for n, i in feature_index.items())
    hyperedges = tuple(frozenset(t.feature_names()) for t in tables)
    return tables, SchemaGraph(vertices, hyperedges)


def _read_csv(path: Path, expected_cols: list[str]) -> np.ndarray:
    try:
        fh = path.open(encoding="utf-8", newline="")
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}:1: empty file, expected a header row")
        header = [h.strip() for h in header]
        if header != expected_cols:
            raise SchemaError(
                f"{path}:1: header {header} does not match schema columns {expected_cols}")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(expected_cols):
                raise SchemaError(
                    f"{path}:{lineno}: {len(record)} cells, expected {len(expected_cols)}")
            parsed = []
            for col, cell in zip(expected_cols, record):
                try:
                    value = float(cell)
                except ValueError:
                    raise SchemaError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {col}")
                if not math.isfinite(value):
                    raise SchemaError(
                        f"{path}:{lineno}: non-finite value {cell!r} in column {col}")
                parsed.append(value)
            rows.append(parsed)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(expected_cols))


def gyo_reduce(g: SchemaGraph) -> JoinTree | CyclicVerdict:
    """GYO reduction: repeatedly drop columns unique to one table and absorb
    tables contained in another.  Succeeding yields a join tree; getting
    stuck yields a :class:`CyclicVerdict` naming the residual hypergraph.

    Tie-breaking is deterministic: the lowest-indexed eligible column is
    removed first, else the lowest-indexed absorbable table is absorbed into
    its lowest-indexed container.
    """
    m = len(g.hyperedges)
    index_of = {f.name: f.index for f in g.vertices}
    current: dict[int, set[str]] = {i: set(e) for i, e in enumerate(g.hyperedges)}
    parents: list[int | None] = [None] * m
    alive = set(range(m))
    while len(alive) > 1:
        # Column rule: a feature occurring in exactly one alive table.
        counts: dict[str, list[int]] = {}
        for tid in alive:
            for f in current[tid]:
                counts.setdefault(f, []).append(tid)
        lone = sorted((f for f, tids in counts.items() if len(tids) == 1),
                      key=lambda f: index_of[f])
        if lone:
            f = lone[0]
            current[counts[f][0]].discard(f)
            continue
        # Absorption rule: a table whose columns sit inside another table.
        absorbed = None
        for tid in sorted(alive):
            hosts = [o for o in sorted(alive)
                     if o != tid and current[tid] <= current[o]]
            if hosts:
                absorbed = (tid, hosts[0])
                break
        if absorbed is None:
            residual = tuple((tid, frozenset(current[tid])) for tid in sorted(alive))
            return CyclicVerdict(residual)
        tid, host = absorbed
        parents[tid] = host
        alive.discard(tid)

    root = alive.pop()
    return JoinTree(tuple(parents), tuple(map(frozenset, g.hyperedges)), root)

