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


@dataclass(frozen=True)
class FeatureId:
    """A named column of the design matrix and its ordinal position."""

    name: str
    index: int


@dataclass(frozen=True, eq=False)
class Table:
    """One relation: an ordered feature list plus a float64 row matrix."""

    id: int
    name: str
    features: tuple[FeatureId, ...]
    rows: np.ndarray  # shape (n_rows, len(features))

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(self.features):
            rows = rows.reshape(-1, len(self.features))
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def with_rows(self, rows: np.ndarray) -> "Table":
        return Table(self.id, self.name, self.features, rows)


@dataclass(frozen=True)
class SchemaGraph:
    """Join hypergraph: one vertex per feature, one hyperedge per table."""

    vertices: tuple[FeatureId, ...]
    hyperedges: tuple[frozenset[str], ...]

    @property
    def n_features(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class JoinTree:
    """Evaluation tree over tables satisfying the running-intersection property.

    ``parents[i]`` is the parent table id of node i (None for the root) and
    ``separators[i]`` is the ordered shared-feature set on the edge to the
    parent.  Nodes are table ids, so ``len(parents) == m``.
    """

    parents: tuple[int | None, ...]
    separators: tuple[tuple[str, ...], ...]
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

    def rooted_order(self, root: int) -> list[tuple[int, int | None]]:
        """Post-order (children before parents) of nodes for the given root.

        Returns (node, parent) pairs; the root appears last with parent None.
        """
        adj = self.adjacency()
        order: list[tuple[int, int | None]] = []
        seen = {root}
        stack: list[tuple[int, int | None]] = [(root, None)]
        pre: list[tuple[int, int | None]] = []
        while stack:
            node, par = stack.pop()
            pre.append((node, par))
            for nbr in sorted(adj[node]):
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append((nbr, node))
        order = list(reversed(pre))
        return order


@dataclass(frozen=True)
class CyclicVerdict:
    """GYO reduction got stuck; holds the residual hypergraph for diagnostics."""

    residual: tuple[tuple[int, frozenset[str]], ...]  # (table id, remaining features)

    def describe(self) -> str:
        parts = [
            f"T{tid}({','.join(sorted(feats))})" for tid, feats in self.residual
        ]
        return "residual hypergraph: " + " ".join(parts)


def load_database(schema_doc: str | Path,
                  table_files: list[str | Path] | None = None,
                  ) -> tuple[list[Table], SchemaGraph]:
    """Load tables described by a schema document.

    The document has one line per table, ``name: col1,col2,... @ csv_path``.
    Relative CSV paths are resolved against the schema file's directory (or
    the cwd when the schema is passed as inline text).  ``table_files``, if
    given, overrides the per-line paths positionally.
    """
    schema_path: Path | None = None
    text = str(schema_doc)
    if isinstance(schema_doc, Path):
        schema_path = schema_doc
    elif "\n" not in text and (":" not in text or Path(text).exists()):
        schema_path = Path(text)
        if not schema_path.exists():
            raise SchemaError(f"{text}: no such schema file")
    if schema_path is not None:
        text = schema_path.read_text(encoding="utf-8")
    base = schema_path.parent if schema_path is not None else Path.cwd()
    doc_name = str(schema_path) if schema_path is not None else "<schema>"

    entries: list[tuple[str, list[str], Path]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line or "@" not in line:
            raise SchemaError(f"{doc_name}:{lineno}: expected 'name: cols @ path'")
        name, rest = line.split(":", 1)
        cols_part, path_part = rest.rsplit("@", 1)
        name = name.strip()
        cols = [c.strip() for c in cols_part.split(",") if c.strip()]
        if not name or not cols:
            raise SchemaError(f"{doc_name}:{lineno}: missing table name or columns")
        entries.append((name, cols, Path(path_part.strip())))

    names = [e[0] for e in entries]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise SchemaError(f"{doc_name}: duplicate table name {dup!r}")

    if table_files is not None:
        if len(table_files) != len(entries):
            raise SchemaError(
                f"{doc_name}: {len(table_files)} table files for {len(entries)} tables")
        entries = [(n, c, Path(p)) for (n, c, _), p in zip(entries, table_files)]

    feature_index: dict[str, int] = {}
    for _, cols, _ in entries:
        for c in cols:
            if c not in feature_index:
                feature_index[c] = len(feature_index)

    tables: list[Table] = []
    for tid, (name, cols, path) in enumerate(entries):
        if not path.is_absolute():
            path = base / path
        rows = _read_csv(path, cols)
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


def tables_to_schema(tables: list[Table]) -> SchemaGraph:
    """Rebuild the hypergraph of an in-memory table list."""
    seen: dict[str, FeatureId] = {}
    for t in tables:
        for f in t.features:
            if f.name in seen and seen[f.name].index != f.index:
                raise SchemaError(f"feature {f.name!r} has inconsistent indices")
            seen.setdefault(f.name, f)
    vertices = tuple(sorted(seen.values(), key=lambda f: f.index))
    return SchemaGraph(vertices, tuple(frozenset(t.feature_names()) for t in tables))


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

    if m == 1:
        return JoinTree((None,), ((),), tuple(map(frozenset, g.hyperedges)), 0)

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
    node_features = tuple(map(frozenset, g.hyperedges))
    separators = tuple(
        tuple(sorted(node_features[i] & node_features[p])) if p is not None else ()
        for i, p in enumerate(parents)
    )
    return JoinTree(tuple(parents), separators, node_features, root)


def running_intersection_holds(tree: JoinTree) -> bool:
    """Check the join-tree invariant: nodes holding each feature are connected."""
    adj = tree.adjacency()
    features = set().union(*tree.node_features) if tree.node_features else set()
    for f in features:
        holders = {i for i in range(tree.n_nodes) if f in tree.node_features[i]}
        start = next(iter(holders))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in adj[node]:
                if nbr in holders and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if seen != holders:
            return False
    return True
