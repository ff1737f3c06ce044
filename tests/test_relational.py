from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relkmeans import (
    CyclicVerdict,
    FeatureId,
    JoinEvaluator,
    SchemaError,
    Table,
    gyo_reduce,
    load_database,
    tables_to_schema,
)

from conftest import brute_force_join, random_acyclic_tables


def write_schema(tmp_path, spec: dict[str, tuple[list[str], str]]) -> str:
    lines = []
    for name, (cols, csv_body) in spec.items():
        fname = f"{name}.csv"
        (tmp_path / fname).write_text(csv_body)
        lines.append(f"{name}: {','.join(cols)} @ {fname}")
    path = tmp_path / "schema.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadDatabase:
    def test_path_fixture(self, tmp_path):
        schema = write_schema(tmp_path, {
            "T1": (["f1", "f2"], "f1,f2\n1,1\n2,1\n3,2\n4,3\n5,4\n"),
            "T2": (["f2", "f3"], "f2,f3\n1,1\n1,2\n2,3\n5,4\n5,5\n"),
        })
        tables, graph = load_database(schema)
        assert len(tables) == 2
        assert graph.n_features == 3
        assert len(graph.hyperedges) == 2
        assert tables[0].n_rows == 5 and tables[1].n_rows == 5

    def test_empty_single_table(self, tmp_path):
        schema = write_schema(tmp_path, {"T": (["x"], "x\n")})
        tables, graph = load_database(schema)
        assert tables[0].n_rows == 0
        assert graph.n_features == 1

    def test_star_schema_hub_degree(self, tmp_path):
        schema = write_schema(tmp_path, {
            "A": (["hub", "a"], "hub,a\n1,1\n"),
            "B": (["hub", "b"], "hub,b\n1,2\n"),
            "C": (["hub", "c"], "hub,c\n1,3\n"),
        })
        tables, graph = load_database(schema)
        hub_edges = sum(1 for e in graph.hyperedges if "hub" in e)
        assert hub_edges == 3

    def test_duplicate_table_name(self, tmp_path):
        (tmp_path / "t.csv").write_text("x\n1\n")
        doc = tmp_path / "schema.txt"
        doc.write_text("T: x @ t.csv\nT: x @ t.csv\n")
        with pytest.raises(SchemaError, match="duplicate table name"):
            load_database(str(doc))

    def test_repeated_column_names_file_line_and_column(self, tmp_path):
        (tmp_path / "t.csv").write_text("b,a,a\n1,1,1\n1,2,3\n")
        (tmp_path / "u.csv").write_text("b\n1\n")
        doc = tmp_path / "schema.txt"
        doc.write_text("U: b @ u.csv\nT1: b,a,a @ t.csv\n")
        with pytest.raises(SchemaError,
                           match=r"schema\.txt:2: column 'a' repeats in table 'T1'"):
            load_database(str(doc))

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        (tmp_path / "t.csv").write_text("x\n1\nfoo\n")
        doc = tmp_path / "schema.txt"
        doc.write_text("T: x @ t.csv\n")
        with pytest.raises(SchemaError, match=r"t\.csv:3"):
            load_database(str(doc))

    def test_header_mismatch(self, tmp_path):
        (tmp_path / "t.csv").write_text("y\n1\n")
        doc = tmp_path / "schema.txt"
        doc.write_text("T: x @ t.csv\n")
        with pytest.raises(SchemaError, match="header"):
            load_database(str(doc))

    def test_rows_of_the_wrong_width_name_the_table(self):
        feats = (FeatureId("a", 0), FeatureId("b", 1))
        with pytest.raises(ValueError, match="table 'T': rows have 3 columns"):
            Table(0, "T", feats, np.arange(12.0).reshape(4, 3))
        # flat rows, as a list or 1-D array, still fill the table row-wise
        assert Table(0, "T", feats, np.arange(4.0)).rows.shape == (2, 2)
        assert Table(0, "T", feats, np.empty((0, 2))).n_rows == 0

    def test_malformed_line(self, tmp_path):
        doc = tmp_path / "schema.txt"
        doc.write_text("just some words\nanother line\n")
        with pytest.raises(SchemaError, match="expected"):
            load_database(str(doc))


def running_intersection_holds(tree):
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


class TestGyoReduce:
    def test_path_join(self, path_tables):
        tree = gyo_reduce(tables_to_schema(path_tables))
        assert not isinstance(tree, CyclicVerdict)
        assert tree.n_nodes == 2
        child = 0 if tree.parents[0] is not None else 1
        assert tree.edge_separator(child, tree.parents[child]) == ("f2",)
        assert running_intersection_holds(tree)

    def test_triangle_is_cyclic(self):
        ts = [
            Table(0, "A", (FeatureId("a", 0), FeatureId("b", 1)), np.zeros((1, 2))),
            Table(1, "B", (FeatureId("b", 1), FeatureId("c", 2)), np.zeros((1, 2))),
            Table(2, "C", (FeatureId("c", 2), FeatureId("a", 0)), np.zeros((1, 2))),
        ]
        verdict = gyo_reduce(tables_to_schema(ts))
        assert isinstance(verdict, CyclicVerdict)
        assert len(verdict.residual) == 3
        assert "residual hypergraph" in verdict.describe()

    def test_single_table(self):
        t = Table(0, "T", (FeatureId("x", 0),), np.array([[1.0]]))
        tree = gyo_reduce(tables_to_schema([t]))
        assert tree.n_nodes == 1 and tree.parents == (None,)

    def test_deterministic(self, rng):
        for _ in range(20):
            tables = random_acyclic_tables(rng)
            g = tables_to_schema(tables)
            assert gyo_reduce(g) == gyo_reduce(g)

    def test_random_acyclic_schemas_get_trees(self, rng):
        for _ in range(50):
            tables = random_acyclic_tables(rng)
            tree = gyo_reduce(tables_to_schema(tables))
            assert not isinstance(tree, CyclicVerdict)
            assert running_intersection_holds(tree)


def apply_box_masks(tables, low, high):
    """The tables restricted to their rows inside the one box
    ``low <= x < high``, each table's mask built on its own rows."""
    ev = JoinEvaluator(gyo_reduce(tables_to_schema(tables)), tables)
    low, high = np.array([low], dtype=float), np.array([high], dtype=float)
    return [replace(t, rows=t.rows[ev.box_mask(t.id, low, high)[0]])
            for t in tables]


class TestFilterByBox:
    def test_shared_column_restriction(self, path_tables):
        out = apply_box_masks(path_tables, [-np.inf, 1, -np.inf], [np.inf, 2, np.inf])
        assert out[0].rows.tolist() == [[1, 1], [2, 1]]
        assert out[1].rows.tolist() == [[1, 1], [1, 2]]
        assert len(brute_force_join(out)) == 4

    def test_whole_space_is_identity(self, path_tables):
        out = apply_box_masks(path_tables, np.full(3, -np.inf), np.full(3, np.inf))
        for a, b in zip(out, path_tables):
            assert np.array_equal(a.rows, b.rows)

    def test_excluding_box_empties_join(self, path_tables):
        out = apply_box_masks(path_tables, [100.0, -np.inf, -np.inf],
                              [200.0, np.inf, np.inf])
        assert out[0].n_rows == 0
        assert len(brute_force_join(out)) == 0

    def test_open_faces(self):
        # closed lower face, open upper face
        t = Table(0, "T", (FeatureId("x", 0),), np.array([[0.0], [1.0], [2.0]]))
        assert apply_box_masks([t], [0.0], [1.0])[0].rows.tolist() == [[0.0]]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), lo=st.floats(-3, 3), width=st.floats(0, 4))
    def test_matches_materialized_filter(self, seed, lo, width):
        rng = np.random.default_rng(seed)
        tables = random_acyclic_tables(rng, max_tables=3, max_rows=5)
        d = len({f.name for t in tables for f in t.features})
        dim = int(rng.integers(0, d))
        low = np.full(d, -np.inf)
        high = np.full(d, np.inf)
        low[dim], high[dim] = lo, lo + width
        joined = brute_force_join(tables)
        expected = joined[(joined[:, dim] >= lo) & (joined[:, dim] < lo + width)] \
            if len(joined) else joined
        got = brute_force_join(apply_box_masks(tables, low, high))
        assert sorted(map(tuple, got)) == sorted(map(tuple, expected))
