"""Road-network tests: adjacency, Laplacian, route validation, CSV round trip."""

import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import graph
from fedtte.graph import EdgeRecord, NetworkError, NodeRecord, Route

from conftest import NUMERIC_FIELD_TEXT, finite_value, make_edge, make_node, make_path_network, make_triangle_network


def test_two_node_single_edge_has_empty_edge_adjacency():
    net = make_path_network(2)
    adj = net.edge_adjacency
    assert adj.nnz == 0


def test_triangle_edge_adjacency_symmetric_pairs():
    net = make_triangle_network()
    adj = net.edge_adjacency.toarray()
    # every pair of the 3 edges shares exactly one endpoint
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(adj, expected)
    assert np.array_equal(adj, adj.T)


def test_laplacian_empty_adjacency_is_identity():
    net = make_path_network(2)
    lap = graph.normalized_laplacian(net.edge_adjacency).toarray()
    assert np.array_equal(lap, np.eye(1))


def test_laplacian_two_node_path():
    net = make_path_network(3)  # 2 edges sharing node 1
    lap = graph.normalized_laplacian(net.edge_adjacency).toarray()
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_laplacian_triangle():
    net = make_triangle_network()
    lap = graph.normalized_laplacian(net.edge_adjacency).toarray()
    assert np.allclose(np.diag(lap), np.ones(3), atol=1e-15)
    off = lap[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -0.5, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=20))
def test_laplacian_eigenvalues_in_unit_band(seed, n):
    # random symmetric adjacency on <= 20 "nodes" (here: edge-graph vertices)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(n, n))
    a = np.triu(a, 1)
    a = a + a.T
    import scipy.sparse as sp

    lap = graph.normalized_laplacian(sp.csr_matrix(a.astype(float))).toarray()
    eig = np.linalg.eigvalsh(lap)
    assert eig.min() >= -1e-9
    assert eig.max() <= 2.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_edge_adjacency_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(3, 8))
    nodes = [make_node(i) for i in range(n_nodes)]
    edges = []
    eid = 0
    for u, v in itertools.permutations(range(n_nodes), 2):
        if rng.random() < 0.3 and eid < 30:
            edges.append(make_edge(eid, u, v))
            eid += 1
    if not edges:
        edges.append(make_edge(0, 0, 1))
    net = graph.build_network(nodes, edges)
    adj = net.edge_adjacency.toarray()
    for i, ei in enumerate(edges):
        for j, ej in enumerate(edges):
            share = i != j and bool(
                {ei.from_node, ei.to_node} & {ej.from_node, ej.to_node}
            )
            assert bool(adj[i, j]) == share, (i, j)


# ---------------------------------------------------------------- validation

def test_validate_single_edge_route():
    net = make_path_network(3)
    route = Route(steps=(("e", 0),), departure_time=None, driver_id="d0")
    assert graph.validate_route(net, route) == []


def test_validate_flags_connectivity_violation():
    net = make_path_network(3)
    # e0 runs 0->1 but v2 is not an endpoint of e0
    route = Route(steps=(("e", 0), ("v", 2), ("e", 1)), departure_time=None, driver_id="d0")
    violations = graph.validate_route(net, route)
    assert violations
    assert "1" in violations[0]  # reported at step index 1


def test_validate_flags_alternation_violation():
    net = make_path_network(3)
    route = Route(steps=(("e", 0), ("e", 1)), departure_time=None, driver_id="d0")
    violations = graph.validate_route(net, route)
    assert violations


def test_validate_unknown_ids():
    net = make_path_network(2)
    route = Route(steps=(("e", 99),), departure_time=None, driver_id="d0")
    assert graph.validate_route(net, route)


def test_out_edges_groups_by_from_node():
    net = make_path_network(3)
    table = graph.out_edges(net)
    assert table == [[0], [1], []]


# ---------------------------------------------------------------- build/load errors

def test_build_rejects_duplicate_ids():
    nodes = [make_node(0)] * 2
    with pytest.raises(NetworkError):
        graph.build_network(nodes, [])


def test_build_rejects_dangling_endpoint():
    nodes = [make_node(0)]
    edges = [make_edge(0, 0, 5)]
    with pytest.raises(NetworkError):
        graph.build_network(nodes, edges)


def test_load_reports_row_numbers(tmp_path):
    nodes_csv = tmp_path / "nodes.csv"
    edges_csv = tmp_path / "edges.csv"
    nodes_csv.write_text(
        "node_id,lat,lon,junction_type,has_signal,has_crossing\n0,0.0,0.0,0,0,0\n1,1.0,0.0,0,0,0\n"
    )
    edges_csv.write_text(
        "edge_id,from_node,to_node,road_type,length_m,speed_limit_kph,lanes,width_m,is_bridge,is_tunnel\n"
        "0,0,1,0,abc,50.0,1,3.5,0,0\n"
    )
    with pytest.raises(NetworkError) as exc:
        graph.load_network(nodes_csv, edges_csv)
    assert "2" in str(exc.value)  # data row 2 (1-based with header)


NODE_HEADER = ["node_id", "lat", "lon", "junction_type", "has_signal", "has_crossing"]
EDGE_HEADER = ["edge_id", "from_node", "to_node", "road_type", "length_m", "speed_limit_kph", "lanes", "width_m", "is_bridge", "is_tunnel"]


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _path_csvs(directory, node_rows=None, edge_rows=None):
    """nodes.csv / edges.csv of the chain 0 -> 1 -> 2, with rows overridable."""
    nodes, edges = directory / "nodes.csv", directory / "edges.csv"
    _write_csv(nodes, NODE_HEADER, node_rows or [[i, float(i), 0.0, 0, 0, 0] for i in range(3)])
    _write_csv(edges, EDGE_HEADER, edge_rows or [[i, i, i + 1, 0, 100.0, 50.0, 1.0, 3.5, 0, 0] for i in range(2)])
    return nodes, edges


@pytest.mark.parametrize(
    "second_edge",
    [
        [0, 1, 2, 0, 100.0, 50.0, 1.0, 3.5, 0, 0],  # duplicate edge id
        [1, 7, 2, 0, 100.0, 50.0, 1.0, 3.5, 0, 0],  # dangling from_node
        [1, 1, 1, 0, 100.0, 50.0, 1.0, 3.5, 0, 0],  # self-loop
        [1, 1, 2, 0, -0.0, 50.0, 1.0, 3.5, 0, 0],  # length not > 0
        [1, 1, 2, 0, 100.0, 0.0, 1.0, 3.5, 0, 0],  # speed limit not > 0
        [1, 1, 2, 0, 100.0, 50.0, 1.0, "nan", 0, 0],  # non-finite width
        [1, 1, 2, 5, 100.0, 50.0, 1.0, 3.5, 0, 0],  # road type outside the schema vocabulary
    ],
)
def test_load_names_the_offending_edge_row(tmp_path, second_edge):
    first_edge = [0, 0, 1, 0, 100.0, 50.0, 1.0, 3.5, 0, 0]
    nodes, edges = _path_csvs(tmp_path, edge_rows=[first_edge, second_edge])
    schema = tmp_path / "schema.txt"
    schema.write_text("junction_type=1\nhas_signal=1\nhas_crossing=1\nroad_type=2\nspecial_type=4\n")
    with pytest.raises(NetworkError) as exc:
        graph.load_network(nodes, edges, schema)
    assert str(exc.value).startswith("edges row 3: ")


def test_load_names_the_offending_node_row(tmp_path):
    nodes, edges = _path_csvs(tmp_path, node_rows=[[0, 0.0, 0.0, 0, 0, 0], [1, 1.0, 0.0, 0, 0, 0], [1, 2.0, 0.0, 0, 0, 0]])
    with pytest.raises(NetworkError) as exc:
        graph.load_network(nodes, edges)
    assert str(exc.value).startswith("nodes row 4: duplicate node id 1")


def test_schema_missing_slot_is_named(tmp_path):
    nodes, edges = _path_csvs(tmp_path)
    schema = tmp_path / "schema.txt"
    schema.write_text("junction_type=1\nhas_crossing=1\nroad_type=1\nspecial_type=4\n")
    with pytest.raises(NetworkError, match="has_signal"):
        graph.load_network(nodes, edges, schema)


@settings(max_examples=80, deadline=None)
@given(
    table=st.sampled_from(["nodes", "edges"]),
    column=st.integers(min_value=0, max_value=3),
    text=NUMERIC_FIELD_TEXT,
)
def test_load_network_numeric_fields_fuzz(tmp_path_factory, table, column, text):
    # one numeric field of data row 3 holds the text: it loads when the text
    # is a finite number (> 0 for length and speed limit), else ValueError
    # names the row
    directory = tmp_path_factory.mktemp("net")
    node_rows = [[i, float(i), 0.0, 0, 0, 0] for i in range(3)]
    edge_rows = [[i, i, i + 1, 0, 100.0, 50.0, 1.0, 3.5, 0, 0] for i in range(2)]
    if table == "nodes":
        column %= 2
        node_rows[1][1 + column] = text
    else:
        edge_rows[1][4 + column] = text
    nodes, edges = _path_csvs(directory, node_rows, edge_rows)
    value = finite_value(text)
    if value is not None and (table == "nodes" or column >= 2 or value > 0):
        net = graph.load_network(nodes, edges)
        numeric = net.node_numeric[1, column] if table == "nodes" else net.edge_numeric[1, column]
        assert numeric == value
    else:
        with pytest.raises(ValueError) as exc:
            graph.load_network(nodes, edges)
        assert str(exc.value).startswith(f"{table} row 3: ")


def test_save_load_round_trip_bit_identical(tmp_path, small_world):
    net = small_world.network
    n1, e1, s1 = tmp_path / "n.csv", tmp_path / "e.csv", tmp_path / "s.txt"
    graph.save_network(net, n1, e1, s1)
    back = graph.load_network(n1, e1, s1)
    n2, e2, s2 = tmp_path / "n2.csv", tmp_path / "e2.csv", tmp_path / "s2.txt"
    graph.save_network(back, n2, e2, s2)
    assert n1.read_bytes() == n2.read_bytes()
    assert e1.read_bytes() == e2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    assert back.n_edges == net.n_edges
    assert back.n_nodes == net.n_nodes
