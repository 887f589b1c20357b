"""Road-network representation and the spectral structures the GCN consumes.

A road network is a directed graph of intersections (nodes) and segments
(edges) carrying static categorical and numeric features. Two adjacency
structures are maintained: node-wise (intersections joined by a segment) and
edge-wise (the line graph: segments adjacent iff they share an endpoint).
Both are symmetrized with zero diagonal for spectral use; edge direction is
retained on the records and used only for route validation.

CSV schemas (UTF-8, header required):

- nodes.csv: ``node_id,lat,lon,junction_type,has_signal,has_crossing``
- edges.csv: ``edge_id,from_node,to_node,road_type,length_m,speed_limit_kph,
  lanes,width_m,is_bridge,is_tunnel``
- schema sidecar: plain-text ``name=cardinality`` lines declaring categorical
  vocabulary sizes (inferred as max+1 when absent).

Routes reference network *positions* (indexes into the node/edge lists), not
raw ids; the loaders translate ids to positions on ingestion. Synthetic worlds
use ids equal to positions, so the two coincide there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np
import scipy.sparse as sp

NODE_CATEGORICAL_SLOTS = ("junction_type", "has_signal", "has_crossing")
EDGE_CATEGORICAL_SLOTS = ("road_type", "special_type")
NODE_NUMERIC_COLUMNS = ("lat", "lon")
EDGE_NUMERIC_COLUMNS = ("length_m", "speed_limit_kph", "lanes", "width_m")


class NetworkError(ValueError):
    """Malformed row, dangling reference, or duplicate id.

    record is ("nodes" | "edges", position) of the offending record when one
    is to blame; load_network turns it into a CSV row number.
    """

    def __init__(self, message: str, record: tuple[str, int] | None = None) -> None:
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class NodeRecord:
    id: int
    categorical: tuple[int, ...]  # junction_type, has_signal, has_crossing
    numeric: tuple[float, ...]  # lat, lon

    @property
    def lat(self) -> float:
        return self.numeric[0]

    @property
    def lon(self) -> float:
        return self.numeric[1]


@dataclass(frozen=True)
class EdgeRecord:
    id: int
    from_node: int
    to_node: int
    categorical: tuple[int, ...]  # road_type, special_type (bridge + 2*tunnel)
    numeric: tuple[float, ...]  # length_m, speed_limit_kph, lanes, width_m

    @property
    def length_m(self) -> float:
        return self.numeric[0]

    @property
    def speed_limit_kph(self) -> float:
        return self.numeric[1]

    @property
    def is_bridge(self) -> bool:
        return bool(self.categorical[1] & 1)

    @property
    def is_tunnel(self) -> bool:
        return bool(self.categorical[1] & 2)


@dataclass(frozen=True)
class Route:
    """Alternating sequence e1, v1, e2, ..., e_n of edge and node positions.

    steps holds ("e", position) / ("v", position) pairs so that malformed
    sequences can be represented and reported by validate_route.
    """

    steps: tuple[tuple[str, int], ...]
    departure_time: datetime
    driver_id: str

    def edge_positions(self) -> list[int]:
        return [pos for kind, pos in self.steps if kind == "e"]

    def node_positions(self) -> list[int]:
        return [pos for kind, pos in self.steps if kind == "v"]


@dataclass
class RoadNetwork:
    nodes: list[NodeRecord]
    edges: list[EdgeRecord]
    node_vocabs: tuple[int, ...]
    edge_vocabs: tuple[int, ...]
    node_index: dict[int, int] = field(repr=False)
    edge_index: dict[int, int] = field(repr=False)
    node_adjacency: sp.csr_matrix = field(repr=False)
    edge_adjacency: sp.csr_matrix = field(repr=False)
    laplacian_nodes: sp.csr_matrix = field(repr=False)
    laplacian_edges: sp.csr_matrix = field(repr=False)
    node_categorical: np.ndarray = field(repr=False)  # (|V|, n_slots) int64
    edge_categorical: np.ndarray = field(repr=False)
    node_numeric: np.ndarray = field(repr=False)  # (|V|, n_cols) float64
    edge_numeric: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def normalized_laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """L = I - D^{-1/2} A D^{-1/2}; zero-degree rows become identity rows.

    Requires a symmetric, non-negative adjacency. Eigenvalues lie in [0, 2].
    """
    a = sp.csr_matrix(adjacency, dtype=np.float64)
    if a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if (a != a.T).nnz != 0:
        raise ValueError("adjacency must be symmetric")
    if a.nnz and a.data.min() < 0:
        raise ValueError("adjacency must be non-negative")
    deg = np.asarray(a.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    d = sp.diags(dinv_sqrt)
    lap = sp.eye(a.shape[0], format="csr") - d @ a @ d
    return sp.csr_matrix(lap)


def _build_adjacency(edges: list[EdgeRecord], node_index: dict[int, int], n_nodes: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    node_pairs: set[tuple[int, int]] = set()
    incident: dict[int, list[int]] = {}
    for pos, e in enumerate(edges):
        u = node_index[e.from_node]
        v = node_index[e.to_node]
        node_pairs.add((min(u, v), max(u, v)))
        incident.setdefault(u, []).append(pos)
        incident.setdefault(v, []).append(pos)

    def sym(pairs: set[tuple[int, int]], n: int) -> sp.csr_matrix:
        if not pairs:
            return sp.csr_matrix((n, n), dtype=np.float64)
        rows, cols = [], []
        for i, j in pairs:
            rows.extend((i, j))
            cols.extend((j, i))
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    edge_pairs: set[tuple[int, int]] = set()
    for lst in incident.values():
        for a in range(len(lst)):
            for b in range(a + 1, len(lst)):
                i, j = lst[a], lst[b]
                if i != j:
                    edge_pairs.add((min(i, j), max(i, j)))
    return sym(node_pairs, n_nodes), sym(edge_pairs, len(edges))


def build_network(
    nodes: list[NodeRecord],
    edges: list[EdgeRecord],
    node_vocabs: tuple[int, ...] | None = None,
    edge_vocabs: tuple[int, ...] | None = None,
) -> RoadNetwork:
    """Validate records and assemble index maps, adjacencies, and Laplacians.

    Every numeric feature must be finite, and edge length and speed limit
    must be > 0. A NetworkError names the offending record.
    """
    node_index: dict[int, int] = {}
    for pos, n in enumerate(nodes):
        if n.id in node_index:
            raise NetworkError(f"duplicate node id {n.id}", ("nodes", pos))
        if not all(math.isfinite(x) for x in n.numeric):
            raise NetworkError(f"node {n.id}: numeric features must be finite", ("nodes", pos))
        node_index[n.id] = pos
    edge_index: dict[int, int] = {}
    for pos, e in enumerate(edges):
        where = ("edges", pos)
        if e.id in edge_index:
            raise NetworkError(f"duplicate edge id {e.id}", where)
        if e.from_node not in node_index:
            raise NetworkError(f"edge {e.id}: dangling from_node {e.from_node}", where)
        if e.to_node not in node_index:
            raise NetworkError(f"edge {e.id}: dangling to_node {e.to_node}", where)
        if e.from_node == e.to_node:
            raise NetworkError(f"edge {e.id}: self-loop edges are not allowed", where)
        if not all(math.isfinite(x) for x in e.numeric):
            raise NetworkError(f"edge {e.id}: numeric features must be finite", where)
        if not (e.length_m > 0):
            raise NetworkError(f"edge {e.id}: length must be > 0", where)
        if not (e.speed_limit_kph > 0):
            raise NetworkError(f"edge {e.id}: speed limit must be > 0", where)
        edge_index[e.id] = pos

    def infer_vocabs(rows: list[tuple[int, ...]], n_slots: int) -> tuple[int, ...]:
        out = []
        for j in range(n_slots):
            out.append(max((r[j] for r in rows), default=0) + 1)
        return tuple(out)

    node_cat = [n.categorical for n in nodes]
    edge_cat = [e.categorical for e in edges]
    nv = node_vocabs or infer_vocabs(node_cat, len(NODE_CATEGORICAL_SLOTS))
    ev = edge_vocabs or infer_vocabs(edge_cat, len(EDGE_CATEGORICAL_SLOTS))
    for pos, rec in enumerate(nodes):
        for j, val in enumerate(rec.categorical):
            if not 0 <= val < nv[j]:
                raise NetworkError(f"node {rec.id}: categorical slot {j} value {val} outside vocabulary {nv[j]}", ("nodes", pos))
    for pos, rec in enumerate(edges):
        for j, val in enumerate(rec.categorical):
            if not 0 <= val < ev[j]:
                raise NetworkError(f"edge {rec.id}: categorical slot {j} value {val} outside vocabulary {ev[j]}", ("edges", pos))

    node_adj, edge_adj = _build_adjacency(edges, node_index, len(nodes))
    return RoadNetwork(
        nodes=nodes,
        edges=edges,
        node_vocabs=nv,
        edge_vocabs=ev,
        node_index=node_index,
        edge_index=edge_index,
        node_adjacency=node_adj,
        edge_adjacency=edge_adj,
        laplacian_nodes=normalized_laplacian(node_adj),
        laplacian_edges=normalized_laplacian(edge_adj),
        node_categorical=np.array([n.categorical for n in nodes], dtype=np.int64).reshape(len(nodes), -1),
        edge_categorical=np.array([e.categorical for e in edges], dtype=np.int64).reshape(len(edges), -1),
        node_numeric=np.array([n.numeric for n in nodes], dtype=np.float64).reshape(len(nodes), -1),
        edge_numeric=np.array([e.numeric for e in edges], dtype=np.float64).reshape(len(edges), -1),
    )


def load_schema(source) -> dict[str, int]:
    """Parse the sidecar vocabulary file (``name=cardinality`` per line)."""
    out: dict[str, int] = {}
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise NetworkError(f"schema line {lineno}: expected name=cardinality, got {line!r}")
            key, _, val = line.partition("=")
            try:
                out[key.strip()] = int(val)
            except ValueError as exc:
                raise NetworkError(f"schema line {lineno}: bad cardinality {val!r}") from exc
    return out


def _parse_int(row: dict, key: str, where: str) -> int:
    try:
        return int(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkError(f"{where}: malformed integer field {key!r}") from exc


def _parse_float(row: dict, key: str, where: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkError(f"{where}: malformed numeric field {key!r}") from exc


def load_network(nodes_source, edges_source, schema_source=None) -> RoadNetwork:
    """Build a validated RoadNetwork from the CSV sources.

    Errors carry the offending row number (header is row 1).
    """
    nodes: list[NodeRecord] = []
    with open(nodes_source, "r", encoding="utf-8", newline="") as fh:
        for rownum, row in enumerate(csv.DictReader(fh), start=2):
            where = f"nodes row {rownum}"
            nodes.append(
                NodeRecord(
                    id=_parse_int(row, "node_id", where),
                    categorical=(
                        _parse_int(row, "junction_type", where),
                        _parse_int(row, "has_signal", where),
                        _parse_int(row, "has_crossing", where),
                    ),
                    numeric=(_parse_float(row, "lat", where), _parse_float(row, "lon", where)),
                )
            )
    edges: list[EdgeRecord] = []
    with open(edges_source, "r", encoding="utf-8", newline="") as fh:
        for rownum, row in enumerate(csv.DictReader(fh), start=2):
            where = f"edges row {rownum}"
            special = _parse_int(row, "is_bridge", where) + 2 * _parse_int(row, "is_tunnel", where)
            edges.append(
                EdgeRecord(
                    id=_parse_int(row, "edge_id", where),
                    from_node=_parse_int(row, "from_node", where),
                    to_node=_parse_int(row, "to_node", where),
                    categorical=(_parse_int(row, "road_type", where), special),
                    numeric=(
                        _parse_float(row, "length_m", where),
                        _parse_float(row, "speed_limit_kph", where),
                        _parse_float(row, "lanes", where),
                        _parse_float(row, "width_m", where),
                    ),
                )
            )
    node_vocabs = edge_vocabs = None
    if schema_source is not None:
        schema = load_schema(schema_source)
        missing = [slot for slot in NODE_CATEGORICAL_SLOTS + EDGE_CATEGORICAL_SLOTS if slot not in schema]
        if missing:
            raise NetworkError(f"schema lacks cardinality for slot(s) {', '.join(missing)}")
        node_vocabs = tuple(schema[s] for s in NODE_CATEGORICAL_SLOTS)
        edge_vocabs = tuple(schema[s] for s in EDGE_CATEGORICAL_SLOTS)
    try:
        return build_network(nodes, edges, node_vocabs, edge_vocabs)
    except NetworkError as exc:
        if exc.record is None:
            raise
        table, pos = exc.record
        raise NetworkError(f"{table} row {pos + 2}: {exc}", exc.record) from None


def save_network(network: RoadNetwork, nodes_dest, edges_dest, schema_dest=None) -> None:
    """Write the CSV + schema form; load_network(save_network(x)) round-trips."""
    with open(nodes_dest, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "lat", "lon", "junction_type", "has_signal", "has_crossing"])
        for n in network.nodes:
            w.writerow([n.id, repr(n.lat), repr(n.lon), *n.categorical])
    with open(edges_dest, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["edge_id", "from_node", "to_node", "road_type", "length_m", "speed_limit_kph", "lanes", "width_m", "is_bridge", "is_tunnel"]
        )
        for e in network.edges:
            w.writerow(
                [
                    e.id,
                    e.from_node,
                    e.to_node,
                    e.categorical[0],
                    repr(e.numeric[0]),
                    repr(e.numeric[1]),
                    repr(e.numeric[2]),
                    repr(e.numeric[3]),
                    int(e.is_bridge),
                    int(e.is_tunnel),
                ]
            )
    if schema_dest is not None:
        with open(schema_dest, "w", encoding="utf-8") as fh:
            for name, card in zip(NODE_CATEGORICAL_SLOTS, network.node_vocabs):
                fh.write(f"{name}={card}\n")
            for name, card in zip(EDGE_CATEGORICAL_SLOTS, network.edge_vocabs):
                fh.write(f"{name}={card}\n")


def validate_route(network: RoadNetwork, route: Route) -> list[str]:
    """Every invariant breach (alternation, connectivity); empty list = ok."""
    violations: list[str] = []
    steps = route.steps
    if not steps:
        return ["empty route"]
    for i, (kind, pos) in enumerate(steps):
        expected = "e" if i % 2 == 0 else "v"
        if kind != expected:
            violations.append(f"step {i}: alternation violation, expected {expected!r} got {kind!r}")
        limit = network.n_edges if kind == "e" else network.n_nodes
        if not 0 <= pos < limit:
            violations.append(f"step {i}: unknown {'edge' if kind == 'e' else 'node'} position {pos}")
    if steps[-1][0] != "e":
        violations.append(f"step {len(steps) - 1}: route must end with an edge")
    if violations:
        return violations
    for i in range(1, len(steps) - 1, 2):
        v = steps[i][1]
        e_prev = network.edges[steps[i - 1][1]]
        e_next = network.edges[steps[i + 1][1]]
        v_id = network.nodes[v].id
        if e_prev.to_node != v_id:
            violations.append(f"step {i}: connectivity violation, node {v} is not the head of the preceding edge")
        elif e_next.from_node != v_id:
            violations.append(f"step {i}: connectivity violation, node {v} is not the tail of the following edge")
    return violations


def out_edges(network: RoadNetwork) -> list[list[int]]:
    """Directed out-edge positions grouped by from-node position."""
    table: list[list[int]] = [[] for _ in range(network.n_nodes)]
    for pos, e in enumerate(network.edges):
        table[network.node_index[e.from_node]].append(pos)
    return table
