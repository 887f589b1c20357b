"""Base traffic-state model and personal residual model.

Base model pipeline, per entity kind (edges and nodes):

1. embedding: per-categorical-slot table lookups, summed with a
   slot-independent identity embedding and an affine projection of the
   standardized numeric features;
2. spatial graph convolution: ``ReLU(sum_c theta_c L^c h) W`` per layer,
   with L the symmetric normalized Laplacian and powers applied iteratively;
3. spatio-temporal cross product: per-entity head rows ``U = hW + b`` (b is a
   per-entity scalar) contracted with a temporal attention vector ``a`` into
   scalar travel times ``Y = output_scale * (U @ a)``;
4. route prediction: sum of the route's edge entries and interior-node
   entries of the traffic state at the route's slot.

The base loss is evaluated for C clients at once, one route each, on their
tensors stacked along a leading client axis (a lockstep step of local
training; one client is C = 1). Each client's route is evaluated exactly on
its receptive field: the edges within gcn_layers * hops line-graph hops of
its edges and the nodes within as many node-graph hops of its interior
nodes, convolved with the sub-block of the global normalized Laplacian over
those rows (not renormalized). The clients' fields are found and cut in
one pass, padded to one width and convolved together through the
block-diagonal matrix of their sub-blocks. When the rows around all the
routes are more than half of a side, every client runs on the whole side
instead. Each client's loss and gradients equal its own whole-graph pass
byte for byte; base_loss reports the gradient columns it writes, so a
step checks and updates those only. The weight
gradients sum over the field's rows in BLAS matrix products, so this
identity holds with a BLAS that adds a product's rows in sequence; it was
measured with OpenBLAS 0.3.31, and a BLAS that splits the rows into blocks
may differ from the whole-graph pass in the last bit.

The served traffic state is one whole-graph forward pass shared by every
slot it is read at, since only the temporal attention depends on the slot.
So one pass of a client's localized global model gives the estimates of
both the personal phase's pairs and the evaluation.

The temporal attention vector is read from a K x I table, temporal.w:
component i is the softmax over the K slots of column i, at the route's
slot. The paper builds row k from the time context (day-of-week one-hot,
slot-k one-hot, holiday embedding) through a linear projection; there the
day-of-week, holiday and bias terms add one constant to every slot of a
column, which the softmax cancels, so only the slot rows are kept: the same
attention in exact arithmetic, from fewer coordinates. The loss and the
served state share one attention path (_temporal_attention), the served
state as a C = 1 stack.

The personal model maps a driver profile (embedded sparse features plus
linearly transformed standardized dense features) through one linear head to
a scalar bias in seconds; the final prediction is ``y_hat + bias``. Its loss
is evaluated for C clients at once on their working sets: the embedding
rows each profile reads and the dense tensors, in one flat (C, P) buffer
laid out by nn.FlatStack (PersonalWorkingSet), whose forward and backward
closures over index arrays and buffers are built once and reused by every
step. Each client's row is computed exactly as it would be alone, and exactly as on the whole tables.

All backward passes are hand-written and certified by nn.check_gradients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from datetime import datetime

import numpy as np
import scipy.sparse as sp

from . import nn
from .graph import RoadNetwork, Route

# Edge-indexed tensors (one row/coordinate per edge), the difference attack's
# default observation surface.
EDGE_INDEXED_TABLES = ("embed_e.identity", "head_e.b")


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and scaling of the base and personal models.

    output_scale multiplies the cross-product output; it is a fixed constant
    (never trained, noised, or aggregated) that keeps trainable coordinates
    at order one while predictions live at hundreds of seconds.
    """

    embed_dim: int = 16
    gcn_layers: int = 1
    hops: int = 2
    head_width: int = 16
    time_slots: int = 48
    output_scale: float = 300.0
    personal_embed_dim: int = 4
    personal_dense_dim: int = 4
    profile_arity: int = 5

    def __post_init__(self) -> None:
        if self.hops < 0:
            raise ValueError("hops must be >= 0")
        if self.time_slots < 1:
            raise ValueError("time_slots must be >= 1")
        if self.gcn_layers < 1:
            raise ValueError("gcn_layers must be >= 1")
        for name in ("embed_dim", "head_width", "personal_embed_dim", "personal_dense_dim", "profile_arity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0 < self.output_scale < math.inf):
            raise ValueError("output_scale must be finite and > 0")


def slot_of_time(dt: datetime, n_slots: int) -> int:
    seconds = dt.hour * 3600 + dt.minute * 60 + dt.second
    return min(int(seconds / 86400.0 * n_slots), n_slots - 1)


@dataclass
class TrafficState:
    """Per-slot estimated travel times for every edge and node (seconds)."""

    slot: int
    n_slots: int
    y_edges: np.ndarray
    y_nodes: np.ndarray


@dataclass
class BaseModelParams:
    """Trainable tensors plus the fixed numeric-feature standardization.

    The standardization constants are a pure function of the network, so they
    are recomputed on load and never travel with uploads or checkpoints.
    """

    cfg: ModelConfig
    values: nn.ParamSet
    edge_num_mean: np.ndarray = field(repr=False)
    edge_num_std: np.ndarray = field(repr=False)
    node_num_mean: np.ndarray = field(repr=False)
    node_num_std: np.ndarray = field(repr=False)

    def clone(self) -> "BaseModelParams":
        return replace(self, values=nn.clone_params(self.values))

    def with_values(self, values: nn.ParamSet) -> "BaseModelParams":
        return replace(self, values=values)


def _param_shapes(network: RoadNetwork, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, j_width = cfg.embed_dim, cfg.head_width
    shapes: dict[str, tuple[int, ...]] = {}
    for side, vocabs, count, num_cols in (
        ("e", network.edge_vocabs, network.n_edges, network.edge_numeric.shape[1]),
        ("v", network.node_vocabs, network.n_nodes, network.node_numeric.shape[1]),
    ):
        for slot_idx, vocab in enumerate(vocabs):
            shapes[f"embed_{side}.slot{slot_idx}"] = (vocab, d)
        shapes[f"embed_{side}.identity"] = (count, d)
        shapes[f"num_proj_{side}.w"] = (num_cols, d)
        shapes[f"num_proj_{side}.b"] = (d,)
        for layer in range(cfg.gcn_layers):
            shapes[f"gcn_{side}.l{layer}.w"] = (d, d)
            shapes[f"gcn_{side}.l{layer}.theta"] = (cfg.hops + 1,)
        shapes[f"head_{side}.w"] = (d, j_width)
        shapes[f"head_{side}.b"] = (count,)
    shapes["temporal.w"] = (cfg.time_slots, j_width)
    return shapes


def _standardization(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = matrix.mean(axis=0) if matrix.size else np.zeros(matrix.shape[1])
    std = matrix.std(axis=0) if matrix.size else np.ones(matrix.shape[1])
    std = np.where(std < 1e-9, 1.0, std)
    return mean, std


def init_base_params(network: RoadNetwork, cfg: ModelConfig, seed: int) -> BaseModelParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, one independent
    stream per tensor so the result is insensitive to creation order."""
    shapes = _param_shapes(network, cfg)
    k, width = shapes["temporal.w"]
    # temporal.w is the slot rows of a draw of the paper's (7 + K + 4, I) table, so a seed starts where that model does
    shapes["temporal.w"] = (7 + k + 4, width)
    values = {name: nn.init_uniform(shape, nn.spawn_rng(seed, "init", name)) for name, shape in sorted(shapes.items())}
    values["temporal.w"] = values["temporal.w"][7 : 7 + k].copy()
    em, es = _standardization(network.edge_numeric)
    vm, vs = _standardization(network.node_numeric)
    return BaseModelParams(cfg=cfg, values=values, edge_num_mean=em, edge_num_std=es, node_num_mean=vm, node_num_std=vs)


# ---------------------------------------------------------------------------
# forward passes


@dataclass(frozen=True)
class _Field:
    """The rows of one side ("e" or "v") that a pass computes for each of C
    clients, with the matrix that propagates them.

    On the whole side, rows is slice(None), valid is None and laplacian is
    the side's normalized Laplacian, which every client shares. Otherwise
    rows is (C, n): client c's field rows in ascending order, padded to n by
    repeating its last row, and valid marks the rows that are not padding;
    laplacian is block-diagonal, client c's block being the sub-block of the
    global Laplacian over its rows (not renormalized), with an empty row and
    column per padding row. A padding row never reaches a real row, and it
    copies a real row, so it is finite when that row is.
    """

    rows: np.ndarray | slice
    valid: np.ndarray | None
    laplacian: sp.csr_matrix
    n_total: int

    @property
    def whole(self) -> bool:
        return self.valid is None

    def local(self, c: int, positions: list[int]):
        """Row numbers of global positions within client c's field."""
        return positions if self.whole else np.searchsorted(self.rows[c], positions)

    def gather(self, table: np.ndarray, ids) -> np.ndarray:
        """table[c, ids[c]] for (C, ...) tables: ids is one row of ids per
        client, or on the whole side one row that every client shares."""
        return table[:, ids] if self.whole else table[self.clients, ids]

    def real(self, x: np.ndarray) -> np.ndarray:
        """The real rows of a (C, n, ...) array, client by client."""
        return x.reshape(-1, *x.shape[2:]) if self.whole else x[self.valid]

    @cached_property
    def clients(self) -> np.ndarray:
        return np.arange(len(self.rows))[:, None]

    @cached_property
    def real_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(client, row) index pairs of the real rows, client by client."""
        return np.broadcast_to(self.clients, self.rows.shape)[self.valid], self.rows[self.valid]

    def scatter_add(self, dest: np.ndarray, x: np.ndarray) -> None:
        """dest[c, rows[c]] += x[c] on the real rows, for (C, n_total, ...) dest.

        dest may be a view with any strides, such as a tensor of a FlatStack:
        it is indexed by (client, row) pairs, not reshaped, since a reshape
        that cannot merge the client axis copies and the sum would be lost.
        A client's field rows are distinct, so no pair repeats."""
        if self.whole:
            dest += x
        else:
            dest[self.real_pairs] += x[self.valid]

    def propagate(self, x: np.ndarray) -> np.ndarray:
        """L @ x[c] for every client c of a (C, n, d) stack. Row i of client c
        sums the terms of its Laplacian row in their stored order, as that
        client's own product does. On the whole side the clients' columns
        sit side by side in one product, and the result is made contiguous
        client-major again, so every client's slice has a single client's
        layout."""
        c, n, d = x.shape
        if not self.whole:
            return (self.laplacian @ x.reshape(c * n, d)).reshape(c, n, d)
        out = self.laplacian @ x.transpose(1, 0, 2).reshape(n, c * d)
        return np.ascontiguousarray(out.reshape(n, c, d).transpose(1, 0, 2))


def _whole_graph(network: RoadNetwork) -> tuple[_Field, _Field]:
    return (
        _Field(slice(None), None, network.laplacian_edges, network.n_edges),
        _Field(slice(None), None, network.laplacian_nodes, network.n_nodes),
    )


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR positions of the rows' stored entries in order, the rows' counts and run starts."""
    counts = indptr[rows + 1] - indptr[rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return np.repeat(indptr[rows] - offsets[:-1], counts) + np.arange(offsets[-1]), counts, offsets


def _side_field(laplacian: sp.csr_matrix, seeds: list[list[int]], radius: int) -> _Field:
    """Exact fields of C clients' passes whose outputs are read at seeds[c],
    all found and cut at once.

    Client c's field is the rows within radius hops of seeds[c] in the
    Laplacian's sparsity pattern: row i of L @ h reads h only at i's stored
    entries, so a row at distance r from the seeds is exact after radius - r
    propagation steps on the sub-block. When the rows around all the seeds
    are more than half the side, every client runs on the whole side, which
    holds its own field: a field that large costs more to gather, scatter
    and pad than the rows it saves (a 2-hop ball covers 32 of a 3x4 grid's
    34 edges). Otherwise each client runs on its own field, since on their
    union every client would compute every other client's rows too.
    """
    n, n_clients = laplacian.shape[0], len(seeds)
    indptr, indices = laplacian.indptr, laplacian.indices
    rows = np.fromiter(itertools.chain.from_iterable(seeds), dtype=np.intp)
    # the union first, by whole-mask hops: the side often runs whole
    reached = np.zeros(n, dtype=bool)
    reached[rows] = True
    for _ in range(radius):
        if 2 * np.count_nonzero(reached) <= n:  # else decided: the whole side
            reached[indices[np.repeat(reached, np.diff(indptr))]] = True
    if 2 * np.count_nonzero(reached) > n:
        return _Field(slice(None), None, laplacian, n)
    if n_clients > 1:
        # (client, row) pairs as base + row, base = client * n, grown hop by hop
        base = np.repeat(np.arange(0, n_clients * n, n), [len(client_seeds) for client_seeds in seeds])
        reached = np.zeros(n_clients * n, dtype=bool)
        reached[base + rows] = True
        for _ in range(radius):
            entries, counts, _ = _row_entries(indptr, rows)
            rows, base = indices[entries], np.repeat(base, counts)
            fresh = ~reached[base + rows]
            rows, base = rows[fresh], base[fresh]
            reached[base + rows] = True
    # Block-diagonal row c * width + k is client c's k-th row; a padding row
    # is empty. Rows keep their stored entries in stored order, so a product
    # sums a row's terms as L @ h does. Cut from the CSR arrays in their index
    # type: scipy's laplacian[rows][:, rows] made stress run_s 7% slower.
    pairs = np.flatnonzero(reached)
    base, rows = np.divmod(pairs, n)
    sizes = np.bincount(base, minlength=n_clients)
    width = int(sizes.max())
    valid = np.arange(width) < sizes[:, None]
    block_rows = np.flatnonzero(valid)
    local = np.empty(n_clients * n, dtype=indices.dtype)
    local[pairs] = block_rows
    entries, counts, offsets = _row_entries(indptr, rows)
    cols = indices[entries] + np.repeat(base * n, counts)
    keep = reached[cols]
    kept = np.concatenate(([0], np.cumsum(keep)))
    block_ptr = np.zeros(n_clients * width + 1, dtype=indices.dtype)
    block_ptr[block_rows + 1] = kept[offsets[1:]]
    np.maximum.accumulate(block_ptr, out=block_ptr)  # a padding row ends where the row before it does
    block = sp.csr_matrix((laplacian.data[entries[keep]], local[cols[keep]], block_ptr), shape=(n_clients * width,) * 2)
    padded = np.zeros((n_clients, width), dtype=np.intp)
    padded[valid] = rows
    if width:  # a padding row repeats the client's last row, or row 0 for an empty field
        padded[~valid] = np.repeat(padded[np.arange(n_clients), np.maximum(sizes - 1, 0)], width - sizes)
    return _Field(padded, valid, block, n)


def _receptive_field(network: RoadNetwork, cfg: ModelConfig, routes: list[Route]) -> tuple[_Field, _Field]:
    """Edge and node fields of one route per client: the rows within
    gcn_layers * hops hops of each route's edges (line graph) and interior
    nodes (node graph)."""
    radius = cfg.gcn_layers * cfg.hops
    return (
        _side_field(network.laplacian_edges, [route.edge_positions() for route in routes], radius),
        _side_field(network.laplacian_nodes, [route.node_positions() for route in routes], radius),
    )


def _embed_side(network: RoadNetwork, params: BaseModelParams, values: nn.ParamSet, side: str, field: _Field):
    """Initial representations (C, n, d) of each client's field rows of one
    side ("e" or "v") for C clients' (C, ...) values: summed slot lookups +
    identity rows + projected standardized numeric features; also returns the
    standardized features, (n, k) on the whole side, else (C, n, k)."""
    if side == "e":
        cat, num = network.edge_categorical, network.edge_numeric
        mean, std = params.edge_num_mean, params.edge_num_std
    else:
        cat, num = network.node_categorical, network.node_numeric
        mean, std = params.node_num_mean, params.node_num_std
    x = (num[field.rows] - mean) / std
    h = np.matmul(x, values[f"num_proj_{side}.w"]) + values[f"num_proj_{side}.b"][:, None]
    for slot_idx in range(cat.shape[1]):
        table = values[f"embed_{side}.slot{slot_idx}"]
        ids = cat[field.rows, slot_idx]
        if ids.size and ids.max() >= table.shape[1]:
            raise IndexError(f"categorical value {ids.max()} outside vocabulary {table.shape[1]} for slot {slot_idx}")
        h = h + field.gather(table, ids)
    h = h + field.gather(values[f"embed_{side}.identity"], field.rows)
    return h, x


def _gcn_stack_forward(field: _Field, h0: np.ndarray, params: BaseModelParams, values: nn.ParamSet, side: str):
    """gcn_layers graph convolutions ReLU(sum_{c=0}^{hops} theta_c L^c h) W on
    (C, n, d) stacks, with the powers of L applied iteratively (L^c is never
    materialized); also returns the per-layer caches the backward pass reads.
    On a field's sub-Laplacian, rows near its border come out inexact; the
    field's radius keeps them out of the rows a loss reads."""
    caches = []
    h = h0
    for layer in range(params.cfg.gcn_layers):
        w = values[f"gcn_{side}.l{layer}.w"]
        theta = values[f"gcn_{side}.l{layer}.theta"][:, :, None, None]
        powers = [h]
        for _ in range(params.cfg.hops):
            powers.append(field.propagate(powers[-1]))
        s = theta[:, 0] * powers[0]
        for c in range(1, len(powers)):
            s = s + theta[:, c] * powers[c]
        activated = nn.relu(s)
        caches.append({"powers": powers, "mask": s > 0, "activated": activated, "w": w, "theta": theta})
        h = np.matmul(activated, w)
    return h, caches


def _gcn_stack_backward(field: _Field, caches, d_out: np.ndarray, grads: nn.GradSet, side: str) -> np.ndarray:
    # np.sum's pairwise order depends on the array's length, so on a field
    # theta's sums run over a zero-padded whole-side buffer: the same terms in
    # the same positions as on the whole graph.
    n_clients = len(d_out)
    padded = None if field.whole else np.zeros((field.n_total, d_out.shape[2]))
    for layer in reversed(range(len(caches))):
        cache = caches[layer]
        grads[f"gcn_{side}.l{layer}.w"] += np.matmul(cache["activated"].transpose(0, 2, 1), d_out)
        d_act = np.matmul(d_out, cache["w"].transpose(0, 2, 1))
        d_s = np.where(cache["mask"], d_act, 0.0)
        theta = cache["theta"]
        powers = cache["powers"]
        d_theta = grads[f"gcn_{side}.l{layer}.theta"]
        for c in range(len(powers)):
            terms = powers[c] * d_s
            if padded is None:
                d_theta[:, c] += terms.reshape(n_clients, -1).sum(axis=1)
                continue
            # one client at a time, so the buffer stays one side's size
            for k, (rows, real) in enumerate(zip(field.rows, field.valid)):
                padded[rows[real]] = terms[k, real]
                d_theta[k, c] += padded.sum()
                padded[rows[real]] = 0.0
        d_h = theta[:, 0] * d_s
        q = d_s
        for c in range(1, len(powers)):
            q = field.propagate(q)  # L symmetric, so L^T = L
            d_h = d_h + theta[:, c] * q
        d_out = d_h
    return d_out


def _temporal_attention(values: nn.ParamSet, slots: list[int], cfg: ModelConfig):
    """Attention (C, I) of C clients' (C, ...) temporal tables, client c's
    read at slots[c]: component i is the softmax over the K slots of column i
    of the client's K x I table, at its slot, so it lies in (0, 1). Also
    returns the softmax (C, K, I) for the backward pass."""
    if not 0 <= min(slots) <= max(slots) < cfg.time_slots:
        raise ValueError(f"slots {slots} not all in a table with K={cfg.time_slots}")
    probs = nn.softmax(values["temporal.w"], axis=1)
    return probs[np.arange(len(slots)), slots], probs


def _heads_forward(network: RoadNetwork, params: BaseModelParams, values: nn.ParamSet, fields: tuple[_Field, _Field]):
    """Head rows U = hW + b (C, n, I) of both sides' field rows for C clients'
    (C, ...) values, with the caches the backward pass reads."""
    field_e, field_v = fields
    he0, xe = _embed_side(network, params, values, "e", field_e)
    hv0, xv = _embed_side(network, params, values, "v", field_v)
    he, caches_e = _gcn_stack_forward(field_e, he0, params, values, "e")
    hv, caches_v = _gcn_stack_forward(field_v, hv0, params, values, "v")
    ue = np.matmul(he, values["head_e.w"]) + field_e.gather(values["head_e.b"], field_e.rows)[:, :, None]
    uv = np.matmul(hv, values["head_v.w"]) + field_v.gather(values["head_v.b"], field_v.rows)[:, :, None]
    return {"xe": xe, "xv": xv, "he": he, "hv": hv, "ue": ue, "uv": uv, "caches_e": caches_e, "caches_v": caches_v}


def traffic_state(network: RoadNetwork, params: BaseModelParams, slots: list[int]) -> dict[int, TrafficState]:
    """Estimated travel-time vectors for every edge and node, one state per
    distinct slot of slots. The heads do not depend on the slot, so one
    whole-graph forward pass (of the C = 1 stack) serves every slot."""
    values = {k: v[None] for k, v in params.values.items()}
    fw = _heads_forward(network, params, values, _whole_graph(network))
    ue, uv = fw["ue"][0], fw["uv"][0]
    scale = params.cfg.output_scale
    states = {}
    for slot in dict.fromkeys(slots):
        a = _temporal_attention(values, [slot], params.cfg)[0][0]
        states[slot] = TrafficState(
            slot=slot,
            n_slots=params.cfg.time_slots,
            y_edges=scale * (ue @ a),
            y_nodes=scale * (uv @ a),
        )
    return states


def predict_route(state: TrafficState, route: Route, strict: bool = True) -> float:
    """Sum of the route's edge entries plus interior-node entries.

    With strict=True the route's departure slot must match the state's slot;
    strict=False serves online queries from the latest available state.
    """
    route_slot = slot_of_time(route.departure_time, state.n_slots)
    if strict and route_slot != state.slot:
        raise ValueError(f"route slot {route_slot} does not match state slot {state.slot}")
    total = 0.0
    for pos in route.edge_positions():
        total += float(state.y_edges[pos])
    for pos in route.node_positions():
        total += float(state.y_nodes[pos])
    return total


# ---------------------------------------------------------------------------
# base-model loss and analytic backward


def base_loss(
    network: RoadNetwork,
    params: BaseModelParams,
    values: nn.ParamSet,
    batch: list[tuple[Route, float]],
    grads: nn.FlatStack | None = None,
    field_cache: dict | None = None,
) -> tuple[np.ndarray, nn.FlatStack]:
    """Per-client squared route errors (C,) and gradients over every base tensor.

    values holds C clients' base tensors stacked as (C, ...) arrays and batch
    one (route, y) per client; params supplies the configuration and the
    numeric-feature standardization, which every client shares. Client c's
    loss is (prediction of its route under values[c] - y)^2 and its gradients
    touch only its own slice. A single client is the case C = 1. The
    gradients are a nn.FlatStack, views into one (C, P) buffer in
    sorted-name order, so a step can check and update them as one tensor.

    Forward and backward run on each client's own receptive field, padded
    to the widest client's, or on the whole side where the rows around all
    the routes are more than half of it (see _side_field). Either holds the
    route's whole receptive field, so each client's loss and gradients
    equal those of its own whole-graph pass byte for byte, and the rows of
    edge- and node-indexed gradients outside its field are +0.0.
    field_cache, when given, is a dict a caller stepping the same routes on
    the same network and model again keeps between calls: a batch's fields
    are built on the first call and read from it after.

    The gradients' cols name the columns this call writes: every tensor
    whole, except embed_*.identity and head_*.b at the client's field rows
    (every column when both sides run whole); in a new buffer the others
    are +0.0. grads, when given, is a FlatStack congruent with values to
    write into instead, such as views of local training's kept buffer: only
    the columns written are zeroed first, the others keep what they held.
    """
    if not batch or len(batch) != len(values["head_e.b"]):
        raise ValueError(f"need one (route, y) per client, got {len(batch)} for {len(values['head_e.b'])}")
    cfg = params.cfg
    scale = cfg.output_scale
    n_clients = len(batch)
    clients = np.arange(n_clients)
    cache, routes = {} if field_cache is None else field_cache, tuple(route for route, _ in batch)
    if routes not in cache:
        cache[routes] = _receptive_field(network, cfg, list(routes))
    fields = field_e, field_v = cache[routes]
    fw = _heads_forward(network, params, values, fields)
    ue, uv = fw["ue"], fw["uv"]
    grads = grads if grads is not None else nn.zeros_stack(values)
    grads.cols = _written_columns(fields, grads)
    written = grads.cols.read(grads.buffer)
    written[...] = 0.0
    grads.cols.write(grads.buffer, written)

    slots = [slot_of_time(route.departure_time, cfg.time_slots) for route, _ in batch]
    attn, probs = _temporal_attention(values, slots, cfg)

    # The route sums, one client at a time, are the single-client operations on
    # the client's contiguous slice, so they add in the same order.
    losses = np.zeros(n_clients)
    w_edges = np.zeros(ue.shape[:2])
    w_nodes = np.zeros(uv.shape[:2])
    d_attn = np.zeros(attn.shape)
    for c, (route, y) in enumerate(batch):
        e_pos = field_e.local(c, route.edge_positions())
        n_pos = field_v.local(c, route.node_positions())
        srow = ue[c][e_pos].sum(axis=0)
        if len(n_pos):
            srow = srow + uv[c][n_pos].sum(axis=0)
        err = scale * float(srow @ attn[c]) - y
        losses[c] += err * err
        g = 2.0 * err
        np.add.at(w_edges[c], e_pos, g)
        if len(n_pos):
            np.add.at(w_nodes[c], n_pos, g)
        d_attn[c] += g * scale * srow
    due = 0.0 + scale * (w_edges[:, :, None] * attn[:, None, :])
    duv = 0.0 + scale * (w_nodes[:, :, None] * attn[:, None, :])
    # softmax-at-slot backward: a_i = probs[t, i]
    d_at_slot = d_attn * attn
    d_table = -probs * d_at_slot[:, None, :]
    d_table[clients, slots] += d_at_slot
    grads["temporal.w"] += d_table

    for side, du, h_top, caches, field, cat, x_std in (
        ("e", due, fw["he"], fw["caches_e"], field_e, network.edge_categorical, fw["xe"]),
        ("v", duv, fw["hv"], fw["caches_v"], field_v, network.node_categorical, fw["xv"]),
    ):
        grads[f"head_{side}.w"] += np.matmul(h_top.transpose(0, 2, 1), du)
        field.scatter_add(grads[f"head_{side}.b"], du.sum(axis=2))
        d_h = np.matmul(du, values[f"head_{side}.w"].transpose(0, 2, 1))
        d_h0 = _gcn_stack_backward(field, caches, d_h, grads, side)
        field.scatter_add(grads[f"embed_{side}.identity"], d_h0)
        for slot_idx in range(cat.shape[1]):
            # client c's ids index rows c * vocab + id of the stacked table
            shape = values[f"embed_{side}.slot{slot_idx}"].shape
            ids = cat[field.rows, slot_idx] + shape[1] * clients[:, None]
            flat = nn.embedding_scatter((shape[0] * shape[1], shape[2]), field.real(ids), field.real(d_h0))
            grads[f"embed_{side}.slot{slot_idx}"] += flat.reshape(shape)
        grads[f"num_proj_{side}.w"] += np.matmul(np.swapaxes(x_std, -1, -2), d_h0)
        grads[f"num_proj_{side}.b"] += d_h0.sum(axis=1)
    return losses, grads


def _written_columns(fields: tuple[_Field, _Field], grads: nn.FlatStack) -> nn.Columns:
    """The columns of grads.buffer that base_loss writes for each client:
    embed_*.identity and head_*.b at its field rows (padding rows repeat
    one), and every other tensor whole: the gaps between those four."""
    if all(field.whole for field in fields):
        return nn.ALL_COLUMNS
    n_clients, width = grads.buffer.shape
    parts, spans = [], []
    for side, field in zip("ev", fields):
        rows = np.broadcast_to(np.arange(field.n_total), (n_clients, field.n_total)) if field.whole else field.rows
        for name in (f"embed_{side}.identity", f"head_{side}.b"):
            start, per_row = grads.start[name], math.prod(grads[name].shape[2:])
            parts.append((start + per_row * rows[:, :, None] + np.arange(per_row)).reshape(n_clients, -1))
            spans.append((start, start + grads[name][0].size))
    starts, ends = zip(*sorted(spans))
    dense = np.concatenate([np.arange(a, b) for a, b in zip((0, *ends), (*starts, width))])
    return nn.Columns(np.concatenate([*parts, np.broadcast_to(dense, (n_clients, len(dense)))], axis=1), width)


# ---------------------------------------------------------------------------
# personal residual model


@dataclass(frozen=True)
class DriverProfile:
    """Sparse + dense driver descriptors feeding the personal model.

    top_regions / top_edges are fixed-arity id lists padded with the reserved
    padding id (grid cell count, resp. edge count).
    """

    break_start_h: float
    break_end_h: float
    top_regions: tuple[int, ...]
    top_edges: tuple[int, ...]
    avg_trip_distance_m: float
    trips_per_day: float

    def dense_features(self) -> np.ndarray:
        return np.array([self.break_start_h, self.break_end_h, self.avg_trip_distance_m, self.trips_per_day])


@dataclass
class PersonalModelParams:
    cfg: ModelConfig
    values: nn.ParamSet
    dense_mean: np.ndarray = field(repr=False)
    dense_std: np.ndarray = field(repr=False)

    def clone(self) -> "PersonalModelParams":
        return replace(self, values=nn.clone_params(self.values))


def fit_dense_stats(profiles: list[DriverProfile]) -> tuple[np.ndarray, np.ndarray]:
    """Population mean/std of the dense profile features, stored with the
    model so inference standardizes reproducibly."""
    matrix = np.stack([p.dense_features() for p in profiles])
    return _standardization(matrix)


def init_personal_params(
    n_region_cells: int,
    n_edges: int,
    cfg: ModelConfig,
    seed: int,
    dense_mean: np.ndarray | None = None,
    dense_std: np.ndarray | None = None,
) -> PersonalModelParams:
    pd = cfg.personal_embed_dim
    dd = cfg.personal_dense_dim
    x_dim = 2 * cfg.profile_arity * pd + dd
    shapes = {
        "p.region": (n_region_cells + 1, pd),
        "p.edge": (n_edges + 1, pd),
        "p.dense.w": (4, dd),
        "p.dense.b": (dd,),
        "p.head.w": (x_dim, 1),
        "p.head.b": (1,),
    }
    values = {name: nn.init_uniform(shape, nn.spawn_rng(seed, "p-init", name)) for name, shape in sorted(shapes.items())}
    return PersonalModelParams(
        cfg=cfg,
        values=values,
        dense_mean=dense_mean if dense_mean is not None else np.zeros(4),
        dense_std=dense_std if dense_std is not None else np.ones(4),
    )


# The personal step runs on each client's working set. A client's loss reads
# only the 2 * profile_arity table rows its profile names, so only those
# rows and the dense tensors are held and stepped, and every coordinate
# comes out as it would on the whole tables, byte for byte:
# - a distinct row's gradient is the same terms summed in the same input
#   order: np.bincount adds each weight, in input order, into a +0.0 start,
#   as the whole-table scatter does, and a coordinate with one weight w
#   gets 0.0 + w, as the whole-table dense gradients do;
# - a row no input looks up has gradient +0.0 on the whole tables, and
#   p - lr * (+0.0) == p for every p, -0.0 included, so leaving the row out
#   of the step leaves it as the step would;
# - lr * max|g| over the working set decides as the per-tensor checks over
#   the whole tables do together: the entries left out are zeros, which
#   cannot raise a maximum of |g| >= 0, lr >= 0 keeps the largest |g| the
#   largest step, and a NaN reaches the maximum either way.
_PERSONAL_TABLES = (("p.region", "top_regions"), ("p.edge", "top_edges"))


@dataclass(frozen=True)
class PersonalWorkingSet:
    """C clients' personal-model working state in one flat (C, P) buffer.

    Client c's row of values holds its distinct p.region and p.edge rows
    (rows[table][c], ascending), each table padded with +0.0 slots to the
    widest client, and its whole p.dense.* and p.head.* tensors. views is
    the nn.FlatStack that lays them out in sorted-name order, values its
    buffer: the (C, ...) view of each part, a table's view being
    (C, width, dim), starting at column views.start[name]. gather holds
    the flat positions in values of the head input's embedding part (the
    profile's region rows, then its edge rows). x_dense is each profile's
    dense features standardized by its client's model. A padding slot is
    never read, its gradient is +0.0, and it is never written back. step
    holds personal_loss's forward and backward closures, built on the first
    call and reused by every later one; each working set has its own
    buffers, so two never share one.
    """

    values: np.ndarray
    views: nn.FlatStack
    rows: dict[str, list[np.ndarray]]
    gather: np.ndarray
    x_dense: np.ndarray

    @cached_property
    def step(self):
        """personal_loss's (forward, backward) closures, built on first use.

        forward() fills each client's row [p.head.w | x_u] of inputs (one
        take, then the hidden part) and returns the biases (C,); backward(d)
        writes the weights [d * inputs | d | x_dense (x) d_hidden] and adds
        them at their flat positions in values (scatter) with one
        np.bincount. Every view is cut here once: slicing them in each call
        made the c04 personal phase about 18% slower.
        """
        values, views = self.values, self.views
        n = len(values)
        n_dense, dd = views["p.dense.w"].shape[1:]
        block = self.gather.shape[1]
        k = block + dd  # the head input's width
        positions = views.positions
        take = np.concatenate([positions("p.head.w"), self.gather], axis=1)
        # the flat position in values of each weight, in the weights' order;
        # d_xu's hidden part is p.dense.b's gradient
        scatter = np.concatenate(
            [self.gather, positions("p.dense.b"), positions("p.head.w"), positions("p.head.b"), positions("p.dense.w")], axis=1
        ).ravel()
        inputs, hidden, head_out, bias = np.empty((n, k + k)), np.empty((n, 1, dd)), np.empty((n, 1, 1)), np.empty(n)
        weights = np.empty((n, 2 * k + 1 + n_dense * dd))
        taken, hidden_in, x_u = inputs[:, : k + block], inputs[:, k + block :], inputs[:, k:][:, None, :]
        x_dense, x_dense_col = self.x_dense[:, None, :], self.x_dense[:, :, None]
        dense_w, dense_b, head_w, head_b = views["p.dense.w"], views["p.dense.b"], views["p.head.w"], views["p.head.b"][:, 0]
        hidden_rows, head_dot = hidden[:, 0], head_out[:, 0, 0]
        scaled, d_bias, d_bias_col = weights[:, : 2 * k], weights[:, 2 * k], weights[:, 2 * k : 2 * k + 1]
        d_hidden, outer = weights[:, block:k][:, None, :], weights[:, 2 * k + 1 :].reshape(n, n_dense, dd)
        flat_weights = weights.reshape(-1)

        def forward() -> np.ndarray:
            # np.matmul on (C, 1, k) @ (C, k, m) runs one BLAS call per client, the same
            # call as a single client's (k,) @ (k, m); einsum would sum in another order.
            # The call depends on the strides within a client's tensor, which the views
            # into values and into inputs share with a tensor of its own, and the
            # outputs are whole buffers, as a new result would be.
            values.take(take, out=taken)
            np.matmul(x_dense, dense_w, out=hidden)
            np.add(hidden_rows, dense_b, out=hidden_in)
            np.matmul(x_u, head_w, out=head_out)
            return np.add(head_dot, head_b, out=bias)

        def backward(d: np.ndarray) -> np.ndarray:
            d_bias[...] = d
            np.multiply(d_bias_col, inputs, out=scaled)
            np.multiply(x_dense_col, d_hidden, out=outer)
            return np.bincount(scatter, weights=flat_weights, minlength=values.size).reshape(values.shape)

        return forward, backward

    def unpack(self, buffer: np.ndarray, c: int, out: nn.ParamSet) -> nn.ParamSet:
        """Write client c's coordinates of a (C, P) buffer laid out as values
        (the working values, or personal_loss's gradients) into out, client
        c's whole personal tensors, in place; returns out."""
        for name, dest in out.items():
            start, shape = self.views.start[name], self.views[name].shape[1:]
            part = buffer[c, start : start + math.prod(shape)].reshape(shape)
            if name in self.rows:
                rows = self.rows[name][c]
                dest[rows] = part[: len(rows)]
            else:
                dest[...] = part
        return out


def personal_working_set(profiles: list[DriverProfile], params: list[PersonalModelParams]) -> PersonalWorkingSet:
    """Gather the working set of client c = (profiles[c], params[c]) for personal_loss."""
    if not profiles or len(profiles) != len(params):
        raise ValueError(f"need one personal model per profile, got {len(params)} for {len(profiles)}")
    for p in params:
        nn.assert_congruent(params[0].values, p.values)
    n = len(profiles)
    slots, rows, shapes = {}, {}, {}
    for table, attr in _PERSONAL_TABLES:
        n_rows, dim = params[0].values[table].shape
        ids = [list(getattr(profile, attr)) for profile in profiles]
        if any(not 0 <= i < n_rows for client_ids in ids for i in client_ids):
            raise IndexError(f"{table} id out of range [0, {n_rows})")
        # Plain Python on a handful of ids: np.unique and np.searchsorted
        # would page in sorting code that a run does not otherwise touch.
        distinct = [sorted(set(client_ids)) for client_ids in ids]
        slots[table] = np.array([[r.index(i) for i in client_ids] for r, client_ids in zip(distinct, ids)], dtype=np.int64)
        rows[table] = [np.array(r, dtype=np.int64) for r in distinct]
        shapes[table] = (max(map(len, distinct)), dim)
    for name in ("p.dense.w", "p.dense.b", "p.head.w", "p.head.b"):
        shapes[name] = params[0].values[name].shape
    views = nn.FlatStack(shapes, n)
    for c, p in enumerate(params):
        for name, view in views.items():
            if name in rows:
                view[c, : len(rows[name][c])] = p.values[name][rows[name][c]]
            else:
                view[c] = p.values[name]
    columns = []
    for table, _ in _PERSONAL_TABLES:
        dim = shapes[table][1]
        columns.append((views.start[table] + dim * slots[table][:, :, None] + np.arange(dim)).reshape(n, -1))
    # flat positions: client c's column k sits at c * width + k
    gather = np.concatenate(columns, axis=1) + views.buffer.shape[1] * np.arange(n)[:, None]
    x_dense = np.stack([(profile.dense_features() - m.dense_mean) / m.dense_std for profile, m in zip(profiles, params)])
    return PersonalWorkingSet(views.buffer, views, rows, gather, x_dense)


def personal_bias(profile: DriverProfile, params: PersonalModelParams) -> float:
    """Scalar travel-time bias in seconds for this driver."""
    forward, _ = personal_working_set([profile], [params]).step
    return float(forward()[0])


def personal_loss(ws: PersonalWorkingSet, batch) -> tuple[np.ndarray, np.ndarray]:
    """Per-client personal losses (C,) and gradients (C, P) laid out as ws.values.

    batch holds the C clients' (y, y_hat) pairs as a (C, B, 2) array. Client
    c's loss is the sum over its B pairs of (y - y_hat - bias_c)^2; its
    gradients touch only its own row, and y_hat values are frozen inputs.
    ws.unpack writes a row of the gradients into whole-table gradients. A
    single client is the case C = 1.

    The step runs ws.step's two closures, built once per working set: in
    forward one take fills each client's input row [p.head.w | x_u]; in
    backward the weights [d_bias * (p.head.w | x_u) | d_bias | x_dense (x)
    d_hidden] are d_bias copied into its column and two in-place
    multiplies, and one np.bincount adds them at their positions in values.
    What the buffers held before a call is never read. The bytes are those of the per-tensor formulas:
    - the embedding weights keep their relative order, so a repeated
      profile id sums its terms in the same order;
    - every other position gets exactly one weight, and bincount's 0.0 + w
      is what the dense gradients' 0.0 + products were;
    - the first pair's r * r starts the loss instead of 0.0 + r * r, equal
      since a square is never -0.0; the first -2.0 * r starts d_bias, so a
      zero d_bias may carry either sign, but every weight it makes is a
      signed zero or a NaN then, and bincount's +0.0 start washes out the
      sign.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1] == 0:
        raise ValueError("empty batch")
    forward, backward = ws.step
    bias = forward()
    r = np.subtract(batch[:, 0, 0], batch[:, 0, 1])
    loss = np.multiply(np.subtract(r, bias, out=r), r)
    # The sums run on contiguous arrays, as they did before: where both terms
    # are NaN, NumPy's contiguous and strided loops may keep different NaNs.
    d_bias = -2.0 * r
    for j in range(1, batch.shape[1]):
        r = batch[:, j, 0] - batch[:, j, 1] - bias
        loss += r * r
        d_bias += -2.0 * r
    return loss, backward(d_bias)
