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

The base loss of a batch is evaluated exactly on the batch's receptive field:
the edges within gcn_layers * hops line-graph hops of its routes' edges and the
nodes within as many node-graph hops of their interior nodes, convolved with
the sub-block of the global normalized Laplacian over those rows (not
renormalized). Its loss and gradients equal the whole-graph pass byte for
byte; a field over more than half of a side runs as the whole side. The
weight gradients sum over the field's rows in BLAS matrix products, so this
identity holds with a BLAS that adds a product's rows in sequence; it was
measured with OpenBLAS 0.3.31, and a BLAS that splits the rows into blocks
may differ from the whole-graph pass in the last bit.

The served traffic state is one whole-graph forward pass shared by every
context it is read at, since only the temporal attention depends on the
context.

The temporal attention vector comes from a K x I table whose row k encodes
(day-of-week one-hot, slot-k one-hot, holiday embedding) through a linear
projection; component i of the attention is the softmax over the K slots of
column i, evaluated at the context's slot. With a purely linear projection
the day-of-week and holiday contributions are constant per column and cancel
in the softmax, so attention varies with the slot only; the construction is
kept as stated for shape fidelity.

The personal model maps a driver profile (embedded sparse features plus
linearly transformed standardized dense features) through one linear head to
a scalar bias in seconds; the final prediction is ``y_hat + bias``. Its loss
is evaluated for C clients at once, on their tensors stacked along a leading
client axis; each client's slice is computed exactly as it would be alone.

All backward passes are hand-written and certified by nn.check_gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime

import numpy as np
import scipy.sparse as sp

from . import nn
from .graph import RoadNetwork, Route

# Edge-indexed tensors (one row/coordinate per edge), the difference attack's
# default observation surface.
EDGE_INDEXED_TABLES = ("embed_e.identity", "head_e.b")

DAYS_PER_WEEK = 7


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
    holiday_dim: int = 4
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
        for name in ("embed_dim", "head_width", "holiday_dim", "personal_embed_dim", "personal_dense_dim", "profile_arity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0 < self.output_scale < math.inf):
            raise ValueError("output_scale must be finite and > 0")


@dataclass(frozen=True)
class TimeContext:
    day_of_week: int  # 0 = Monday
    slot: int
    is_holiday: bool = False

    @classmethod
    def from_datetime(cls, dt: datetime, n_slots: int, holidays: frozenset = frozenset()) -> "TimeContext":
        return cls(day_of_week=dt.weekday(), slot=slot_of_time(dt, n_slots), is_holiday=dt.date() in holidays)

    def sort_key(self) -> tuple[int, int, bool]:
        return (self.day_of_week, self.slot, self.is_holiday)


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
    d, j_width, k, h = cfg.embed_dim, cfg.head_width, cfg.time_slots, cfg.holiday_dim
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
    shapes["temporal.holiday"] = (2, h)
    shapes["temporal.w"] = (DAYS_PER_WEEK + k + h, j_width)
    shapes["temporal.b"] = (j_width,)
    return shapes


def _standardization(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = matrix.mean(axis=0) if matrix.size else np.zeros(matrix.shape[1])
    std = matrix.std(axis=0) if matrix.size else np.ones(matrix.shape[1])
    std = np.where(std < 1e-9, 1.0, std)
    return mean, std


def init_base_params(network: RoadNetwork, cfg: ModelConfig, seed: int) -> BaseModelParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init, one independent
    stream per tensor so the result is insensitive to creation order."""
    values: nn.ParamSet = {}
    for name, shape in sorted(_param_shapes(network, cfg).items()):
        values[name] = nn.init_uniform(shape, nn.spawn_rng(seed, "init", name))
    em, es = _standardization(network.edge_numeric)
    vm, vs = _standardization(network.node_numeric)
    return BaseModelParams(cfg=cfg, values=values, edge_num_mean=em, edge_num_std=es, node_num_mean=vm, node_num_std=vs)


# ---------------------------------------------------------------------------
# forward passes


@dataclass(frozen=True)
class _Field:
    """The rows of one side ("e" or "v") that a pass computes and the sub-block
    of the side's global normalized Laplacian over them, not renormalized.
    rows is a sorted position array, or slice(None) for the whole graph."""

    rows: np.ndarray | slice
    laplacian: sp.csr_matrix
    n_total: int

    @property
    def whole(self) -> bool:
        return isinstance(self.rows, slice)

    def local(self, positions: list[int]):
        """Row numbers of global positions within the field."""
        return positions if self.whole else np.searchsorted(self.rows, positions)


def _whole_graph(network: RoadNetwork) -> tuple[_Field, _Field]:
    return (
        _Field(slice(None), network.laplacian_edges, network.n_edges),
        _Field(slice(None), network.laplacian_nodes, network.n_nodes),
    )


def _side_field(laplacian: sp.csr_matrix, seeds: list[int], radius: int) -> _Field:
    """Exact field of a pass whose outputs are read at `seeds`: every row within
    `radius` hops of them in the Laplacian's sparsity pattern. Row i of L @ h
    reads h only at i's stored entries, so a row at distance r from the seeds
    is exact after radius - r propagation steps on the sub-block."""
    n = laplacian.shape[0]
    row_sizes = np.diff(laplacian.indptr)
    reached = np.zeros(n, dtype=bool)
    reached[seeds] = True
    for _ in range(radius):
        if 2 * np.count_nonzero(reached) > n:
            break
        reached[laplacian.indices[np.repeat(reached, row_sizes)]] = True
    # A field over more than half the rows costs more to gather, scatter and
    # pad than the rows it saves (a 2-hop ball covers 32 of a 3x4 grid's 34
    # edges), so it runs as the whole graph. This depends on the input only.
    if 2 * np.count_nonzero(reached) > n:
        return _Field(slice(None), laplacian, n)
    # The sub-block keeps each row's stored entries in their stored order, so
    # L_sub @ h sums a row's terms in the order L @ h does. It is cut from the
    # CSR arrays directly: scipy's laplacian[rows][:, rows] gives the same
    # matrix, but made the benchmark's stress run_s 7% slower (10 paired runs
    # on a 2-vCPU host). Its index arrays keep the Laplacian's integer type, so
    # scipy does not copy them into that type.
    rows = np.flatnonzero(reached)
    index_dtype = laplacian.indices.dtype
    local = np.cumsum(reached, dtype=index_dtype) - 1
    counts = row_sizes[rows]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    entries = np.repeat(laplacian.indptr[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
    cols = laplacian.indices[entries]
    keep = reached[cols]
    kept = np.zeros(len(cols) + 1, dtype=index_dtype)
    np.cumsum(keep, out=kept[1:])
    sub = sp.csr_matrix((laplacian.data[entries[keep]], local[cols[keep]], kept[offsets]), shape=(len(rows), len(rows)))
    return _Field(rows, sub, n)


def _receptive_field(network: RoadNetwork, cfg: ModelConfig, routes: list[Route]) -> tuple[_Field, _Field]:
    """Edge and node fields of a batch: the rows within gcn_layers * hops hops of
    the routes' edges (line graph) and interior nodes (node graph)."""
    radius = cfg.gcn_layers * cfg.hops
    edges = [pos for route in routes for pos in route.edge_positions()]
    nodes = [pos for route in routes for pos in route.node_positions()]
    return (
        _side_field(network.laplacian_edges, edges, radius),
        _side_field(network.laplacian_nodes, nodes, radius),
    )


def _embed_side(network: RoadNetwork, params: BaseModelParams, side: str, rows=slice(None)):
    """Initial representations of one side's rows ("e" or "v"; all rows by
    default): summed slot lookups + identity rows + projected standardized
    numeric features; also returns the standardized features."""
    v = params.values
    if side == "e":
        cat, num = network.edge_categorical, network.edge_numeric
        mean, std = params.edge_num_mean, params.edge_num_std
    else:
        cat, num = network.node_categorical, network.node_numeric
        mean, std = params.node_num_mean, params.node_num_std
    x = (num[rows] - mean) / std
    h = x @ v[f"num_proj_{side}.w"] + v[f"num_proj_{side}.b"]
    for slot_idx in range(cat.shape[1]):
        table = v[f"embed_{side}.slot{slot_idx}"]
        ids = cat[rows, slot_idx]
        if ids.size and ids.max() >= table.shape[0]:
            raise IndexError(f"categorical value {ids.max()} outside vocabulary {table.shape[0]} for slot {slot_idx}")
        h = h + table[ids]
    h = h + v[f"embed_{side}.identity"][rows]
    return h, x


def _gcn_stack_forward(laplacian, h0: np.ndarray, params: BaseModelParams, side: str):
    """gcn_layers graph convolutions ReLU(sum_{c=0}^{hops} theta_c L^c h) W, with
    the powers of L applied iteratively (L^c is never materialized); also
    returns the per-layer caches the backward pass reads. On a field's
    sub-Laplacian, rows near its border come out inexact; the field's radius
    keeps them out of the rows a loss reads."""
    caches = []
    h = h0
    for layer in range(params.cfg.gcn_layers):
        w = params.values[f"gcn_{side}.l{layer}.w"]
        theta = params.values[f"gcn_{side}.l{layer}.theta"]
        powers = [h]
        for _ in range(params.cfg.hops):
            powers.append(laplacian @ powers[-1])
        s = theta[0] * powers[0]
        for c in range(1, len(theta)):
            s = s + theta[c] * powers[c]
        activated = nn.relu(s)
        caches.append({"powers": powers, "mask": s > 0, "activated": activated, "w": w, "theta": theta})
        h = activated @ w
    return h, caches


def _gcn_stack_backward(field: _Field, caches, d_out: np.ndarray, grads: nn.GradSet, side: str) -> np.ndarray:
    # np.sum's pairwise order depends on the array's length, so on a field
    # theta's sums run over a zero-padded whole-side buffer: the same terms in
    # the same positions as on the whole graph.
    padded = None if field.whole else np.zeros((field.n_total, d_out.shape[1]))
    for layer in reversed(range(len(caches))):
        cache = caches[layer]
        grads[f"gcn_{side}.l{layer}.w"] += cache["activated"].T @ d_out
        d_act = d_out @ cache["w"].T
        d_s = np.where(cache["mask"], d_act, 0.0)
        theta = cache["theta"]
        powers = cache["powers"]
        d_theta = grads[f"gcn_{side}.l{layer}.theta"]
        for c in range(len(theta)):
            terms = powers[c] * d_s
            if padded is not None:
                padded[field.rows] = terms
                terms = padded
            d_theta[c] += float(np.sum(terms))
        d_h = theta[0] * d_s
        q = d_s
        for c in range(1, len(theta)):
            q = field.laplacian @ q  # L symmetric, so L^T = L
            d_h = d_h + theta[c] * q
        d_out = d_h
    return d_out


def _temporal_code(ctx: TimeContext, cfg: ModelConfig, holiday_table: np.ndarray) -> np.ndarray:
    """(K, 7+K+holiday_dim) raw codes: row k is the context rendered at slot k."""
    k = cfg.time_slots
    code = np.zeros((k, DAYS_PER_WEEK + k + holiday_table.shape[1]))
    code[:, ctx.day_of_week] = 1.0
    np.fill_diagonal(code[:, DAYS_PER_WEEK : DAYS_PER_WEEK + k], 1.0)
    code[:, DAYS_PER_WEEK + k :] = holiday_table[1 if ctx.is_holiday else 0]
    return code


def build_temporal_table(params: BaseModelParams, ctx: TimeContext) -> np.ndarray:
    """K x I table of projected temporal codes for the context's day."""
    code = _temporal_code(ctx, params.cfg, params.values["temporal.holiday"])
    return code @ params.values["temporal.w"] + params.values["temporal.b"]


def temporal_attention(temporal_table: np.ndarray, ctx: TimeContext) -> np.ndarray:
    """Length-I attention: per column, softmax over the K slots, read at the
    context's slot. Components lie in (0, 1)."""
    if not 0 <= ctx.slot < temporal_table.shape[0]:
        raise ValueError(f"slot {ctx.slot} outside table with K={temporal_table.shape[0]}")
    probs = nn.softmax(temporal_table, axis=0)
    return probs[ctx.slot].copy()


def _heads_forward(network: RoadNetwork, params: BaseModelParams, fields: tuple[_Field, _Field]):
    v = params.values
    field_e, field_v = fields
    he0, xe = _embed_side(network, params, "e", field_e.rows)
    hv0, xv = _embed_side(network, params, "v", field_v.rows)
    he, caches_e = _gcn_stack_forward(field_e.laplacian, he0, params, "e")
    hv, caches_v = _gcn_stack_forward(field_v.laplacian, hv0, params, "v")
    ue = he @ v["head_e.w"] + v["head_e.b"][field_e.rows, None]
    uv = hv @ v["head_v.w"] + v["head_v.b"][field_v.rows, None]
    return {"xe": xe, "xv": xv, "he": he, "hv": hv, "ue": ue, "uv": uv, "caches_e": caches_e, "caches_v": caches_v}


def traffic_state(network: RoadNetwork, params: BaseModelParams, ctxs: list[TimeContext]) -> dict[TimeContext, TrafficState]:
    """Estimated travel-time vectors for every edge and node, one state per
    distinct context of ctxs. The heads do not depend on the context, so one
    whole-graph forward pass serves every context."""
    fw = _heads_forward(network, params, _whole_graph(network))
    scale = params.cfg.output_scale
    states = {}
    for ctx in dict.fromkeys(ctxs):
        a = temporal_attention(build_temporal_table(params, ctx), ctx)
        states[ctx] = TrafficState(
            slot=ctx.slot,
            n_slots=params.cfg.time_slots,
            y_edges=scale * (fw["ue"] @ a),
            y_nodes=scale * (fw["uv"] @ a),
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
    batch: list[tuple[Route, float]],
    holidays: frozenset = frozenset(),
) -> tuple[float, nn.GradSet]:
    """Sum of squared route errors and gradients over every base tensor.

    Forward and backward run on the batch's receptive field only; the loss and
    every gradient equal those of the whole-graph pass byte for byte, and the
    rows of edge- and node-indexed gradients outside the field are +0.0.
    Routes are grouped by time context; embeddings, graph convolutions, and
    heads are shared across the batch, so one backward pass serves all groups.
    """
    if not batch:
        raise ValueError("empty batch")
    cfg = params.cfg
    v = params.values
    scale = cfg.output_scale
    fields = _receptive_field(network, cfg, [route for route, _ in batch])
    field_e, field_v = fields
    fw = _heads_forward(network, params, fields)
    ue, uv = fw["ue"], fw["uv"]
    grads = nn.zeros_like_params(v)

    groups: dict[TimeContext, list[tuple[Route, float]]] = {}
    for route, y in batch:
        ctx = TimeContext.from_datetime(route.departure_time, cfg.time_slots, holidays)
        groups.setdefault(ctx, []).append((route, y))

    due = np.zeros(ue.shape)
    duv = np.zeros(uv.shape)
    loss = 0.0
    for ctx in sorted(groups, key=TimeContext.sort_key):
        code = _temporal_code(ctx, cfg, v["temporal.holiday"])
        table = code @ v["temporal.w"] + v["temporal.b"]
        probs = nn.softmax(table, axis=0)
        attn = probs[ctx.slot]
        w_edges = np.zeros(len(ue))
        w_nodes = np.zeros(len(uv))
        d_attn = np.zeros(attn.shape)
        for route, y in groups[ctx]:
            e_pos = field_e.local(route.edge_positions())
            n_pos = field_v.local(route.node_positions())
            srow = ue[e_pos].sum(axis=0)
            if len(n_pos):
                srow = srow + uv[n_pos].sum(axis=0)
            err = scale * float(srow @ attn) - y
            loss += err * err
            g = 2.0 * err
            np.add.at(w_edges, e_pos, g)
            if len(n_pos):
                np.add.at(w_nodes, n_pos, g)
            d_attn += g * scale * srow
        due += scale * np.outer(w_edges, attn)
        duv += scale * np.outer(w_nodes, attn)
        # softmax-at-slot backward: a_i = probs[t, i]
        d_at_slot = d_attn * probs[ctx.slot]
        d_table = -probs * d_at_slot[None, :]
        d_table[ctx.slot] += d_at_slot
        grads["temporal.w"] += code.T @ d_table
        grads["temporal.b"] += d_table.sum(axis=0)
        d_code = d_table @ v["temporal.w"].T
        hol_block = DAYS_PER_WEEK + cfg.time_slots
        grads["temporal.holiday"][1 if ctx.is_holiday else 0] += d_code[:, hol_block:].sum(axis=0)

    for side, du, h_top, caches, field, cat, x_std in (
        ("e", due, fw["he"], fw["caches_e"], field_e, network.edge_categorical, fw["xe"]),
        ("v", duv, fw["hv"], fw["caches_v"], field_v, network.node_categorical, fw["xv"]),
    ):
        grads[f"head_{side}.w"] += h_top.T @ du
        grads[f"head_{side}.b"][field.rows] += du.sum(axis=1)
        d_h = du @ v[f"head_{side}.w"].T
        d_h0 = _gcn_stack_backward(field, caches, d_h, grads, side)
        grads[f"embed_{side}.identity"][field.rows] += d_h0
        for slot_idx in range(cat.shape[1]):
            table = v[f"embed_{side}.slot{slot_idx}"]
            grads[f"embed_{side}.slot{slot_idx}"] += nn.embedding_scatter(table.shape, cat[field.rows, slot_idx], d_h0)
        grads[f"num_proj_{side}.w"] += x_std.T @ d_h0
        grads[f"num_proj_{side}.b"] += d_h0.sum(axis=0)
    return loss, grads


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


@dataclass(frozen=True)
class PersonalInputs:
    """C clients' fixed personal-model inputs: profile ids as rows of the
    client-stacked table viewed as (C * rows, dim), client c's id i being row
    c * rows + i, and dense features standardized by each client's model."""

    region_rows: np.ndarray
    edge_rows: np.ndarray
    x_dense: np.ndarray


def personal_inputs(profiles: list[DriverProfile], params: list[PersonalModelParams]) -> PersonalInputs:
    """Stack the inputs of client c = (profiles[c], params[c]) for personal_loss."""
    if not profiles or len(profiles) != len(params):
        raise ValueError(f"need one personal model per profile, got {len(params)} for {len(profiles)}")
    rows = {}
    for table, attr in (("p.region", "top_regions"), ("p.edge", "top_edges")):
        n_rows = params[0].values[table].shape[0]
        ids = np.array([getattr(profile, attr) for profile in profiles], dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
            raise IndexError(f"{table} id out of range [0, {n_rows})")
        rows[table] = ids + n_rows * np.arange(len(profiles))[:, None]
    x_dense = np.stack([(profile.dense_features() - m.dense_mean) / m.dense_std for profile, m in zip(profiles, params)])
    return PersonalInputs(region_rows=rows["p.region"], edge_rows=rows["p.edge"], x_dense=x_dense)


def _personal_forward(inputs: PersonalInputs, values: nn.ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-client biases (C,) and head inputs x_u (C, x_dim) for (C, ...) tensors."""
    n = len(inputs.x_dense)
    # np.matmul on (C, 1, k) @ (C, k, m) runs one BLAS call per client, the same
    # call as a single client's (k,) @ (k, m); einsum would sum in another order.
    hidden = np.matmul(inputs.x_dense[:, None, :], values["p.dense.w"])[:, 0] + values["p.dense.b"]
    dim = values["p.region"].shape[-1]
    regions = values["p.region"].reshape(-1, dim)[inputs.region_rows]
    edges = values["p.edge"].reshape(-1, dim)[inputs.edge_rows]
    x_u = np.concatenate([regions.reshape(n, -1), edges.reshape(n, -1), hidden], axis=1)
    bias = np.matmul(x_u[:, None, :], values["p.head.w"])[:, 0, 0] + values["p.head.b"][:, 0]
    return bias, x_u


def personal_bias(profile: DriverProfile, params: PersonalModelParams) -> float:
    """Scalar travel-time bias in seconds for this driver."""
    stacked = {k: v[None] for k, v in params.values.items()}
    return float(_personal_forward(personal_inputs([profile], [params]), stacked)[0][0])


def predict_final(y_hat: float, bias: float) -> float:
    """Personalized prediction: base estimate plus the driver bias."""
    return y_hat + bias


def personal_loss(inputs: PersonalInputs, values: nn.ParamSet, batch) -> tuple[np.ndarray, nn.GradSet]:
    """Per-client personal losses (C,) and gradients, stacked on a leading client axis.

    values holds C clients' personal tensors as (C, ...) arrays and batch their
    (y, y_hat) pairs as a (C, B, 2) array. Client c's loss is the sum over its
    B pairs of (y - y_hat - bias_c)^2; its gradients touch only its own slice
    of the personal tensors, and y_hat values are frozen inputs. A single
    client is the case C = 1.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[1] == 0:
        raise ValueError("empty batch")
    bias, x_u = _personal_forward(inputs, values)
    loss = np.zeros(len(bias))
    d_bias = np.zeros(len(bias))
    for j in range(batch.shape[1]):
        r = batch[:, j, 0] - batch[:, j, 1] - bias
        loss += r * r
        d_bias += -2.0 * r
    d_xu = d_bias[:, None] * values["p.head.w"][:, :, 0]
    block = inputs.region_rows.shape[1] * values["p.region"].shape[-1]
    d_hidden = d_xu[:, 2 * block :]
    # "0.0 +" makes every zero gradient +0.0, so that p - lr * g leaves a -0.0
    # parameter at -0.0 (p - lr * -0.0 would turn it into +0.0).
    grads = {
        "p.head.w": 0.0 + d_bias[:, None, None] * x_u[:, :, None],
        "p.head.b": 0.0 + d_bias[:, None],
        "p.dense.w": 0.0 + inputs.x_dense[:, :, None] * d_hidden[:, None, :],
        "p.dense.b": 0.0 + d_hidden,
    }
    for table, rows, d_rows in (
        ("p.region", inputs.region_rows, d_xu[:, :block]),
        ("p.edge", inputs.edge_rows, d_xu[:, block : 2 * block]),
    ):
        shape = values[table].shape
        flat = nn.embedding_scatter((shape[0] * shape[1], shape[2]), rows.ravel(), d_rows.reshape(-1, shape[2]))
        grads[table] = flat.reshape(shape)
    return loss, grads
