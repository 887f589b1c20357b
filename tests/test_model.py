"""Base + personal model tests: embeddings, GCN, attention, route prediction,
analytic gradients against finite differences. The embedding, graph
convolution and attention tests drive the model's own forward helpers
(_embed_side, _gcn_stack_forward, _temporal_attention)."""

from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import data, graph, model, nn
from fedtte.graph import Route
from fedtte.model import ModelConfig, TrafficState

from conftest import base_loss_one, make_edge, make_node, make_path_network, shared_base_loss, stack

MIDNIGHT = datetime(2024, 1, 1, 0, 0)


def zero_all(params, names):
    for name in names:
        params.values[name] = np.zeros_like(params.values[name])


def route_of(positions, departure=MIDNIGHT):
    """Alternate e/v steps from a list of ('e'|'v', position) pairs."""
    return Route(steps=tuple(positions), departure_time=departure)


# ---------------------------------------------------------------- embeddings (_embed_side)

def _categorical_network():
    # 3 edges with distinct road_type values 0/1/2, all numerics equal
    nodes = [make_node(i) for i in range(4)]
    edges = [
        graph.EdgeRecord(id=i, from_node=i, to_node=i + 1, categorical=(i, 0), numeric=(100.0, 50.0, 1.0, 3.5))
        for i in range(3)
    ]
    return graph.build_network(nodes, edges)


def test_embed_features_reduces_to_slot_lookup(tiny_cfg):
    net = _categorical_network()
    params = model.init_base_params(net, tiny_cfg, seed=0)
    # silence everything except the road_type slot table
    zero_all(params, ["num_proj_e.w", "num_proj_e.b", "embed_e.identity", "embed_e.slot1"])
    he = model._embed_side(net, stack([params.values]), "e", model._whole_graph(net)[0])[0][0]
    table = params.values["embed_e.slot0"]
    for pos, e in enumerate(net.edges):
        assert np.array_equal(he[pos], table[e.categorical[0]])


def test_embed_features_identical_features_identical_rows(tiny_cfg):
    # two edges with byte-identical feature tuples embed identically once the
    # per-entity identity table is silenced
    nodes = [make_node(i) for i in range(3)]
    edges = [make_edge(0, 0, 1), make_edge(1, 1, 2)]
    net = graph.build_network(nodes, edges)
    params = model.init_base_params(net, tiny_cfg, seed=1)
    zero_all(params, ["embed_e.identity"])
    he = model._embed_side(net, stack([params.values]), "e", model._whole_graph(net)[0])[0][0]
    assert np.array_equal(he[0], he[1])


# ---------------------------------------------------------------- graph convolution (_gcn_stack_forward)

def gcn(lap, h, w, theta):
    """One layer of the model's graph convolution with hand-set weights."""
    cfg = ModelConfig(gcn_layers=1, hops=len(theta) - 1)
    field = model._Field(rows=slice(None), valid=None, laplacian=lap, n_total=len(lap))
    out, _ = model._gcn_stack_forward(field, h[None], cfg, stack([{"gcn_e.l0.w": w, "gcn_e.l0.theta": theta}]), "e")
    return out[0]


def test_gcn_zero_hops_identity_weight_nonnegative_input():
    h = np.array([[1.0, 2.0], [0.5, 0.0]])
    lap = np.eye(2)
    out = gcn(lap, h, w=np.eye(2), theta=np.array([1.0]))
    assert np.array_equal(out, h)


def test_gcn_one_hop_path_example():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    h = np.array([[1.0], [0.0]])
    out = gcn(lap, h, w=np.array([[1.0]]), theta=np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([[2.0], [0.0]]))


def test_gcn_zero_theta_zero_output():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    h = np.array([[3.0], [4.0]])
    out = gcn(lap, h, w=np.array([[2.0]]), theta=np.zeros(2))
    assert np.array_equal(out, np.zeros((2, 1)))


# ---------------------------------------------------------------- temporal attention (_temporal_attention)

def attention_of_table(table, slot):
    """The attention read at slot from a K x I table, on a C = 1 stack."""
    k, width = table.shape
    return model._temporal_attention({"temporal.w": table[None]}, [slot], ModelConfig(time_slots=k, head_width=width))[0][0]


def test_attention_constant_table_uniform():
    a = attention_of_table(np.full((4, 3), 1.7), 2)
    assert np.allclose(a, 0.25, atol=1e-15)


def test_attention_log_weights_k2():
    table = np.array([[np.log(1.0)], [np.log(3.0)]])
    a = attention_of_table(table, 1)
    assert np.allclose(a, [0.75], atol=1e-12)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10_000))
def test_attention_components_in_open_unit_interval(seed):
    rng = np.random.default_rng(seed)
    k, i = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    table = rng.normal(scale=3.0, size=(k, i))
    a = attention_of_table(table, int(rng.integers(0, k)))
    assert np.all(a > 0.0)
    assert np.all(a < 1.0)


def test_attention_rejects_out_of_range_slot():
    for slot in (-1, 4):
        with pytest.raises(ValueError, match="K=4"):
            attention_of_table(np.zeros((4, 2)), slot)


# ---------------------------------------------------------------- traffic_state

def test_traffic_state_zero_heads_zero_output(tiny_world, tiny_cfg):
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=0)
    zero_all(params, ["head_e.w", "head_e.b", "head_v.w", "head_v.b"])
    state = model.traffic_state(net, params, [0])[0]
    assert np.array_equal(state.y_edges, np.zeros(net.n_edges))
    assert np.array_equal(state.y_nodes, np.zeros(net.n_nodes))


def test_traffic_state_uniform_attention_counts_components(tiny_world, tiny_cfg):
    # all-ones head rows and uniform attention: Y_e = I/K = 1 at scale 1
    assert tiny_cfg.head_width == tiny_cfg.time_slots == 4
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=0)
    zero_all(params, ["head_e.w", "head_v.w", "temporal.w"])
    params.values["head_e.b"] = np.ones(net.n_edges)
    params.values["head_v.b"] = np.ones(net.n_nodes)
    state = model.traffic_state(net, params, [1])[1]
    assert np.allclose(state.y_edges, 1.0, atol=1e-12)
    assert np.allclose(state.y_nodes, 1.0, atol=1e-12)


def test_traffic_state_edge_permutation_equivariant(tiny_world, tiny_cfg):
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=5)
    y1 = model.traffic_state(net, params, [2])[2].y_edges

    perm = np.random.default_rng(0).permutation(net.n_edges)
    net2 = graph.build_network(net.nodes, [net.edges[p] for p in perm],
                               node_vocabs=net.node_vocabs, edge_vocabs=net.edge_vocabs)
    params2 = params.clone()
    params2.values["embed_e.identity"] = params.values["embed_e.identity"][perm]
    params2.values["head_e.b"] = params.values["head_e.b"][perm]
    y2 = model.traffic_state(net2, params2, [2])[2].y_edges
    assert np.allclose(y2, y1[perm], atol=1e-9)


# ---------------------------------------------------------------- predict_route

def _state(y_edges, y_nodes, slot=0, n_slots=4):
    return TrafficState(slot=slot, n_slots=n_slots, y_edges=np.array(y_edges, dtype=float),
                        y_nodes=np.array(y_nodes, dtype=float))


def test_predict_single_edge_route():
    state = _state([10.0, 20.0, 30.0], [5.0, 6.0])
    assert model.predict_route(state, route_of([("e", 2)])) == 30.0


def test_predict_edge_node_edge():
    state = _state([10.0, 20.0, 30.0], [5.0, 6.0])
    r = route_of([("e", 0), ("v", 0), ("e", 1)])
    assert model.predict_route(state, r) == 35.0


def test_predict_route_strict_slot_mismatch():
    state = _state([1.0], [1.0], slot=3)
    r = route_of([("e", 0)])  # midnight departure is slot 0
    with pytest.raises(ValueError):
        model.predict_route(state, r)
    assert model.predict_route(state, r, strict=False) == 1.0


def test_predict_route_bruteforce_oracle():
    rng = np.random.default_rng(17)
    y_e = rng.normal(size=10)
    y_v = rng.normal(size=6)
    state = _state(y_e, y_v)
    for _ in range(100):
        n_edges = int(rng.integers(1, 5))
        steps = []
        for i in range(n_edges):
            steps.append(("e", int(rng.integers(0, 10))))
            if i < n_edges - 1:
                steps.append(("v", int(rng.integers(0, 6))))
        r = route_of(steps)
        expected = sum(y_e[p] for k, p in steps if k == "e") + sum(y_v[p] for k, p in steps if k == "v")
        assert model.predict_route(state, r) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25)
@given(st.floats(min_value=-5, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_predict_route_linear_in_state(scale, seed):
    rng = np.random.default_rng(seed)
    y_e, y_v = rng.normal(size=6), rng.normal(size=4)
    r = route_of([("e", 0), ("v", 1), ("e", 3)])
    base = model.predict_route(_state(y_e, y_v), r)
    scaled = model.predict_route(_state(scale * y_e, scale * y_v), r)
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- base_loss

def _world_batch(world, n=2):
    from fedtte import data

    recs = data.sample_trajectories(world, 0)[:n]
    return [(r.route, r.y) for r in recs]


def test_base_loss_perfect_prediction_zero_gradients(tiny_world, tiny_cfg):
    # constant heads + uniform attention keep every float op exact, so a
    # target equal to the model output zeroes loss and gradients bit-exactly
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=3)
    zero_all(params, ["head_e.w", "head_v.w", "temporal.w"])
    params.values["head_e.b"] = np.full(net.n_edges, 2.0)
    params.values["head_v.b"] = np.full(net.n_nodes, 2.0)
    (route, _), = _world_batch(tiny_world, 1)
    slot = model.slot_of_time(route.departure_time, tiny_cfg.time_slots)
    y = model.predict_route(model.traffic_state(net, params, [slot])[slot], route)
    loss, grads = base_loss_one(net, params, route, y)
    assert loss == 0.0
    for name, g in grads.items():
        assert np.array_equal(g, np.zeros_like(g)), name


def test_base_loss_near_zero_at_served_targets(tiny_world, tiny_cfg):
    # with arbitrary parameters the serving path and the training path may
    # associate the same sums differently; residuals stay at float epsilon
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=3)
    slot_of = lambda r: model.slot_of_time(r.departure_time, tiny_cfg.time_slots)
    batch = [
        (r, model.predict_route(model.traffic_state(net, params, [slot_of(r)])[slot_of(r)], r))
        for r, _ in _world_batch(tiny_world, 2)
    ]
    losses, grads = model.base_loss(net, params.cfg, stack([params.values] * len(batch)), batch)
    assert losses.sum() < 1e-24
    for g in grads.values():
        assert np.abs(g).max() < 1e-9


def test_base_loss_zero_model_squared_target(tiny_world, tiny_cfg):
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=3)
    zero_all(params, ["head_e.w", "head_e.b", "head_v.w", "head_v.b"])
    (route, _), = _world_batch(tiny_world, 1)
    loss, _ = base_loss_one(net, params, route, 3.0)
    assert loss == 9.0


def test_base_loss_gradients_touch_only_base_tensors(tiny_world, tiny_cfg):
    net = tiny_world.network
    params = model.init_base_params(net, tiny_cfg, seed=4)
    batch = _world_batch(tiny_world, 2)
    _, grads = model.base_loss(net, params.cfg, stack([params.values] * len(batch)), batch)
    assert sorted(grads) == sorted(params.values)
    assert not any(name.startswith("p.") for name in grads)


def test_base_loss_finite_difference(tiny_world, tiny_cfg):
    net = tiny_world.network
    base = model.init_base_params(net, tiny_cfg, seed=8)
    batch = _world_batch(tiny_world, 2)
    err = nn.check_gradients(shared_base_loss(net, base, batch), base.values, None, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------- receptive field
# base_loss runs on the batch's receptive field; these tests certify it against
# the same base_loss with the field forced to the whole graph.

_GRID_CFG = ModelConfig(embed_dim=4, head_width=4, time_slots=8, output_scale=10.0)
# (gcn_layers, hops) pairs whose radius gcn_layers * hops is 2, 3 or 4: on the
# 10x10 grid most of their fields are still strict subsets of the graph
_FIELD_CFGS = [replace(_GRID_CFG, gcn_layers=layers, hops=hops) for layers, hops in ((1, 2), (2, 1), (1, 3), (2, 2))]


def _grid_world(rows, cols):
    return data.generate_world(data.WorldSpec(
        grid_rows=rows, grid_cols=cols, n_drivers=6, trips_per_day=4, time_slots=8, seed=rows * 100 + cols,
    ))


GRID_10 = _grid_world(10, 10)
GRID_10_ROUTES = [t.route for t in data.sample_trajectories(GRID_10, 0)]


def _whole_graph_loss(net, params, values, batch):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_receptive_field", lambda network, cfg, routes: model._whole_graph(network))
        return model.base_loss(net, params.cfg, values, batch)


@st.composite
def _batches(draw):
    net = GRID_10.network
    shared = draw(st.booleans())
    routes = []
    for _ in range(draw(st.integers(1, 3))):
        departure = MIDNIGHT.replace(hour=8) if shared else MIDNIGHT.replace(hour=draw(st.integers(0, 23)))
        if draw(st.booleans()):
            routes.append(route_of([("e", draw(st.integers(0, net.n_edges - 1)))], departure=departure))
        else:
            steps = draw(st.sampled_from(GRID_10_ROUTES)).steps
            routes.append(Route(steps=steps, departure_time=departure))
    targets = draw(st.lists(st.floats(0.0, 2000.0), min_size=len(routes), max_size=len(routes)))
    return list(zip(routes, targets))


@pytest.mark.parametrize("cfg", _FIELD_CFGS, ids=lambda c: f"layers{c.gcn_layers}-hops{c.hops}")
@settings(max_examples=30, deadline=None)
@given(batch=_batches(), seed=st.integers(0, 3))
def test_base_loss_on_the_field_equals_the_whole_graph_bytewise(cfg, batch, seed):
    # one route per client, each client with its own model: the step's field is
    # the union of the routes' fields
    net = GRID_10.network
    params = model.init_base_params(net, cfg, seed)
    values = stack([model.init_base_params(net, cfg, seed + c).values for c in range(len(batch))])
    loss, grads = model.base_loss(net, params.cfg, values, batch)
    whole_loss, whole_grads = _whole_graph_loss(net, params, values, batch)
    assert loss.tobytes() == whole_loss.tobytes()
    assert sorted(grads) == sorted(whole_grads)
    for name in grads:
        assert grads[name].tobytes() == whole_grads[name].tobytes(), name


@pytest.mark.parametrize("cfg", _FIELD_CFGS, ids=lambda c: f"layers{c.gcn_layers}-hops{c.hops}")
def test_receptive_field_is_a_strict_subset_on_a_grid(cfg):
    net = GRID_10.network
    field_e, field_v = model._receptive_field(net, cfg, GRID_10_ROUTES[:1])
    assert not field_e.whole and 0 < len(field_e.rows[0]) < net.n_edges / 2
    assert not field_v.whole and len(field_v.rows[0]) < net.n_nodes / 2
    # the field grows with the radius gcn_layers * hops, not with hops alone
    narrower, _ = model._receptive_field(net, replace(cfg, gcn_layers=1, hops=cfg.gcn_layers * cfg.hops - 1), GRID_10_ROUTES[:1])
    assert len(narrower.rows[0]) < len(field_e.rows[0])
    # a single-edge route reads no node, so its node field is empty
    _, empty = model._receptive_field(net, _GRID_CFG, [route_of([("e", 0)])])
    assert not empty.whole and len(empty.rows[0]) == 0


def test_field_scatter_add_writes_into_a_non_contiguous_destination():
    # a FlatStack's tensors are views whose client axis cannot be merged with
    # the rows, so a scatter through a reshape would add into a copy
    net = GRID_10.network
    field = model._side_field(net.laplacian_edges, [[0, 5], [100, 101, 102], [7]], 2)
    assert not field.whole
    rng = np.random.default_rng(0)
    for shape in ((), (4,)):
        size = net.n_edges * int(np.prod(shape))
        buffer = np.zeros((3, 7 + size + 5))
        dest = buffer[:, 7 : 7 + size].reshape(3, net.n_edges, *shape)
        assert not dest.flags.c_contiguous and np.shares_memory(dest, buffer)
        x = rng.normal(size=(3, field.rows.shape[1], *shape))
        expected = np.zeros(dest.shape)
        for c in range(3):
            real = field.valid[c]
            expected[c, field.rows[c][real]] += x[c][real]
        field.scatter_add(dest, x)
        assert dest.tobytes() == expected.tobytes()
        assert not buffer[:, :7].any() and not buffer[:, 7 + size :].any()


# The per-client field search and sub-block cut that _side_field replaced,
# kept here as its reference: one mask search per client over the whole
# Laplacian, one scipy sub-block per client, and the block-diagonal matrix
# of those blocks padded to the widest.

def _reference_reach(laplacian, seeds, radius):
    n = laplacian.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[seeds] = True
    for _ in range(radius):
        reached[laplacian.indices[np.repeat(reached, np.diff(laplacian.indptr))]] = True
    return reached


def _reference_sub_block(laplacian, reached):
    rows = np.flatnonzero(reached)
    index_dtype = laplacian.indices.dtype
    local = np.cumsum(reached, dtype=index_dtype) - 1
    data_, indices, indptr = [], [], [0]
    for row in rows:
        for k in range(laplacian.indptr[row], laplacian.indptr[row + 1]):
            col = laplacian.indices[k]
            if reached[col]:
                data_.append(laplacian.data[k])
                indices.append(local[col])
        indptr.append(len(indices))
    return rows, np.array(data_, dtype=laplacian.data.dtype), np.array(indices, dtype=index_dtype), np.array(indptr, dtype=index_dtype)


def _reference_side_field(laplacian, seeds, radius):
    """(rows, valid, data, indices, indptr) of the padded block-diagonal
    field, or None for the whole side."""
    n = laplacian.shape[0]
    if 2 * np.count_nonzero(_reference_reach(laplacian, [s for c in seeds for s in c], radius)) > n:
        return None
    blocks = [_reference_sub_block(laplacian, _reference_reach(laplacian, c, radius)) for c in seeds]
    width = max(len(rows) for rows, *_ in blocks)
    padded = np.zeros((len(seeds), width), dtype=np.intp)
    valid = np.zeros((len(seeds), width), dtype=bool)
    data_, indices, indptr = [], [], [np.zeros(1, dtype=laplacian.indices.dtype)]
    offset = 0
    for c, (rows, d, i, ptr) in enumerate(blocks):
        padded[c, : len(rows)] = rows
        padded[c, len(rows) :] = rows[-1] if len(rows) else 0
        valid[c, : len(rows)] = True
        data_.append(d)
        indices.append(i + c * width)
        ends = np.full(width, ptr[-1] + offset, dtype=ptr.dtype)
        ends[: len(rows)] = ptr[1:] + offset
        indptr.append(ends)
        offset += ptr[-1]
    return padded, valid, np.concatenate(data_), np.concatenate(indices).astype(laplacian.indices.dtype), np.concatenate(indptr)


@st.composite
def _graphs_and_seeds(draw):
    """A symmetric sparsity pattern on n rows, some of them isolated (no
    entry, or only the diagonal), each row's entries stored in a drawn
    order, and 1-4 clients' seed rows, possibly none or repeated."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    diagonal = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    entries = {(i, i) for i in range(n) if diagonal[i]} | {(i, j) for i, j in pairs} | {(j, i) for i, j in pairs}
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = [[j for i, j in sorted(entries) if i == r] for r in range(n)]
    for row in rows:
        if draw(st.booleans()):
            rng.shuffle(row)
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
    indices = np.array([j for row in rows for j in row], dtype=np.int32)
    laplacian = sp.csr_matrix((rng.normal(size=len(indices)), indices, indptr), shape=(n, n))
    seeds = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5), min_size=1, max_size=4))
    return laplacian, seeds, draw(st.integers(0, 3))


def _assert_field_matches_reference(laplacian, seeds, radius):
    field = model._side_field(laplacian, seeds, radius)
    expected = _reference_side_field(laplacian, seeds, radius)
    assert field.whole == (expected is None)
    if expected is None:
        assert field.laplacian is laplacian and field.n_total == laplacian.shape[0]
        return
    rows, valid, data_, indices, indptr = expected
    block = field.laplacian
    for got, want in ((field.rows, rows), (field.valid, valid), (block.data, data_), (block.indices, indices), (block.indptr, indptr)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert block.shape == (len(seeds) * rows.shape[1],) * 2


@settings(max_examples=150, deadline=None)
@given(case=_graphs_and_seeds())
def test_side_field_matches_the_per_client_reference(case):
    _assert_field_matches_reference(*case)


def test_side_field_on_exactly_half_the_side_is_a_field():
    # more than half the rows runs the whole side; exactly half does not
    net = GRID_10.network
    half = net.n_edges // 2
    _assert_field_matches_reference(net.laplacian_edges, [list(range(half // 2)), list(range(half // 2, half))], 0)
    assert not model._side_field(net.laplacian_edges, [list(range(half))], 0).whole
    assert model._side_field(net.laplacian_edges, [list(range(half)), [half]], 0).whole
    # routes with no interior node: every node field is empty
    _assert_field_matches_reference(net.laplacian_nodes, [[], []], 2)
    for seeds in ([[0, 5], [100, 101, 102], [7]], [[3, 3, 3], [3]], [[359], [0]]):
        _assert_field_matches_reference(net.laplacian_edges, seeds, 2)


def test_stacked_shared_base_loss_on_strict_fields_finite_difference(tiny_cfg):
    # nn.check_gradients through conftest.shared_base_loss: three routes
    # under one model, each stepped as a client on its own strict field
    cfg = replace(tiny_cfg, hops=1, embed_dim=2, head_width=2)
    net = make_path_network(25)
    routes = [route_of([("e", e), ("v", e + 1), ("e", e + 1)], departure=MIDNIGHT.replace(hour=8)) for e in (0, 10, 20)]
    assert not any(f.whole for f in model._receptive_field(net, cfg, routes))
    base = model.init_base_params(net, cfg, seed=4)
    slot = model.slot_of_time(routes[0].departure_time, cfg.time_slots)
    state = model.traffic_state(net, base, [slot])[slot]
    batch = [(route, model.predict_route(state, route) + 1.0) for route in routes]
    assert nn.check_gradients(shared_base_loss(net, base, batch), base.values, None, eps=1e-5) < 1e-4


def test_base_loss_gradients_are_one_flat_buffer():
    # row c of the buffer is client c's gradients, tensor by tensor in
    # sorted-name order
    net = GRID_10.network
    batch = [(route, 100.0 * i) for i, route in enumerate(GRID_10_ROUTES[:3])]
    params = model.init_base_params(net, _GRID_CFG, 0)
    values = stack([model.init_base_params(net, _GRID_CFG, c).values for c in range(len(batch))])
    _, grads = model.base_loss(net, params.cfg, values, batch)
    for c in range(len(batch)):
        assert np.concatenate([grads[name][c].ravel() for name in sorted(grads)]).tobytes() == grads.buffer[c].tobytes()
    assert all(np.shares_memory(g, grads.buffer) for g in grads.values() if g.size)
    # On strict fields (single-edge routes: their node fields are empty) the
    # columns the call does not report writing are +0.0 in a new buffer, and
    # a reused stack, with more rows and stale values, gets the same bytes in
    # the columns written and keeps its stale values in the others.
    batch = [(route_of([("e", e)], departure=MIDNIGHT.replace(hour=8)), 100.0) for e in (0, 150, 300)]
    assert not any(f.whole for f in model._receptive_field(net, _GRID_CFG, [route for route, _ in batch]))
    _, grads = model.base_loss(net, params.cfg, values, batch)
    written = np.zeros(grads.buffer.shape, dtype=bool)
    grads.cols.write(written, np.ones(grads.cols.read(written).shape, dtype=bool))
    outside = grads.buffer[~written]
    assert outside.size and not outside.any() and not np.signbit(outside).any()
    reused = nn.FlatStack({k: v.shape[1:] for k, v in values.items()}, len(batch) + 2)
    reused.buffer[...] = np.nan
    _, again = model.base_loss(net, params.cfg, values, batch, grads=reused.head(len(batch)))
    assert np.shares_memory(again.buffer, reused.buffer)
    assert again.buffer[written].tobytes() == grads.buffer[written].tobytes()
    assert np.isnan(again.buffer[~written]).all() and np.isnan(reused.buffer[len(batch) :]).all()


def _two_edge_route(world):
    route = next(t.route for t in data.sample_trajectories(world, 0) if len(t.route.steps) >= 3)
    return Route(steps=route.steps[:3], departure_time=MIDNIGHT.replace(hour=8))


def test_base_loss_on_the_field_finite_difference(tiny_cfg):
    world = _grid_world(6, 6)
    net = world.network
    route = _two_edge_route(world)
    field_e, field_v = model._receptive_field(net, tiny_cfg, [route])
    assert not field_e.whole and not field_v.whole
    base = model.init_base_params(net, tiny_cfg, seed=8)
    fn = shared_base_loss(net, base, [(route, 30.0)])
    assert nn.check_gradients(fn, base.values, None, eps=1e-5) < 1e-4


def test_base_loss_on_a_two_layer_field_finite_difference(tiny_cfg):
    cfg = replace(tiny_cfg, gcn_layers=2, hops=1)
    world = _grid_world(6, 6)
    net = world.network
    route = _two_edge_route(world)
    field_e, field_v = model._receptive_field(net, cfg, [route])
    assert not field_e.whole and not field_v.whole
    base = model.init_base_params(net, cfg, seed=8)
    slot = model.slot_of_time(route.departure_time, cfg.time_slots)
    # The rows two layers away get gradients near 1e-7, whose central
    # differences are dominated by the loss curvature unless the error is small,
    # so the target sits one second off the prediction.
    batch = [(route, model.predict_route(model.traffic_state(net, base, [slot])[slot], route) + 1.0)]
    fn = shared_base_loss(net, base, batch)
    assert nn.check_gradients(fn, base.values, None, eps=1e-4) < 1e-4


def test_stacked_base_loss_on_strict_fields_finite_difference(tiny_cfg):
    # three clients with their own models and routes on a 25-node chain: each
    # runs on its own strict field, padded to the widest (the first route sits
    # at the chain's end, so its field is narrower)
    cfg = replace(tiny_cfg, hops=1, embed_dim=2, head_width=2)
    net = make_path_network(25)
    routes = [route_of([("e", e), ("v", e + 1), ("e", e + 1)], departure=MIDNIGHT.replace(hour=h)) for e, h in ((0, 8), (10, 9), (20, 8))]
    field_e, field_v = model._receptive_field(net, cfg, routes)
    assert not field_e.whole and not field_v.whole
    assert not field_e.valid.all()
    base = model.init_base_params(net, cfg, seed=4)
    values = stack([model.init_base_params(net, cfg, seed=s).values for s in (4, 5, 6)])
    batch = []
    for c, route in enumerate(routes):
        slot = model.slot_of_time(route.departure_time, cfg.time_slots)
        client = base.with_values({k: v[c] for k, v in values.items()})
        batch.append((route, model.predict_route(model.traffic_state(net, client, [slot])[slot], route) + 1.0))

    def summed(values, _):
        # client c's loss reads only slice c, so the sum's gradient there is its own
        losses, grads = model.base_loss(net, base.cfg, values, batch)
        return float(losses.sum()), grads

    assert nn.check_gradients(summed, values, None, eps=1e-5) < 1e-4
    # each client's slice equals its C = 1 result
    losses, grads = model.base_loss(net, base.cfg, values, batch)
    for c, (route, y) in enumerate(batch):
        loss, one = base_loss_one(net, base.with_values({k: v[c] for k, v in values.items()}), route, y)
        assert losses[c] == loss
        for name in one:
            assert grads[name][c].tobytes() == one[name].tobytes(), name


def test_base_loss_gradient_rows_outside_the_field_are_positive_zero():
    net = GRID_10.network
    params = model.init_base_params(net, _GRID_CFG, seed=2)
    route = GRID_10_ROUTES[0]
    field_e, _ = model._receptive_field(net, _GRID_CFG, [route])
    _, grads = base_loss_one(net, params, route, 500.0)
    outside = np.setdiff1d(np.arange(net.n_edges), field_e.rows[0])
    assert outside.size
    for name in ("embed_e.identity", "head_e.b"):
        rows = grads[name][outside]
        assert np.all(rows == 0.0) and not np.any(np.signbit(rows)), name
    assert np.any(grads["embed_e.identity"][field_e.rows[0]] != 0.0)


# ---------------------------------------------------------------- personal model

def _profile(regions=(0, 1, 2), edges=(0, 1, 2)):
    return model.DriverProfile(
        break_start_h=9.5,
        break_end_h=11.0,
        top_regions=tuple(regions),
        top_edges=tuple(edges),
        avg_trip_distance_m=1500.0,
        trips_per_day=6.0,
    )


def _personal_loss_one(profile, params, batch):
    """personal_loss for one client: its C = 1 working set, gradients
    unpacked onto whole tables."""
    ws = model.personal_working_set([profile], [params])
    losses, grads = model.personal_loss(ws, [batch])
    return float(losses[0]), ws.unpack(grads, 0, {k: np.zeros_like(x) for k, x in params.values.items()})


def test_personal_bias_all_zero_params(tiny_cfg):
    params = model.init_personal_params(4, 8, tiny_cfg, seed=0)
    for name in params.values:
        params.values[name] = np.zeros_like(params.values[name])
    assert model.personal_bias(_profile(), params) == 0.0


def test_personal_bias_constant_head(tiny_cfg):
    params = model.init_personal_params(4, 8, tiny_cfg, seed=0)
    params.values["p.head.w"] = np.zeros_like(params.values["p.head.w"])
    params.values["p.head.b"] = np.array([7.0])
    for regions in ((0, 1, 2), (3, 3, 3)):
        assert model.personal_bias(_profile(regions=regions), params) == 7.0


def test_personal_loss_optimal_constant_bias(tiny_cfg):
    # residuals constantly +12: a bias of exactly 12 zeroes the loss and any
    # neighbor does strictly worse
    params = model.init_personal_params(4, 8, tiny_cfg, seed=0)
    for name in params.values:
        params.values[name] = np.zeros_like(params.values[name])
    batch = [(112.0, 100.0), (62.0, 50.0), (212.0, 200.0)]

    def loss_at(b):
        params.values["p.head.b"] = np.array([b])
        return _personal_loss_one(_profile(), params, batch)[0]

    assert loss_at(12.0) == 0.0
    assert loss_at(11.0) > 0.0
    assert loss_at(13.0) > 0.0


def test_personal_loss_zeroed_model_is_residual_ss(tiny_cfg):
    params = model.init_personal_params(4, 8, tiny_cfg, seed=0)
    for name in params.values:
        params.values[name] = np.zeros_like(params.values[name])
    batch = [(103.0, 100.0), (99.0, 100.0)]
    loss, _ = _personal_loss_one(_profile(), params, batch)
    assert loss == pytest.approx(9.0 + 1.0, abs=1e-12)


def test_personal_loss_gradients_touch_only_personal_tensors(tiny_cfg):
    params = model.init_personal_params(4, 8, tiny_cfg, seed=1)
    _, grads = _personal_loss_one(_profile(), params, [(110.0, 100.0)])
    assert sorted(grads) == sorted(params.values)
    assert all(name.startswith("p.") for name in grads)


def test_personal_loss_finite_difference(tiny_cfg):
    params = model.init_personal_params(4, 8, tiny_cfg, seed=2)
    profile = _profile()
    batch = [(110.0, 100.0), (95.0, 100.0)]

    def fn(values, _):
        probe = model.PersonalModelParams(values=values, dense_mean=params.dense_mean, dense_std=params.dense_std)
        return _personal_loss_one(profile, probe, batch)

    err = nn.check_gradients(fn, params.values, None, eps=1e-5)
    assert err < 1e-5


def test_personal_loss_stacked_finite_difference(tiny_cfg):
    # three clients with their own models and profiles, padding ids (4 for
    # regions, 8 for edges) repeated within a profile; the summed loss has
    # exactly the per-client gradients only if no client's loss reaches
    # another client's slice
    params = [model.init_personal_params(4, 8, tiny_cfg, seed=s) for s in range(3)]
    profiles = [_profile((0, 4, 4), (8, 8, 1)), _profile((1, 2, 3), (0, 8, 8)), _profile((4, 4, 4), (8, 8, 8))]
    ws = model.personal_working_set(profiles, params)
    values = {"ws": ws.values}
    batch = [[(110.0, 100.0), (95.0, 100.0)], [(80.0, 60.0), (61.0, 60.0)], [(200.0, 150.0), (140.0, 150.0)]]

    def fn(vals, _):
        # check_gradients perturbs ws.values in place
        losses, grads = model.personal_loss(ws, batch)
        return float(losses.sum()), {"ws": grads}

    assert nn.check_gradients(fn, values, None, eps=1e-5) < 1e-5
    # each client's slice is byte for byte its own C = 1 result
    losses, grads = model.personal_loss(ws, batch)
    for c in range(3):
        loss_c, grads_c = _personal_loss_one(profiles[c], params[c], batch[c])
        assert losses[c] == loss_c
        unpacked = ws.unpack(grads, c, {k: np.zeros_like(x) for k, x in params[c].values.items()})
        for name in grads_c:
            assert unpacked[name].tobytes() == grads_c[name].tobytes(), name


def test_personal_working_set_rejects_out_of_range_ids(tiny_cfg):
    params = model.init_personal_params(4, 8, tiny_cfg, seed=0)
    with pytest.raises(IndexError):
        model.personal_working_set([_profile(regions=(0, 1, 5))], [params])
    with pytest.raises(IndexError):
        model.personal_working_set([_profile(edges=(-1, 1, 2))], [params])


def test_personal_sgd_recovers_least_squares_slope(tiny_cfg):
    # single informative dense feature, linear residual: SGD on the personal
    # loss converges to the least-squares fit
    rng = np.random.default_rng(0)
    profiles = [
        model.DriverProfile(
            break_start_h=float(h),
            break_end_h=12.0,
            top_regions=(0, 0, 0),
            top_edges=(0, 0, 0),
            avg_trip_distance_m=1000.0,
            trips_per_day=4.0,
        )
        for h in (6.0, 8.0, 10.0, 12.0)
    ]
    mean, std = model.fit_dense_stats(profiles)
    slope = 5.0
    params = model.init_personal_params(2, 2, tiny_cfg, seed=3, dense_mean=mean, dense_std=std)
    for _ in range(4000):
        for prof in profiles:
            x = (prof.break_start_h - mean[0]) / std[0]
            batch = [(100.0 + slope * x, 100.0)]
            _, grads = _personal_loss_one(prof, params, batch)
            params.values = {k: v - 1e-3 * grads[k] for k, v in params.values.items()}
    for prof in profiles:
        x = (prof.break_start_h - mean[0]) / std[0]
        assert model.personal_bias(prof, params) == pytest.approx(slope * x, abs=0.1)


# ---------------------------------------------------------------- config/time

def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(embed_dim=0)
    with pytest.raises(ValueError):
        ModelConfig(time_slots=0)


def test_slot_of_time_half_hour_buckets():
    assert model.slot_of_time(datetime(2024, 1, 1, 0, 29), 48) == 0
    assert model.slot_of_time(datetime(2024, 1, 1, 0, 30), 48) == 1
    assert model.slot_of_time(datetime(2024, 1, 1, 8, 0), 48) == 16
    assert model.slot_of_time(datetime(2024, 1, 1, 23, 59), 48) == 47
