"""Numeric-kernel tests: layers, optimizer, gradient checking, serialization."""

import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import graph, model, nn


# ---------------------------------------------------------------- affine projection and row lookup
# The model inlines both layers in model._embed_side: node features (lat, lon)
# go through x @ num_proj_v.w + num_proj_v.b and junction_type ids pick rows of
# embed_v.slot0. With the network's standardized features set to the raw ones
# and every other term zeroed, the side's output is the layer alone.


def _embed_side_v(numeric, junction_types, values):
    """Node-side embeddings of the given nodes, standardization switched off,
    with the named tensors replaced and every other node tensor zeroed."""
    n = len(numeric)
    nodes = [graph.NodeRecord(id=i, categorical=(j, 0, 0), numeric=tuple(x)) for i, (x, j) in enumerate(zip(numeric, junction_types))]
    # a network needs an edge: two anchor nodes after the ones under test carry it
    nodes += [graph.NodeRecord(id=n + i, categorical=(0, 0, 0), numeric=(0.0, 0.0)) for i in range(2)]
    edge = graph.EdgeRecord(id=0, from_node=n, to_node=n + 1, categorical=(0, 0), numeric=(100.0, 50.0, 1.0, 3.5))
    net = graph.build_network(nodes, [edge])
    net = replace(net, node_features=net.node_numeric)
    dim = next(iter(values.values())).shape[1]
    params = model.init_base_params(net, model.ModelConfig(embed_dim=dim), seed=0)
    for name in ("embed_v.identity", "embed_v.slot0", "embed_v.slot1", "embed_v.slot2", "num_proj_v.w", "num_proj_v.b"):
        params.values[name] = values.get(name, np.zeros_like(params.values[name]))
    h, x_std = model._embed_side(net, {k: v[None] for k, v in params.values.items()}, "v", model._whole_graph(net)[1])
    assert np.array_equal(x_std[:n], numeric)
    return h[0, :n]


def _projection(x, w, b):
    return _embed_side_v(x, [0] * len(x), {"num_proj_v.w": w, "num_proj_v.b": b})


def _lookup(table, ids):
    return _embed_side_v(np.zeros((len(ids), 2)), ids, {"embed_v.slot0": table})


def test_linear_identity_weight():
    x = np.eye(2)
    w = np.array([[2.0, 0.0], [0.0, 3.0]])
    b = np.zeros(2)
    out = _projection(x, w, b)
    assert np.array_equal(out, np.array([[2.0, 0.0], [0.0, 3.0]]))


def test_linear_sum_plus_bias():
    x = np.array([[1.0, 1.0]])
    w = np.array([[1.0], [1.0]])
    b = np.array([1.0])
    out = _projection(x, w, b)
    assert out.shape == (1, 1)
    assert out[0, 0] == 3.0


def test_linear_zero_input_broadcasts_bias():
    x = np.zeros((4, 2))
    w = np.ones((2, 2))
    b = np.array([5.0, -1.0])
    out = _projection(x, w, b)
    assert np.array_equal(out, np.tile(b, (4, 1)))


def test_embedding_repeated_ids_share_rows():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(5, 3))
    out = _lookup(table, [0, 0])
    assert np.array_equal(out[0], out[1])
    assert np.array_equal(out[0], table[0])


def test_embedding_picks_requested_row():
    table = np.arange(9.0).reshape(3, 3)
    out = _lookup(table, [2])
    assert np.array_equal(out[0], table[2])


def test_embedding_scatter_accumulates_duplicates():
    # d/dtable of sum(table[[0, 0]]) puts 2 into every entry of row 0
    table = np.zeros((3, 2))
    upstream = np.ones((2, 2))
    grad = nn.embedding_scatter(table.shape, np.array([0, 0]), upstream)
    assert np.array_equal(grad[0], np.array([2.0, 2.0]))
    assert np.array_equal(grad[1:], np.zeros((2, 2)))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 6),
    dim=st.integers(1, 4),
    ids=st.lists(st.integers(0, 5), max_size=12),
    data=st.data(),
)
def test_embedding_scatter_matches_add_at(rows, dim, ids, data):
    # duplicates accumulate in input order and -0.0 rows behave as np.add.at's do
    ids = np.array([i % rows for i in ids], dtype=np.int64)
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, 5e-324]), st.floats(-1e6, 1e6))
    grad_rows = np.array(data.draw(st.lists(values, min_size=len(ids) * dim, max_size=len(ids) * dim))).reshape(len(ids), dim)
    reference = np.zeros((rows, dim))
    np.add.at(reference, ids, grad_rows)
    assert nn.embedding_scatter((rows, dim), ids, grad_rows).tobytes() == reference.tobytes()


# ---------------------------------------------------------------- softmax

def test_softmax_two_equal_logits():
    out = nn.softmax(np.array([0.0, 0.0]))
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_constant_vector_gives_thirds():
    out = nn.softmax(np.array([3.7, 3.7, 3.7]))
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_log_weights():
    out = nn.softmax(np.array([math.log(1.0), math.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-30, max_value=30),
)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    x = np.array(logits)
    p = nn.softmax(x)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0)
    q = nn.softmax(x + shift)
    assert np.allclose(p, q, atol=1e-12)


# ---------------------------------------------------------------- sgd

def _sgd(params, grads, lr):
    """nn.sgd_step on the C = 1 stack of one ParamSet, returning the new values
    and leaving the inputs as they were."""
    values = {k: v[None].copy() for k, v in params.items()}
    nn.sgd_step(values, {k: g[None].copy() for k, g in grads.items()}, lr, np.array([True]))
    return {k: v[0] for k, v in values.items()}


def test_sgd_lr_zero_is_identity():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([10.0, -4.0])}
    out = _sgd(params, grads, lr=0.0)
    assert np.array_equal(out["w"], params["w"])


def test_sgd_single_step_arithmetic():
    out = _sgd({"p": np.array([1.0])}, {"p": np.array([1.0])}, lr=0.1)
    assert np.allclose(out["p"], [0.9], atol=1e-15)


def test_sgd_two_steps_on_quadratic():
    # f(p) = p^2, grad = 2p, lr = 0.5: p=1 -> 0 -> 0
    p = {"p": np.array([1.0])}
    p = _sgd(p, {"p": 2.0 * p["p"]}, lr=0.5)
    assert p["p"][0] == 0.0
    p = _sgd(p, {"p": 2.0 * p["p"]}, lr=0.5)
    assert p["p"][0] == 0.0


def test_sgd_deterministic():
    params = {"w": np.linspace(0, 1, 6).reshape(2, 3)}
    grads = {"w": np.full((2, 3), 0.25)}
    a = _sgd(params, grads, lr=0.01)
    b = _sgd(params, grads, lr=0.01)
    assert np.array_equal(a["w"], b["w"])


def test_sgd_step_updates_only_the_clients_that_take_it():
    values = {"w": np.array([[1.0, -0.0], [2.0, 3.0], [4.0, 5.0]]), "b": np.array([1.0, 2.0, 3.0])}
    grads = {"w": np.array([[0.5, 0.0], [1.0, 1.0], [1.0, 1.0]]), "b": np.array([1.0, 1.0, np.nan])}
    nn.sgd_step(values, grads, 0.5, np.array([True, False, False]))
    assert values["w"].tolist() == [[0.75, -0.0], [2.0, 3.0], [4.0, 5.0]]
    assert np.signbit(values["w"][0, 1])  # p - lr * (+0.0) keeps a -0.0 parameter
    assert values["b"].tolist() == [0.5, 2.0, 3.0]


# ---------------------------------------------------------------- gradient checking

def _linear_sq_loss(params, inputs):
    x, y = inputs
    pred = x @ params["w"] + params["b"]
    resid = pred - y
    loss = float(np.sum(resid * resid))
    return loss, {"w": 2.0 * x.T @ resid, "b": 2.0 * resid.sum(axis=0)}


def test_check_gradients_linear():
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    inputs = (rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
    err = nn.check_gradients(_linear_sq_loss, params, inputs, eps=1e-5)
    assert err < 1e-6


def _embed_softmax_loss(params, ids):
    rows = params["table"][ids]
    logits = rows.sum(axis=1)
    p = nn.softmax(logits)
    loss = float(np.sum(p * p))
    # d(sum p_i^2)/dlogits = J_softmax^T (2p) with J = diag(p) - p p^T
    dlogits = p * (2.0 * p - 2.0 * float(p @ p))
    upstream = np.tile(dlogits[:, None], (1, rows.shape[1]))
    return loss, {"table": nn.embedding_scatter(params["table"].shape, ids, upstream)}


def test_check_gradients_embedding_softmax():
    rng = np.random.default_rng(5)
    params = {"table": rng.normal(size=(6, 3))}
    ids = np.array([0, 2, 2, 5])
    err = nn.check_gradients(_embed_softmax_loss, params, ids, eps=1e-5)
    assert err < 1e-5


def test_check_gradients_constant_model_exact_zero():
    def const(params, _):
        return 4.0, {"w": np.zeros_like(params["w"])}

    err = nn.check_gradients(const, {"w": np.ones(3)}, None, eps=1e-5)
    assert err == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_check_gradients_many_seeds(seed):
    rng = np.random.default_rng(seed)
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    inputs = (rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
    assert nn.check_gradients(_linear_sq_loss, params, inputs, eps=1e-5) < 1e-4


# ---------------------------------------------------------------- params plumbing

def _random_params(seed):
    rng = np.random.default_rng(seed)
    return {
        "a": rng.normal(size=(3, 4)),
        "b": rng.normal(size=7),
        "c": rng.normal(size=(2, 2, 2)),
    }


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_flatten_unflatten_identity(seed):
    # the flat binary form and back is the identity, bit for bit
    params = _random_params(seed)
    back = nn.deserialize_params(nn.serialize_params(params))
    assert sorted(back) == sorted(params)
    for k in params:
        assert back[k].shape == params[k].shape
        assert np.array_equal(back[k], params[k])


def test_serialize_round_trip(tmp_path):
    params = _random_params(42)
    params["d"] = np.array(3.0)  # a 0-d tensor keeps its shape ()
    blob = nn.serialize_params(params)
    back = nn.deserialize_params(blob)
    for k in params:
        assert back[k].shape == params[k].shape
        assert np.array_equal(back[k], params[k])
    # file round trip is bit-identical too
    path = tmp_path / "params.bin"
    nn.save_params(params, path)
    again = nn.load_params(path)
    assert nn.serialize_params(again) == blob


def _copied_serialization(params):
    """The serialized bytes built by copying every tensor, as serialize_params
    did before it streamed them: the reference for digests and checkpoints."""
    chunks = [b"FTTE", struct.pack("<I", 1), struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        raw = name.encode("utf-8")
        chunks += [struct.pack("<I", len(raw)), raw, struct.pack("<I", arr.ndim), struct.pack(f"<{arr.ndim}I", *arr.shape)]
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


def test_digest_and_checkpoint_stream_the_serialized_bytes(tmp_path):
    # params_digest and save_params feed the serialized pieces one at a time;
    # the bytes must be serialize_params's, and those the copying reference's
    wide = np.arange(24.0).reshape(4, 6)
    params = {
        "zero_d": np.array(-0.0),
        "empty": np.zeros((0, 4)),
        "strided": wide[:, ::2],  # not C-contiguous
        "transposed": wide.T,
        "single": np.linspace(0, 1, 5, dtype=np.float32).reshape(5, 1),
        "big_endian": np.arange(3.0).astype(">f8"),
        "plain": wide,
        "ünï": np.array([np.nan, np.inf, -0.0]),
    }
    before = {k: (v.copy(), v.dtype, v.strides) for k, v in params.items()}
    blob = nn.serialize_params(params)
    assert blob == _copied_serialization(params)
    assert nn.params_digest(params) == hashlib.sha256(blob).hexdigest()[:16]
    nn.save_params(params, tmp_path / "p.bin")
    assert (tmp_path / "p.bin").read_bytes() == blob
    assert nn.params_digest({}) == hashlib.sha256(nn.serialize_params({})).hexdigest()[:16]
    # the inputs are left as they were
    for name, (copy, dtype, strides) in before.items():
        assert params[name].dtype == dtype and params[name].strides == strides and params[name].tobytes() == copy.tobytes()


def test_columns_read_and_write_the_selected_coordinates():
    a = np.arange(12.0).reshape(3, 4)
    cols = nn.Columns(np.array([[0, 2], [3, 3], [1, 0]]), 4)
    x = cols.read(a)
    assert x.tolist() == [[0.0, 2.0], [7.0, 7.0], [9.0, 8.0]]
    cols.write(a, -x)
    assert a.tolist() == [[-0.0, 1.0, -2.0, 3.0], [4.0, 5.0, 6.0, -7.0], [-8.0, -9.0, 10.0, 11.0]]
    assert nn.ALL_COLUMNS.read(a) is a
    with pytest.raises(ValueError):
        cols.read(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        cols.write(np.zeros((3, 8))[:, ::2], x)  # a write into a copy would be lost


def test_flat_stack_head_views_the_first_clients():
    shapes = {"b": (2,), "a": (3, 2)}
    stack = nn.FlatStack(shapes, 4)
    stack.buffer[...] = np.arange(32.0).reshape(4, 8)
    head = stack.head(2)
    assert head.start == {"a": 0, "b": 6} and head.buffer.shape == (2, 8)
    for name in shapes:
        assert head[name].shape == (2, *shapes[name]) and np.shares_memory(head[name], stack.buffer)
        assert head[name].tobytes() == stack[name][:2].tobytes()
    # a given buffer keeps its contents; the layout is computed once per shape set
    kept = nn.FlatStack(shapes, 4, stack.buffer)
    assert kept["b"].tolist() == stack["b"].tolist()
    assert nn._layout(tuple(sorted(shapes.items()))) is nn._layout(tuple(sorted({"a": (3, 2), "b": (2,)}.items())))


@pytest.mark.parametrize("n", [1, 3])
def test_flat_stack_positions_are_each_coordinates_flat_index(n):
    shapes = {"w": (2, 3), "s": (), "e": (0, 4), "b": (3,)}
    stack = nn.FlatStack(shapes, n)
    width = stack.buffer.shape[1]
    assert width == 10 and stack.start == {"b": 0, "e": 3, "s": 3, "w": 4}
    for name, shape in shapes.items():
        size = math.prod(shape)
        expected = [[c * width + stack.start[name] + k for k in range(size)] for c in range(n)]
        positions = stack.positions(name)
        assert positions.shape == (n, size) and positions.tolist() == expected
        # the positions read the named tensor's coordinates from the flat buffer
        stack[name][...] = np.arange(n * size).reshape(n, *shape) + 100.0 * (1 + sorted(shapes).index(name))
        assert stack.buffer.reshape(-1)[positions].tolist() == stack[name].reshape(n, -1).tolist()


def test_deserialize_rejects_every_truncation(tiny_world, tiny_cfg):
    blob = nn.serialize_params(model.init_base_params(tiny_world.network, tiny_cfg, seed=0).values)
    for size in range(len(blob)):
        with pytest.raises(ValueError):
            nn.deserialize_params(blob[:size])
    assert nn.serialize_params(nn.deserialize_params(blob)) == blob


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_deserialize_mutated_blob_raises_only_value_error(tiny_world, tiny_cfg, data):
    params = model.init_base_params(tiny_world.network, tiny_cfg, seed=0).values
    blob = bytearray(nn.serialize_params(params))
    # offsets of the header bytes (magic, version, count, and per tensor its
    # name length, name, rank and dims), where a mutation changes the structure
    header, pos = list(range(12)), 12
    for name in sorted(params):
        size = 4 + len(name.encode()) + 4 + 4 * params[name].ndim
        header.extend(range(pos, pos + size))
        pos += size + 8 * params[name].size
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.one_of(st.sampled_from(header), st.integers(0, len(blob) - 1)))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    try:
        nn.deserialize_params(bytes(blob[:cut]))
    except ValueError:
        pass


def test_digest_tracks_content():
    params = _random_params(1)
    d1 = nn.params_digest(params)
    assert d1 == nn.params_digest(nn.clone_params(params))
    params["a"][0, 0] += 1.0
    assert nn.params_digest(params) != d1


def test_congruent_and_mismatch():
    a = _random_params(0)
    b = _random_params(1)
    nn.assert_congruent(a, b)
    b["extra"] = np.zeros(1)
    with pytest.raises(ValueError):
        nn.assert_congruent(a, b)
    b = _random_params(1)
    b["a"] = np.zeros((4, 3))
    with pytest.raises(ValueError):
        nn.assert_congruent(a, b)


def test_init_uniform_range_and_determinism():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    t1 = nn.init_uniform((50, 8), rng1)
    t2 = nn.init_uniform((50, 8), rng2)
    assert np.array_equal(t1, t2)
    bound = 1.0 / math.sqrt(50)
    assert np.all(np.abs(t1) <= bound)


def test_stable_hash_and_spawn_rng_reproducible():
    assert nn.stable_hash("x", 1) == nn.stable_hash("x", 1)
    assert nn.stable_hash("x", 1) != nn.stable_hash("x", 2)
    a = nn.spawn_rng(0, "stream").normal(size=4)
    b = nn.spawn_rng(0, "stream").normal(size=4)
    assert np.array_equal(a, b)


def test_params_finite_flags_nan():
    # the gradient check refuses parameters that make the loss non-finite
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    inputs = (rng.normal(size=(4, 3)), rng.normal(size=(4, 2)))
    assert nn.check_gradients(_linear_sq_loss, params, inputs, eps=1e-5) < 1e-6
    params["b"][1] = np.nan
    with pytest.raises(FloatingPointError):
        nn.check_gradients(_linear_sq_loss, params, inputs, eps=1e-5)
