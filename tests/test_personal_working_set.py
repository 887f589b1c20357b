"""The personal step on working sets against the whole-table step it replaces.

model.personal_loss steps each client's working set: the p.region and
p.edge rows its profile reads and the dense tensors, in one flat (C, P)
buffer. These tests hold it to the whole-table arithmetic, byte for byte:
gradients, the _steps_ok verdict and the SGD update, with profiles that
repeat ids (the reserved padding id included) and with -0.0 parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import federated, model, nn

CFG = model.ModelConfig(personal_embed_dim=3, personal_dense_dim=3, profile_arity=3)
N_CELLS, N_EDGES = 4, 6  # padding ids: 4 for regions, 6 for edges


def _profile(regions, edges, start_h=9.5):
    return model.DriverProfile(
        break_start_h=start_h,
        break_end_h=11.0,
        top_regions=tuple(regions),
        top_edges=tuple(edges),
        avg_trip_distance_m=1500.0,
        trips_per_day=6.0,
    )


def _whole_table_loss(profiles, params, batch):
    """The personal loss on (C, ...) stacks of the whole tables, written out
    as the step was before working sets: the same forward ops, dense
    gradients as 0.0 + products, and the embedding gradients scattered into
    whole zero tables."""
    values = {k: np.stack([p.values[k] for p in params]) for k in params[0].values}
    batch = np.asarray(batch, dtype=np.float64)
    n = len(profiles)
    rows = {}
    for table, attr in (("p.region", "top_regions"), ("p.edge", "top_edges")):
        n_rows = values[table].shape[1]
        rows[table] = np.array([getattr(p, attr) for p in profiles]) + n_rows * np.arange(n)[:, None]
    x_dense = np.stack([(p.dense_features() - m.dense_mean) / m.dense_std for p, m in zip(profiles, params)])
    hidden = np.matmul(x_dense[:, None, :], values["p.dense.w"])[:, 0] + values["p.dense.b"]
    dim = values["p.region"].shape[-1]
    regions = values["p.region"].reshape(-1, dim)[rows["p.region"]]
    edges = values["p.edge"].reshape(-1, dim)[rows["p.edge"]]
    x_u = np.concatenate([regions.reshape(n, -1), edges.reshape(n, -1), hidden], axis=1)
    bias = np.matmul(x_u[:, None, :], values["p.head.w"])[:, 0, 0] + values["p.head.b"][:, 0]
    loss, d_bias = np.zeros(n), np.zeros(n)
    for j in range(batch.shape[1]):
        r = batch[:, j, 0] - batch[:, j, 1] - bias
        loss += r * r
        d_bias += -2.0 * r
    d_xu = d_bias[:, None] * values["p.head.w"][:, :, 0]
    block = rows["p.region"].shape[1] * dim
    d_hidden = d_xu[:, 2 * block :]
    grads = {
        "p.head.w": 0.0 + d_bias[:, None, None] * x_u[:, :, None],
        "p.head.b": 0.0 + d_bias[:, None],
        "p.dense.w": 0.0 + x_dense[:, :, None] * d_hidden[:, None, :],
        "p.dense.b": 0.0 + d_hidden,
    }
    for table, d_rows in (("p.region", d_xu[:, :block]), ("p.edge", d_xu[:, block : 2 * block])):
        shape = values[table].shape
        flat = nn.embedding_scatter((shape[0] * shape[1], shape[2]), rows[table].ravel(), d_rows.reshape(-1, dim))
        grads[table] = flat.reshape(shape)
    return values, loss, grads


def _assert_same_bytes(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes(), name


# profile ids drawn from a few values, so repeats are common, the padding id included
_regions = st.lists(st.integers(0, N_CELLS), min_size=3, max_size=3)
_edges = st.lists(st.integers(0, N_EDGES), min_size=3, max_size=3)
_client = st.fixed_dictionaries(
    {
        "regions": _regions,
        "edges": _edges,
        "seed": st.integers(0, 50),
        "start_h": st.sampled_from([6.0, 9.5, 14.0]),
        "negative_zero_rows": st.booleans(),
        "pairs": st.lists(st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0)), min_size=3, max_size=3),
        "has_pair": st.booleans(),
    }
)


def _clients(draw_clients):
    """Profiles and personal models of drawn clients. A client marked so has
    -0.0 in every table row its profile does not read, and in its first
    looked-up region row."""
    profiles, params = [], []
    for client in draw_clients:
        profile = _profile(client["regions"], client["edges"], client["start_h"])
        p = model.init_personal_params(N_CELLS, N_EDGES, CFG, seed=client["seed"])
        if client["negative_zero_rows"]:
            for table, ids in (("p.region", profile.top_regions), ("p.edge", profile.top_edges)):
                untouched = np.setdiff1d(np.arange(len(p.values[table])), ids)
                p.values[table][untouched] = -0.0
            p.values["p.region"][profile.top_regions[0]] = -0.0
        profiles.append(profile)
        params.append(p)
    return profiles, params


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_client, min_size=1, max_size=4),
    st.integers(1, 3),
    st.sampled_from([0.0, 1e-4, 3e-4, 1e-2]),
)
def test_working_set_step_matches_whole_tables(draw_clients, n_pairs, lr):
    profiles, params = _clients(draw_clients)
    # a client with no pair at the step has zero pairs and is masked out
    has_pair = np.array([client["has_pair"] for client in draw_clients])
    batch = np.array([client["pairs"][:n_pairs] for client in draw_clients]) * has_pair[:, None, None]
    stacked, whole_losses, whole_grads = _whole_table_loss(profiles, params, batch)
    ws = model.personal_working_set(profiles, params)
    losses, grads = model.personal_loss(ws, batch)
    # a distinct row's gradient is the same terms summed in the same order
    assert losses.tobytes() == whole_losses.tobytes()
    for c, p in enumerate(params):
        _assert_same_bytes(ws.unpack(grads, c, {k: np.zeros_like(x) for k, x in p.values.items()}), {k: g[c] for k, g in whole_grads.items()})
    # the step check decides alike, and the step leaves every untouched row,
    # -0.0 included, as the whole-table step does
    with np.errstate(over="ignore", invalid="ignore"):
        whole_take = has_pair & federated._steps_ok(whole_losses, whole_grads, lr)
        step = {"ws": grads}
        take = has_pair & federated._steps_ok(losses, step, lr)
        assert take.tolist() == whole_take.tolist()
        nn.sgd_step(stacked, whole_grads, lr, whole_take)
        nn.sgd_step({"ws": ws.values}, step, lr, take)
    for c, p in enumerate(params):
        _assert_same_bytes(ws.unpack(ws.values, c, nn.clone_params(p.values)), {k: v[c] for k, v in stacked.items()})


def test_untouched_negative_zero_rows_stay_negative_zero():
    profiles, params = _clients(
        [{"regions": [4, 4, 1], "edges": [6, 0, 6], "seed": 3, "start_h": 9.5, "negative_zero_rows": True}]
    )
    ws = model.personal_working_set(profiles, params)
    _, grads = model.personal_loss(ws, [[(150.0, 100.0)]])
    nn.sgd_step({"ws": ws.values}, {"ws": grads}, 1e-3, np.array([True]))
    after = ws.unpack(ws.values, 0, nn.clone_params(params[0].values))
    untouched = np.setdiff1d(np.arange(N_CELLS + 1), [4, 1])
    assert np.all(np.signbit(after["p.region"][untouched]))
    assert not np.array_equal(after["p.region"][[1, 4]], params[0].values["p.region"][[1, 4]])


# Gradients drawn value by value: NaN, infinities, signed zeros, both signs.
_grad_value = st.sampled_from([np.nan, np.inf, -np.inf, -1e4, -3.0, -1e-9, -0.0, 0.0, 1e-9, 3.0, 1e4])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_regions, _edges), min_size=1, max_size=4),
    st.data(),
    st.sampled_from([0.0, 1e-4, 3e-4, 1.0]),
    st.booleans(),
)
def test_steps_ok_verdict_matches_whole_tables(ids, data, lr, all_negative):
    """lr * max|g| over the working set decides as the per-tensor checks over
    the whole tables, whose other entries are +0.0: with NaN, infinities,
    all-negative gradients and clients that have no pair at the step."""
    profiles = [_profile(regions, edges) for regions, edges in ids]
    n = len(profiles)
    whole = {}
    for name, v in model.init_personal_params(N_CELLS, N_EDGES, CFG, seed=0).values.items():
        whole[name] = np.zeros((n, *v.shape))
    for c, profile in enumerate(profiles):
        for name, g in whole.items():
            rows = {"p.region": profile.top_regions, "p.edge": profile.top_edges}.get(name)
            target = g[c][list(rows)] if rows is not None else g[c]
            drawn = np.array(data.draw(st.lists(_grad_value, min_size=target.size, max_size=target.size)))
            if all_negative:
                drawn = -np.abs(drawn) - 1e-12
            if rows is not None:
                g[c][list(rows)] = drawn.reshape(target.shape)
            else:
                g[c][...] = drawn.reshape(target.shape)
    losses = np.array(data.draw(st.lists(st.sampled_from([0.5, np.nan, np.inf]), min_size=n, max_size=n)))
    has_pair = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    # the working set of the gradient tables is laid out as personal_loss's gradients
    as_params = [
        model.PersonalModelParams(cfg=CFG, values={k: g[c] for k, g in whole.items()}, dense_mean=np.zeros(4), dense_std=np.ones(4))
        for c in range(n)
    ]
    buffer = model.personal_working_set(profiles, as_params).values
    with np.errstate(invalid="ignore"):
        expected = has_pair & federated._steps_ok(losses, whole, lr)
        assert (has_pair & federated._steps_ok(losses, {"ws": buffer}, lr)).tolist() == expected.tolist()


@pytest.mark.parametrize("n_clients", [1, 3])
def test_personal_loss_working_set_finite_difference(n_clients):
    # gradients of the flat buffer itself, padding slots included (those read 0)
    ids = [((4, 4, 0), (6, 1, 1)), ((1, 2, 3), (0, 6, 6)), ((4, 4, 4), (6, 6, 6))][:n_clients]
    profiles = [_profile(regions, edges, start_h) for (regions, edges), start_h in zip(ids, (6.0, 9.5, 14.0))]
    params = [model.init_personal_params(N_CELLS, N_EDGES, CFG, seed=s) for s in range(n_clients)]
    ws = model.personal_working_set(profiles, params)
    batch = [[(110.0, 100.0), (95.0, 100.0)], [(80.0, 60.0), (61.0, 60.0)], [(200.0, 150.0), (140.0, 150.0)]][:n_clients]

    def fn(values, _):
        # check_gradients perturbs ws.values in place
        losses, grads = model.personal_loss(ws, batch)
        return float(losses.sum()), {"ws": grads}

    assert nn.check_gradients(fn, {"ws": ws.values}, None, eps=1e-5) < 1e-4


def test_working_set_holds_distinct_rows_padded_to_the_widest_client():
    profiles = [_profile((4, 4, 0), (6, 6, 6)), _profile((1, 2, 3), (0, 6, 5))]
    params = [model.init_personal_params(N_CELLS, N_EDGES, CFG, seed=s) for s in range(2)]
    ws = model.personal_working_set(profiles, params)
    assert [r.tolist() for r in ws.rows["p.region"]] == [[0, 4], [1, 2, 3]]
    assert [r.tolist() for r in ws.rows["p.edge"]] == [[6], [0, 5, 6]]
    assert ws.views["p.region"].shape == (2, 3, CFG.personal_embed_dim)
    assert ws.views["p.edge"].shape == (2, 3, CFG.personal_embed_dim)
    # padding slots are +0.0
    assert ws.views["p.region"][0, 2].tobytes() == np.zeros(CFG.personal_embed_dim).tobytes()
    assert np.array_equal(ws.views["p.region"][1], params[1].values["p.region"][[1, 2, 3]])
    for c, p in enumerate(params):
        _assert_same_bytes(ws.unpack(ws.values, c, nn.clone_params(p.values)), p.values)
