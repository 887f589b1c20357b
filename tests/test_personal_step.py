"""The prebuilt personal step against the formula it replaces.

model.personal_loss runs on index arrays and buffers that each working set
builds once (PersonalWorkingSet.step). These tests hold it to the formula it
replaced, written out below: the forward's concatenate, the weights'
concatenate and one np.bincount. Losses, gradients and the _steps_ok verdict
must match byte for byte, and what the buffers held before a call must not
reach its result.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import federated, model, nn

CFG = model.ModelConfig(personal_embed_dim=3, personal_dense_dim=3, profile_arity=3)
N_CELLS, N_EDGES = 4, 6  # padding ids: 4 for regions, 6 for edges


def _reference_personal_loss(ws, batch):
    """Biases, losses and gradients of the working set as the step computed
    them before it was prebuilt."""
    n, width = ws.values.shape
    hidden = np.matmul(ws.x_dense[:, None, :], ws.views["p.dense.w"])[:, 0] + ws.views["p.dense.b"]
    x_u = np.concatenate([ws.values.take(ws.gather), hidden], axis=1)
    bias = np.matmul(x_u[:, None, :], ws.views["p.head.w"])[:, 0, 0] + ws.views["p.head.b"][:, 0]
    batch = np.asarray(batch, dtype=np.float64)
    loss, d_bias = np.zeros(n), np.zeros(n)
    for j in range(batch.shape[1]):
        r = batch[:, j, 0] - batch[:, j, 1] - bias
        loss += r * r
        d_bias += -2.0 * r
    d_xu = d_bias[:, None] * ws.views["p.head.w"][:, :, 0]
    block = ws.gather.shape[1]
    d_hidden = d_xu[:, block:]
    weights = np.concatenate(
        [
            d_xu[:, :block],
            d_bias[:, None] * x_u,
            d_bias[:, None],
            (ws.x_dense[:, :, None] * d_hidden[:, None, :]).reshape(n, -1),
            d_hidden,
        ],
        axis=1,
    )
    dense = []
    for name in ("p.head.w", "p.head.b", "p.dense.w", "p.dense.b"):
        start, shape = ws.layout[name]
        dense.append(start + np.arange(math.prod(shape)))
    scatter = np.concatenate([ws.gather, np.concatenate(dense) + width * np.arange(n)[:, None]], axis=1).ravel()
    grads = np.bincount(scatter, weights=weights.ravel(), minlength=ws.values.size)
    return bias, loss, grads.reshape(ws.values.shape)


def _reference_steps_ok(losses, grads, lr):
    """The step check as it read the personal gradients before: max |g| from
    a max and a min."""
    return np.isfinite(losses) & (lr * np.maximum(grads.max(axis=1), -grads.min(axis=1)) <= federated._MAX_STEP)


def _profile(regions, edges, start_h=9.5):
    return model.DriverProfile(
        break_start_h=start_h,
        break_end_h=11.0,
        top_regions=tuple(regions),
        top_edges=tuple(edges),
        avg_trip_distance_m=1500.0,
        trips_per_day=6.0,
    )


# profile ids drawn from a few values, so repeats are common, the padding id included
_client = st.fixed_dictionaries(
    {
        "regions": st.lists(st.integers(0, N_CELLS), min_size=3, max_size=3),
        "edges": st.lists(st.integers(0, N_EDGES), min_size=3, max_size=3),
        "seed": st.integers(0, 50),
        "start_h": st.sampled_from([6.0, 9.5, 14.0]),
        "negative_zero": st.booleans(),
    }
)
_pair_value = st.sampled_from([0.0, -0.0, 1.5, 120.0, 480.0, 1e300, -1e300, np.inf, -np.inf, np.nan])


def _clients(drawn):
    """Profiles and personal models of drawn clients. A client marked so has
    -0.0 in its first looked-up region and edge rows, in every other head
    weight and in the head bias."""
    profiles, params = [], []
    for client in drawn:
        profile = _profile(client["regions"], client["edges"], client["start_h"])
        p = model.init_personal_params(N_CELLS, N_EDGES, CFG, seed=client["seed"])
        if client["negative_zero"]:
            p.values["p.region"][profile.top_regions[0]] = -0.0
            p.values["p.edge"][profile.top_edges[0]] = -0.0
            p.values["p.head.w"][::2] = -0.0
            p.values["p.head.b"][...] = -0.0
        profiles.append(profile)
        params.append(p)
    return profiles, params


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 4, 10]), st.sampled_from([1, 3]), st.sampled_from([0.0, 3e-4, 1.0]), st.data())
def test_prebuilt_step_matches_the_concatenate_and_bincount_step(n_clients, n_pairs, lr, data):
    drawn = data.draw(st.lists(_client, min_size=n_clients, max_size=n_clients))
    profiles, params = _clients(drawn)
    batch = np.array(data.draw(st.lists(_pair_value, min_size=n_clients * n_pairs * 2, max_size=n_clients * n_pairs * 2)))
    batch = batch.reshape(n_clients, n_pairs, 2)
    ws = model.personal_working_set(profiles, params)
    with np.errstate(over="ignore", invalid="ignore"):
        bias, want_losses, want_grads = _reference_personal_loss(ws, batch)
        losses, grads = model.personal_loss(ws, batch)
        assert losses.tobytes() == want_losses.tobytes()
        assert grads.shape == want_grads.shape and grads.tobytes() == want_grads.tobytes()
        step = {"ws": grads}
        assert federated._steps_ok(losses, step, lr).tolist() == _reference_steps_ok(want_losses, want_grads, lr).tolist()
        # the check reads the gradients without writing them
        assert grads.tobytes() == want_grads.tobytes()
        # a single driver's bias is the same forward at C = 1
        assert np.float64(model.personal_bias(profiles[0], params[0])).tobytes() == bias[0].tobytes()


def test_prebuilt_step_keeps_the_nans_of_the_reference():
    # a client whose pairs give a NaN, a finite and an opposite-signed NaN
    # residual: where both terms of a sum are NaN, NumPy's contiguous and
    # strided loops may keep different ones, so d_bias is summed contiguously
    drawn = [{"regions": [0, 0, 0], "edges": [0, 0, 0], "seed": 0, "start_h": 6.0, "negative_zero": False}] * 10
    profiles, params = _clients(drawn)
    batch = np.full((10, 3, 2), 1.5)
    batch[9] = [(np.nan, 1.5), (1e300, 1.5), (-np.inf, -np.inf)]
    ws = model.personal_working_set(profiles, params)
    with np.errstate(over="ignore", invalid="ignore"):
        _, want_losses, want_grads = _reference_personal_loss(ws, batch)
        losses, grads = model.personal_loss(ws, batch)
    assert losses.tobytes() == want_losses.tobytes()
    assert grads.tobytes() == want_grads.tobytes()


def _step_buffers(ws):
    """The arrays of ws.step that personal_loss writes: those that are no
    view of the working values or of the dense features."""
    arrays = [getattr(ws.step, f.name) for f in dataclasses.fields(ws.step)]
    return [
        a for a in arrays
        if a.dtype == np.float64 and not np.may_share_memory(a, ws.values) and not np.may_share_memory(a, ws.x_dense)
    ]


def test_personal_loss_ignores_what_its_prebuilt_buffers_held():
    profiles, params = _clients(
        [
            {"regions": [4, 4, 1], "edges": [6, 0, 6], "seed": 3, "start_h": 9.5, "negative_zero": True},
            {"regions": [0, 1, 2], "edges": [1, 2, 3], "seed": 4, "start_h": 6.0, "negative_zero": False},
        ]
    )
    ws = model.personal_working_set(profiles, params)
    for batch in ([[(150.0, 100.0)], [(90.0, 100.0)]], [[(150.0, 100.0), (0.0, 0.0)], [(90.0, 100.0), (80.0, 60.0)]]):
        losses, grads = model.personal_loss(ws, batch)
        buffers = _step_buffers(ws)
        assert len(buffers) >= 5  # inputs, hidden, head_out, bias and weights, with their views
        for buffer in buffers:
            buffer[...] = np.nan
        again, again_grads = model.personal_loss(ws, batch)
        assert again.tobytes() == losses.tobytes() and again_grads.tobytes() == grads.tobytes()
        # and a call on another batch in between leaves no trace either
        with np.errstate(over="ignore", invalid="ignore"):
            model.personal_loss(ws, [[(1e300, -1e300)], [(np.nan, np.inf)]])
        third, third_grads = model.personal_loss(ws, batch)
        assert third.tobytes() == losses.tobytes() and third_grads.tobytes() == grads.tobytes()


def test_two_working_sets_never_share_a_buffer():
    profiles = [_profile((4, 4, 0), (6, 1, 1)), _profile((1, 2, 3), (0, 6, 6))]
    params = [model.init_personal_params(N_CELLS, N_EDGES, CFG, seed=s) for s in range(2)]
    first = model.personal_working_set(profiles, params)
    second = model.personal_working_set(profiles, params)
    model.personal_loss(first, [[(150.0, 100.0)], [(90.0, 100.0)]])
    model.personal_loss(second, [[(150.0, 100.0)], [(90.0, 100.0)]])
    assert first.step is first.step  # built once per working set
    mine = [getattr(first.step, f.name) for f in dataclasses.fields(first.step)]
    theirs = [getattr(second.step, f.name) for f in dataclasses.fields(second.step)]
    for a in mine:
        for b in theirs:
            assert not np.may_share_memory(a, b)


@pytest.mark.parametrize("lr", [0.0, 1e-3, 1.0])
def test_steps_ok_decides_alike_on_a_small_and_a_large_read(lr):
    # _steps_ok takes max |g| from an |g| copy of a small read and from a max
    # and a min of a large one; both give the same verdict, on a whole tensor
    # and on a copy of its columns, and leave the gradients as they were
    rng = np.random.default_rng(5)
    small = rng.normal(scale=2.0, size=(6, 40))
    small[1, 3], small[2, 7], small[3, 0], small[4, :] = np.nan, np.inf, -np.inf, -0.0
    small[5, 11] = -5.0
    losses = np.array([0.5, 0.5, 0.5, 0.5, 0.5, np.nan])
    # the large tensor is the small one with +0.0 columns after it, which
    # cannot raise a maximum of |g|
    large = np.zeros((6, federated._SMALL_READ))
    large[:, : small.shape[1]] = small
    with np.errstate(invalid="ignore"):
        want = _reference_steps_ok(losses, small, lr)
        for grads in (small, large):
            every_column = nn.Columns(np.broadcast_to(np.arange(grads.shape[1]), grads.shape), grads.shape[1])
            for cols in (nn.ALL_COLUMNS, every_column):
                before = grads.tobytes()
                assert federated._steps_ok(losses, {"g": grads}, lr, cols).tolist() == want.tolist()
                assert grads.tobytes() == before
