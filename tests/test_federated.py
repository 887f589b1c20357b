"""Federated-loop tests: schedule, selection, client update, aggregation,
round execution, personal fine-tuning, reproducibility."""

import math
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import data, federated, model, nn, privacy
from fedtte.data import TrajectoryRecord
from fedtte.federated import (
    AggregationSchedule,
    ClientState,
    FederatedConfig,
    aggregate,
    build_clients,
    client_update,
    day_instants,
    default_schedule,
    init_server,
    run_round,
    select_clients,
)

from conftest import base_loss_one, fine_tune_personal, localized_pairs


# ---------------------------------------------------------------- schedule

def test_default_schedule_bands():
    sched = default_schedule()
    assert sched.bands == (
        (23.0, 7.0, 4.0),
        (7.0, 9.0, 0.5),
        (9.0, 17.0, 2.0),
        (17.0, 19.0, 0.5),
        (19.0, 23.0, 2.0),
    )


def test_default_schedule_sixteen_instants():
    instants = default_schedule().instants()
    assert len(instants) == 16
    assert instants == sorted(instants)


def test_default_schedule_rush_half_hours():
    instants = default_schedule().instants()
    in_rush = [h for h in instants if 7.0 <= h < 9.0]
    assert in_rush == [7.0, 7.5, 8.0, 8.5]


def test_single_band_schedule_one_round_per_day():
    sched = AggregationSchedule(bands=((0.0, 0.0, 24.0),))
    assert sched.instants() == [0.0]
    # a day is one window spanning the entire previous day: classic FedAvg
    instants = day_instants(sched, day=1, prev_end=datetime(2024, 1, 1, 0, 0))
    assert len(instants) == 1
    assert instants[0].start == datetime(2024, 1, 1, 0, 0)
    assert instants[0].end == datetime(2024, 1, 2, 0, 0)


def test_schedule_rejects_gap_and_nondividing_delta():
    with pytest.raises(ValueError):
        AggregationSchedule(bands=((0.0, 12.0, 1.0),))  # covers half the day
    with pytest.raises(ValueError):
        AggregationSchedule(bands=((0.0, 0.0, 7.0),))  # 7 does not divide 24


def test_day_instants_chain_windows():
    instants = day_instants(default_schedule(), day=0)
    assert instants[0].start == datetime(2024, 1, 1, 0, 0)
    assert instants[0].end == datetime(2024, 1, 1, 3, 0)
    for prev, cur in zip(instants, instants[1:]):
        assert cur.start == prev.end
    # chaining across days: day 1's 03:00 instant covers day 0's 23:00 tail
    next_day = day_instants(default_schedule(), day=1, prev_end=instants[-1].end)
    assert next_day[0].start == datetime(2024, 1, 1, 23, 0)
    assert next_day[0].end == datetime(2024, 1, 2, 3, 0)


def test_band_label():
    band_at = {instant.hour: instant.band for instant in day_instants(default_schedule(), 0)}
    assert band_at[7.5] == "07:00-09:00"
    assert band_at[3.0] == "23:00-07:00"


def test_time_labels_of_a_sub_minute_schedule_are_distinct():
    # one instant every 30 s: rounding to minutes gave 07:59:30 the label
    # "07:60" and 07:00:30 the label of 07:00
    sched = AggregationSchedule(bands=((0.0, 24.0, 1 / 120),))
    labels = [instant.label for instant in day_instants(sched, 0)]
    assert len(labels) == 2880 == len(set(labels))
    assert labels[:3] == ["00:00", "00:00:30", "00:01"] and labels[959] == "07:59:30"
    # whole minutes keep their HH:MM labels
    assert [i.label for i in day_instants(default_schedule(), 0)][:3] == ["03:00", "07:00", "07:30"]
    assert day_instants(AggregationSchedule(bands=((7.5, 7.5, 24.0),)), 0)[0].band == "07:30-07:30"
    assert day_instants(AggregationSchedule(bands=((0.0, 24.0, 1 / 3600),)), 0)[-1].band == "00:00-00:00"


def test_schedule_band_of_every_instant_matches_a_walk_over_the_bands():
    sched = AggregationSchedule(bands=((22.0, 6.0, 0.25), (6.0, 10.0, 1 / 60), (10.0, 22.0, 3.0)))
    walked = {}
    for start, end, delta in sched.bands:
        length = (end - start) % 24 or 24.0
        for i in range(int(round(length / delta))):
            walked.setdefault(round((start + i * delta) % 24, 9), federated._fmt_hour(start) + "-" + federated._fmt_hour(end))
    assert sched.instants() == sorted(walked)
    assert [instant.band for instant in day_instants(sched, 0)] == [walked[h] for h in sorted(walked)]


# ---------------------------------------------------------------- config

def test_federated_config_validation():
    with pytest.raises(ValueError):
        FederatedConfig(clients_per_round=0)
    with pytest.raises(ValueError):
        FederatedConfig(local_epochs=0)
    with pytest.raises(ValueError):
        FederatedConfig(base_lr=-1e-6)
    with pytest.raises(ValueError):
        FederatedConfig(dp_epsilon=0.0)
    FederatedConfig(base_lr=0.0)  # lr = 0 is legal: freeze-the-model replay


# ---------------------------------------------------------------- selection

def test_select_entire_pool(tiny_world):
    pool = build_clients(tiny_world)
    rng = nn.spawn_rng(0, "sel")
    chosen = select_clients(pool, len(pool), rng)
    assert chosen == sorted(c.client_id for c in pool)


def test_select_deterministic_under_seed(tiny_world):
    pool = build_clients(tiny_world)
    a = select_clients(pool, 2, nn.spawn_rng(5, "sel"))
    b = select_clients(pool, 2, nn.spawn_rng(5, "sel"))
    assert a == b


def test_select_rejects_oversized_m(tiny_world):
    pool = build_clients(tiny_world)
    with pytest.raises(ValueError):
        select_clients(pool, len(pool) + 1, nn.spawn_rng(0, "sel"))


def test_select_inclusion_frequency_hypergeometric():
    spec = data.WorldSpec(grid_rows=2, grid_cols=2, n_drivers=10, trips_per_day=1, seed=2)
    pool = build_clients(data.generate_world(spec))
    counts = {c.client_id: 0 for c in pool}
    draws = 10_000
    for i in range(draws):
        for cid in select_clients(pool, 3, nn.spawn_rng(i, "freq")):
            counts[cid] += 1
    for cid, n in counts.items():
        assert abs(n / draws - 0.3) <= 0.02, cid


# ---------------------------------------------------------------- client_update

def _one_client_world():
    spec = data.WorldSpec(
        grid_rows=2, grid_cols=2, n_drivers=1, trips_per_day=4,
        congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, time_slots=4, seed=3,
    )
    return data.generate_world(spec)


def _full_day():
    return datetime(2024, 1, 1, 0, 0), datetime(2024, 1, 2, 0, 0)


def test_client_update_lr_zero_no_noise_returns_global(tiny_cfg):
    world = _one_client_world()
    client = build_clients(world)[0]
    global_params = model.init_base_params(world.network, tiny_cfg, seed=0)
    cfg = FederatedConfig(clients_per_round=1, local_epochs=3, base_lr=0.0, dp_epsilon=math.inf)
    [(upload, n_m)] = client_update([client], global_params, cfg, _full_day())
    assert n_m == len(client.trajectories)
    for name in global_params.values:
        assert np.array_equal(upload[name], global_params.values[name])


def test_client_update_single_trajectory_matches_hand_step(tiny_cfg):
    world = _one_client_world()
    client = build_clients(world)[0]
    client.trajectories = client.trajectories[:1]
    global_params = model.init_base_params(world.network, tiny_cfg, seed=1)
    lr = 1e-6
    cfg = FederatedConfig(clients_per_round=1, local_epochs=1, base_lr=lr, dp_epsilon=math.inf)
    [(upload, n_m)] = client_update([client], global_params, cfg, _full_day())
    assert n_m == 1

    rec = client.trajectories[0]
    _, grads = base_loss_one(world.network, global_params, rec.route, rec.y)
    expected = {k: v - lr * grads[k] for k, v in global_params.values.items()}
    for name in expected:
        assert np.array_equal(upload[name], expected[name]), name


def test_client_update_empty_window_rejected(tiny_cfg):
    world = _one_client_world()
    client = build_clients(world)[0]
    global_params = model.init_base_params(world.network, tiny_cfg, seed=0)
    cfg = FederatedConfig()
    empty = (datetime(2030, 1, 1), datetime(2030, 1, 2))
    with pytest.raises(ValueError):
        client_update([client], global_params, cfg, empty)


def test_client_update_stores_localized_copy(tiny_cfg):
    world = _one_client_world()
    client = build_clients(world)[0]
    global_params = model.init_base_params(world.network, tiny_cfg, seed=0)
    cfg = FederatedConfig(local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf)
    [(upload, _)] = client_update([client], global_params, cfg, _full_day())
    assert client.localized_global is not None
    for name in upload:
        assert np.array_equal(client.localized_global.values[name], upload[name])
    # the client trained a private copy; the global set is untouched
    fresh = model.init_base_params(world.network, tiny_cfg, seed=0)
    for name in fresh.values:
        assert np.array_equal(global_params.values[name], fresh.values[name])


# ---------------------------------------------------------------- aggregate

def test_aggregate_identical_uploads_fixed_point():
    p = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
    out = aggregate([(3, nn.clone_params(p)), (5, nn.clone_params(p))])
    for name in p:
        assert np.array_equal(out[name], p[name])


def test_aggregate_weighted_mean_scalars():
    out = aggregate([(1, {"x": np.array([0.0])}), (3, {"x": np.array([4.0])})])
    assert out["x"][0] == 3.0


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(0)
    uploads = [(int(n), {"w": rng.normal(size=4)}) for n in rng.integers(1, 9, size=5)]
    fwd = aggregate(uploads)
    rev = aggregate(list(reversed(uploads)))
    assert np.allclose(fwd["w"], rev["w"], atol=1e-15)


def test_aggregate_rejects_empty_and_zero_weight():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([(0, {"w": np.zeros(1)})])


def test_aggregate_rejects_incongruent_sets():
    with pytest.raises(ValueError):
        aggregate([(1, {"w": np.zeros(2)}), (1, {"w": np.zeros(3)})])


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10_000))
def test_aggregate_convex_combination(seed):
    rng = np.random.default_rng(seed)
    uploads = [(int(rng.integers(1, 7)), {"w": rng.normal(size=5)}) for _ in range(4)]
    out = aggregate(uploads)["w"]
    stack = np.stack([u["w"] for _, u in uploads])
    assert np.all(out >= stack.min(axis=0) - 1e-12)
    assert np.all(out <= stack.max(axis=0) + 1e-12)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_aggregate_duplicate_splitting_invariant(seed, k):
    rng = np.random.default_rng(seed)
    other = (3, {"w": rng.normal(size=4)})
    merged = (k, {"w": rng.normal(size=4)})
    split = [(1, nn.clone_params(merged[1])) for _ in range(k)]
    whole = aggregate([other, merged])
    parts = aggregate([other, *split])
    assert np.allclose(whole["w"], parts["w"], atol=1e-12)


# ---------------------------------------------------------------- run_round

def _server_and_pool(world, fed_cfg, model_cfg, schedule=None):
    server = init_server(world.network, model_cfg, fed_cfg, schedule=schedule)
    return server, build_clients(world)


def _whole_day_instant():
    """Single instant whose window spans all of day 0."""
    sched = AggregationSchedule(bands=((0.0, 0.0, 24.0),))
    return sched, day_instants(sched, day=1, prev_end=datetime(2024, 1, 1, 0, 0))[0]


def test_run_round_single_client_pool_adopts_upload(tiny_cfg):
    world = _one_client_world()
    cfg = FederatedConfig(clients_per_round=1, local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf)
    sched, instant = _whole_day_instant()
    server, pool = _server_and_pool(world, cfg, tiny_cfg, schedule=sched)
    record, new_global, state = run_round(server, pool, instant, cfg)
    assert not record.skipped
    assert record.selected == (pool[0].client_id,)
    for name in new_global.values:
        assert np.array_equal(new_global.values[name], pool[0].localized_global.values[name])
    assert state is not None


def test_run_round_zero_eligible_is_skipped_and_recorded(tiny_cfg):
    world = _one_client_world()
    cfg = FederatedConfig(clients_per_round=1)
    server, pool = _server_and_pool(world, cfg, tiny_cfg)
    for c in pool:
        c.trajectories = []
    instant = day_instants(server.schedule, day=0)[0]
    before = nn.params_digest(server.global_params.values)
    record, new_global, state = run_round(server, pool, instant, cfg)
    assert record.skipped
    assert record.selected == ()
    assert record.n_total == 0
    assert nn.params_digest(new_global.values) == before


def test_run_round_identical_clients_equal_centralized_sgd(tiny_cfg):
    # noise off, both clients hold the same data: the weighted average of two
    # identical updates is that update, i.e. centralized SGD on the shared data
    world = _one_client_world()
    cfg = FederatedConfig(clients_per_round=2, local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf)
    sched, instant = _whole_day_instant()
    server, pool = _server_and_pool(world, cfg, tiny_cfg, schedule=sched)
    base = pool[0]
    twin = ClientState(
        client_id="d_twin",
        network=base.network,
        trajectories=[replace(t, driver_id="d_twin") for t in base.trajectories],
    )
    record, new_global, _ = run_round(server, [base, twin], instant, cfg)
    assert not record.skipped
    assert len(record.selected) == 2

    central = init_server(world.network, tiny_cfg, cfg)
    batch = sorted(
        ((t.route, t.y) for t in base.trajectories if t.departure < instant.end),
        key=lambda ry: (ry[0].departure_time, ry[1]),
    )
    values = central.global_params.values
    for route, y in batch:
        _, grads = base_loss_one(world.network, central.global_params.with_values(values), route, y)
        values = {k: v - cfg.base_lr * grads[k] for k, v in values.items()}
    for name in values:
        assert np.allclose(new_global.values[name], values[name], atol=1e-12), name


def test_run_round_serves_from_latest_state(tiny_cfg):
    world = _one_client_world()
    cfg = FederatedConfig(clients_per_round=1, local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf)
    server, pool = _server_and_pool(world, cfg, tiny_cfg)
    instant = next(i for i in day_instants(server.schedule, day=0) if i.hour == 7.5)
    assert server.latest_state is None  # nothing aggregated yet
    record, _, state = run_round(server, pool, instant, cfg)
    # queries between 07:30 and 08:00 are answered from the 07:30 aggregate
    if not record.skipped:
        assert server.latest_state is state
        route = pool[0].trajectories[0].route
        served = model.predict_route(server.latest_state, route, strict=False)
        assert served == model.predict_route(state, route, strict=False)
        assert state.slot == model.slot_of_time(instant.end, tiny_cfg.time_slots)


def test_run_round_excluded_client_has_no_influence(tiny_cfg):
    spec = data.WorldSpec(
        grid_rows=2, grid_cols=2, n_drivers=6, trips_per_day=4,
        congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, time_slots=4, seed=13,
    )
    world = data.generate_world(spec)
    cfg = FederatedConfig(clients_per_round=3, local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf)
    sched, instant = _whole_day_instant()
    server, pool = _server_and_pool(world, cfg, tiny_cfg, schedule=sched)
    record, _, _ = run_round(server, pool, instant, cfg)
    bystanders = [c.client_id for c in pool if c.client_id not in record.selected]
    assert bystanders, "need a non-selected client for this test"

    server2, pool2 = _server_and_pool(world, cfg, tiny_cfg, schedule=sched)
    trimmed = [c for c in pool2 if c.client_id != bystanders[0]]
    record2, _, _ = run_round(server2, trimmed, instant, cfg)
    assert record2 == record


def test_round_record_n_total_is_sum_of_client_counts(tiny_world, tiny_cfg):
    cfg = FederatedConfig(clients_per_round=3, local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf)
    sched, instant = _whole_day_instant()
    server, pool = _server_and_pool(tiny_world, cfg, tiny_cfg, schedule=sched)
    record, _, _ = run_round(server, pool, instant, cfg)
    assert not record.skipped
    assert record.n_total == sum(n for _, n, _ in record.clients)
    assert len(record.clients) == len(record.selected)


def test_full_day_bit_reproducible(tiny_world, tiny_cfg):
    def run_day():
        cfg = FederatedConfig(clients_per_round=3, local_epochs=1, base_lr=1e-6, dp_epsilon=math.inf, seed=4)
        server, pool = _server_and_pool(tiny_world, cfg, tiny_cfg)
        records = []
        for instant in day_instants(server.schedule, day=0):
            record, _, _ = run_round(server, pool, instant, cfg)
            records.append(record)
        return records, nn.params_digest(server.global_params.values)

    records1, digest1 = run_day()
    records2, digest2 = run_day()
    assert digest1 == digest2
    assert records1 == records2


# ---------------------------------------------------------------- fine_tune_personal

def _prepared_client(world, tiny_cfg, residual=0.0, seed=0):
    client = build_clients(world)[0]
    client.localized_global = model.init_base_params(world.network, tiny_cfg, seed=seed)
    states = {}
    shifted = []
    for t in client.trajectories:
        slot = model.slot_of_time(t.departure, tiny_cfg.time_slots)
        if slot not in states:
            states[slot] = model.traffic_state(world.network, client.localized_global, [slot])[slot]
        y_hat = model.predict_route(states[slot], t.route)
        shifted.append(replace(t, y=y_hat + residual))
    client.trajectories = shifted
    grid = world.grid
    client.profile = data.extract_profile(client.trajectories, grid, world.network, arity=tiny_cfg.profile_arity)
    client.personal = model.init_personal_params(grid.n_cells, world.network.n_edges, tiny_cfg, seed=seed)
    for name in client.personal.values:
        client.personal.values[name] = np.zeros_like(client.personal.values[name])
    return client


def test_fine_tune_zero_residuals_leaves_parameters(tiny_cfg):
    world = _one_client_world()
    client = _prepared_client(world, tiny_cfg, residual=0.0)
    cfg = FederatedConfig(personal_epochs=50, personal_lr=1e-3)
    before = nn.clone_params(client.personal.values)
    fine_tune_personal([client], cfg)
    for name in before:
        assert np.array_equal(client.personal.values[name], before[name]), name


def test_fine_tune_constant_residual_learns_bias(tiny_cfg):
    # all-zero init keeps every input coordinate at 0, so only the head bias
    # moves: a pure constant fit that must converge to the +10 s residual
    world = _one_client_world()
    client = _prepared_client(world, tiny_cfg, residual=10.0)
    cfg = FederatedConfig(personal_epochs=2000, personal_lr=3e-4)
    fine_tune_personal([client], cfg)
    assert client.personal.values["p.head.b"][0] == pytest.approx(10.0, abs=0.1)
    assert model.personal_bias(client.profile, client.personal) == pytest.approx(10.0, abs=0.1)


def test_fine_tune_never_touches_localized_global(tiny_cfg):
    world = _one_client_world()
    client = _prepared_client(world, tiny_cfg, residual=5.0)
    cfg = FederatedConfig(personal_epochs=20, personal_lr=1e-4)
    digest = nn.params_digest(client.localized_global.values)
    fine_tune_personal([client], cfg)
    assert nn.params_digest(client.localized_global.values) == digest


@pytest.mark.parametrize("where", ["traffic_state", "personal_loss"])
def test_fine_tune_cannot_write_the_frozen_model(tiny_cfg, monkeypatch, where):
    # a stray write into the localized global model, from the forward that
    # reads it (base_predictions) or from the personal step, fails where it is made
    world = _one_client_world()
    client = _prepared_client(world, tiny_cfg, residual=5.0)
    frozen = client.localized_global.values
    digest = nn.params_digest(frozen)
    real = getattr(federated, where)

    def writing(*args, **kwargs):
        frozen["head_e.b"][0] += 1.0
        return real(*args, **kwargs)

    monkeypatch.setattr(federated, where, writing)
    with pytest.raises(ValueError, match="read-only"):
        fine_tune_personal([client], FederatedConfig(personal_epochs=2, personal_lr=1e-4))
    assert nn.params_digest(frozen) == digest
    # the model is writable again once fine-tuning has returned
    assert all(v.flags.writeable for v in frozen.values())


def test_fine_tune_ignores_localized_global(tiny_world, tiny_cfg):
    # the personal phase steps the given pairs only: without the localized
    # global models it makes the same personal models, byte for byte
    cfg = FederatedConfig(personal_epochs=20, personal_lr=1e-3)
    pool = _pool_with_personal_models(tiny_world, tiny_cfg, [6, 4, 2])
    bare = _pool_with_personal_models(tiny_world, tiny_cfg, [6, 4, 2])
    pairs = localized_pairs(pool)
    for client in bare:
        client.localized_global = None
    federated.fine_tune_personal(pool, pairs, cfg)
    federated.fine_tune_personal(bare, pairs, cfg)
    for client, other in zip(pool, bare):
        _assert_same_bytes(client.personal.values, other.personal.values)
    with pytest.raises(ValueError, match="pairs of every client"):
        federated.fine_tune_personal(pool, pairs[:-1], cfg)


def test_base_predictions_require_localized_global():
    world = _one_client_world()
    client = build_clients(world)[0]
    with pytest.raises(ValueError, match="no localized global model"):
        federated.base_predictions(client, client.trajectories)


def _pool_with_personal_models(world, tiny_cfg, counts):
    """Every client of the world with a localized global, profile and random
    personal model; client i keeps its first counts[i] trajectories, each
    relabelled as its localized prediction plus a residual of a few seconds."""
    pool = build_clients(world)
    profiles = [data.extract_profile(c.trajectories, world.grid, world.network, tiny_cfg.profile_arity) for c in pool]
    mean, std = model.fit_dense_stats(profiles)
    for i, (client, profile) in enumerate(zip(pool, profiles)):
        client.localized_global = model.init_base_params(world.network, tiny_cfg, seed=10 + i)
        client.profile = profile
        client.personal = model.init_personal_params(
            world.grid.n_cells, world.network.n_edges, tiny_cfg, seed=20 + i, dense_mean=mean, dense_std=std
        )
        shifted = []
        for k, t in enumerate(client.trajectories[: counts[i]]):
            slot = model.slot_of_time(t.departure, tiny_cfg.time_slots)
            state = model.traffic_state(world.network, client.localized_global, [slot])[slot]
            shifted.append(replace(t, y=model.predict_route(state, t.route) + 3.0 * (k % 3) + i))
        client.trajectories = shifted
    return pool


def _reference_step_ok(loss, grads, lr):
    """The single-client step check: a finite loss, and no coordinate moved
    further than the cap; a zero-size tensor moves nothing."""
    if not math.isfinite(loss):
        return False
    return all(not g.size or lr * float(np.abs(g).max()) <= federated._MAX_STEP for g in grads.values())


def _reference_fine_tune(client, cfg):
    """One client's personal SGD written out per pair: one pair per step,
    the single-client step check, then p - lr * g. Returns the tensors and the
    skipped steps."""
    states, pairs = {}, []
    for traj in sorted(client.trajectories, key=lambda t: (t.departure, t.y)):
        slot = model.slot_of_time(traj.departure, client.localized_global.cfg.time_slots)
        if slot not in states:
            states[slot] = model.traffic_state(client.network, client.localized_global, [slot])[slot]
        pairs.append((traj.y, model.predict_route(states[slot], traj.route)))
    prof, v = client.profile, nn.clone_params(client.personal.values)
    regions, edges = list(prof.top_regions), list(prof.top_edges)
    dim = v["p.region"].shape[1]
    block = len(regions) * dim
    x_dense = (prof.dense_features() - client.personal.dense_mean) / client.personal.dense_std
    skipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.personal_epochs):
            for y, y_hat in pairs:
                hidden = x_dense @ v["p.dense.w"] + v["p.dense.b"]
                x_u = np.concatenate([v["p.region"][regions].ravel(), v["p.edge"][edges].ravel(), hidden])
                r = y - y_hat - (float(x_u @ v["p.head.w"][:, 0]) + float(v["p.head.b"][0]))
                d_bias = 0.0 + -2.0 * r
                d_xu = d_bias * v["p.head.w"][:, 0]
                g = {k: np.zeros_like(x) for k, x in v.items()}
                g["p.head.w"] += d_bias * x_u[:, None]
                g["p.head.b"] += d_bias
                np.add.at(g["p.region"], regions, d_xu[:block].reshape(-1, dim))
                np.add.at(g["p.edge"], edges, d_xu[block : 2 * block].reshape(-1, dim))
                g["p.dense.w"] += np.outer(x_dense, d_xu[2 * block :])
                g["p.dense.b"] += d_xu[2 * block :]
                if _reference_step_ok(0.0 + r * r, g, cfg.personal_lr):
                    v = {k: v[k] - cfg.personal_lr * g[k] for k in v}
                else:
                    skipped += 1
    return v, skipped


def _assert_same_bytes(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes(), name


def test_fine_tune_pool_matches_per_client_reference(tiny_world, tiny_cfg):
    counts = [6, 3, 1]
    cfg = FederatedConfig(personal_epochs=30, personal_lr=1e-3)
    pool = _pool_with_personal_models(tiny_world, tiny_cfg, counts)
    assert [len(c.trajectories) for c in pool] == counts
    # one pair of the second client is off by 1e5 s: its step is divergent
    # and skipped every epoch, while that client's other steps are taken
    first = min(pool[1].trajectories, key=lambda t: (t.departure, t.y))
    pool[1].trajectories[pool[1].trajectories.index(first)] = replace(first, y=first.y + 1e5)
    # signed zeros: a looked-up region row of -0.0 feeds -0.0 inputs to head
    # weights of -0.0, which stay -0.0 only if their gradient is +0.0
    for client in pool:
        values, dim = client.personal.values, tiny_cfg.personal_embed_dim
        values["p.region"][client.profile.top_regions[0]] = -0.0
        values["p.head.w"][:dim] = -0.0
    initial = [nn.clone_params(c.personal.values) for c in pool]
    expected = [_reference_fine_tune(c, cfg) for c in pool]
    assert [skipped for _, skipped in expected] == [0, cfg.personal_epochs, 0]
    fine_tune_personal(pool, cfg)
    for client, (values, _), before in zip(pool, expected, initial):
        _assert_same_bytes(client.personal.values, values)
        assert not np.array_equal(values["p.head.b"], before["p.head.b"])


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1], [1], [2, 0]])
def test_fine_tune_client_independent_of_pool(tiny_world, tiny_cfg, order):
    cfg = FederatedConfig(personal_epochs=20, personal_lr=1e-3)
    alone = {}
    for i in range(3):
        pool = _pool_with_personal_models(tiny_world, tiny_cfg, [6, 4, 2])
        fine_tune_personal([pool[i]], cfg)
        alone[pool[i].client_id] = pool[i].personal.values
    pool = _pool_with_personal_models(tiny_world, tiny_cfg, [6, 4, 2])
    subset = [pool[i] for i in order]
    fine_tune_personal(subset, cfg)
    for client in subset:
        _assert_same_bytes(client.personal.values, alone[client.client_id])


# ---------------------------------------------------------------- lockstep local training
# client_update steps a round's clients in lockstep on (C, ...) stacks; these
# tests certify it against each client trained alone with the single-client
# arithmetic: a C = 1 base_loss per trajectory, the scalar step check, and
# p - lr * g.

_LOCKSTEP_CFG = model.ModelConfig(embed_dim=4, head_width=4, time_slots=8, output_scale=10.0)
_LOCKSTEP_WORLDS = {
    # 34 edges: every field is the whole graph
    "3x4": data.generate_world(data.WorldSpec(
        grid_rows=3, grid_cols=4, n_drivers=5, trips_per_day=6, time_slots=8, seed=11,
    )),
    # 360 edges: the clients run on their own strict fields, padded to one width
    "10x10": data.generate_world(data.WorldSpec(
        grid_rows=10, grid_cols=10, n_drivers=5, trips_per_day=4, time_slots=8, seed=1010,
    )),
}
_DAY0 = (datetime(2024, 1, 1), datetime(2024, 1, 2))


def _reference_client_update(client, global_params, cfg, window, round_index):
    """One client's local training alone: returns its trained tensors, its
    upload and the number of steps it skipped."""
    batch = sorted(client.in_window(*window), key=lambda t: (t.departure, t.y))
    values = nn.clone_params(global_params.values)
    skipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.local_epochs):
            for traj in batch:
                loss, grads = base_loss_one(client.network, global_params.with_values(values), traj.route, traj.y)
                if _reference_step_ok(loss, grads, cfg.base_lr):
                    values = {k: v - cfg.base_lr * grads[k] for k, v in values.items()}
                else:
                    skipped += 1
    dp = privacy.DpConfig(epsilon=cfg.dp_epsilon, clip_bound=cfg.dp_clip, seed=cfg.seed)
    upload = privacy.noise_params(values, dp, rng=nn.spawn_rng(cfg.seed, "dp", client.client_id, round_index))
    return values, upload, skipped


def _lockstep_setup(world_name, layers_hops, counts, diverge, negative_zeros, seed):
    """A global model and fresh clients of the named world, client i holding
    its first counts[i] day-0 trajectories; with diverge, the first client's
    first trajectory is off by 1e7 s, so its steps on it are skipped."""
    world = _LOCKSTEP_WORLDS[world_name]
    layers, hops = layers_hops
    global_params = model.init_base_params(world.network, replace(_LOCKSTEP_CFG, gcn_layers=layers, hops=hops), seed)
    if negative_zeros:
        # rows no route reads keep -0.0 only if their gradient is +0.0
        for name in ("embed_e.identity", "head_e.b", "embed_v.identity", "gcn_e.l0.theta"):
            global_params.values[name][::2] = -0.0
    pool = build_clients(world)
    clients = []
    for client, count in zip(pool, counts):
        trajs = sorted(client.trajectories, key=lambda t: (t.departure, t.y))[:count]
        clients.append(ClientState(client_id=client.client_id, network=world.network, trajectories=trajs))
    if diverge:
        first = clients[0].trajectories[0]
        clients[0].trajectories[0] = replace(first, y=first.y + 1e7)
    return global_params, clients


def _assert_same_bytes_params(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes(), name


@settings(max_examples=12, deadline=None)
@given(
    world_name=st.sampled_from(sorted(_LOCKSTEP_WORLDS)),
    layers_hops=st.sampled_from([(1, 2), (2, 1), (2, 2)]),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    diverge=st.booleans(),
    negative_zeros=st.booleans(),
    epsilon=st.sampled_from([math.inf, 10.0]),
    seed=st.integers(0, 3),
)
def test_lockstep_client_update_matches_per_client_reference(
    world_name, layers_hops, counts, diverge, negative_zeros, epsilon, seed
):
    global_params, clients = _lockstep_setup(world_name, layers_hops, counts, diverge, negative_zeros, seed)
    cfg = FederatedConfig(local_epochs=2, base_lr=1e-6, dp_epsilon=epsilon, seed=seed)
    expected = [_reference_client_update(c, global_params, cfg, _DAY0, 7) for c in clients]
    if diverge:
        assert expected[0][2] >= cfg.local_epochs
    before = nn.clone_params(global_params.values)
    results = client_update(clients, global_params, cfg, _DAY0, 7)
    assert [n_m for _, n_m in results] == [len(c.trajectories) for c in clients]
    for client, (upload, _), (values, expected_upload, _) in zip(clients, results, expected):
        _assert_same_bytes_params(client.localized_global.values, values)
        _assert_same_bytes_params(upload, expected_upload)
    _assert_same_bytes_params(global_params.values, before)


@pytest.mark.parametrize("order", [[0, 1, 2], [2, 0, 1], [1], [2, 0]])
def test_lockstep_client_independent_of_the_other_chosen_clients(order):
    cfg = FederatedConfig(local_epochs=2, base_lr=1e-6, dp_epsilon=10.0, seed=3)
    alone = {}
    for i in range(3):
        global_params, clients = _lockstep_setup("10x10", (1, 2), [4, 2, 3], False, False, 0)
        [(upload, _)] = client_update([clients[i]], global_params, cfg, _DAY0, 2)
        alone[clients[i].client_id] = (upload, clients[i].localized_global.values)
    global_params, clients = _lockstep_setup("10x10", (1, 2), [4, 2, 3], False, False, 0)
    chosen = [clients[i] for i in order]
    for client, (upload, _) in zip(chosen, client_update(chosen, global_params, cfg, _DAY0, 2)):
        expected_upload, expected_values = alone[client.client_id]
        _assert_same_bytes_params(upload, expected_upload)
        _assert_same_bytes_params(client.localized_global.values, expected_values)


def test_client_update_ignores_what_its_reused_buffers_held():
    # local training keeps its stack and gradient buffers for the process;
    # what an earlier call on another graph or with more clients left in them,
    # or NaN, must not reach the result
    cfg = FederatedConfig(clients_per_round=2, local_epochs=2, base_lr=1e-6, dp_epsilon=10.0, seed=3)
    global_params, clients = _lockstep_setup("10x10", (1, 2), [4, 2, 3], False, False, 0)
    expected = [(upload, c.localized_global.values) for c, (upload, _) in zip(clients, client_update(clients, global_params, cfg, _DAY0, 2))]
    for world_name, counts in (("3x4", [3, 1]), ("10x10", [1, 4, 2, 3]), ("10x10", [4, 2, 3])):
        global_params, clients = _lockstep_setup(world_name, (1, 2), counts, False, False, 0)
        client_update(clients, global_params, cfg, _DAY0, 2)
    federated._training_buffer[...] = np.nan
    global_params, clients = _lockstep_setup("10x10", (1, 2), [4, 2, 3], False, False, 0)
    for client, (upload, _), (expected_upload, expected_values) in zip(clients, client_update(clients, global_params, cfg, _DAY0, 2), expected):
        _assert_same_bytes_params(upload, expected_upload)
        _assert_same_bytes_params(client.localized_global.values, expected_values)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_steps_on_the_written_columns_equal_steps_on_the_whole_buffer(seed):
    # Local training zeroes, checks and updates only the gradient columns
    # base_loss writes, in a buffer that keeps what earlier steps left in it.
    # After many steps the bytes must be those of steps on a new, whole
    # gradient buffer: with -0.0 parameters, steps skipped for NaN, inf or
    # size, clients a step does not take, and fields padded to the widest.
    world = _LOCKSTEP_WORLDS["10x10"]
    net, rng = world.network, np.random.default_rng(seed)
    global_params = model.init_base_params(net, _LOCKSTEP_CFG, seed % 4)
    shapes = {k: v.shape for k, v in global_params.values.items()}
    n_clients = 3
    stacks = [nn.FlatStack(shapes, n_clients) for _ in range(2)]
    for stack in stacks:
        for k, v in stack.items():
            v[...] = global_params.values[k]
            v[:, ::3] = -0.0
    grads = nn.FlatStack(shapes, n_clients)
    grads.buffer[...] = np.nan  # stale: what a reused buffer might hold
    # routes cut to one edge (an empty node field) or to edge, node, edge,
    # so that both sides run on strict fields
    routes = [replace(t.route, steps=t.route.steps[:cut]) for t in data.sample_trajectories(world, 0) for cut in (1, 3)]
    lr, skipped, untaken, padded = 1e-6, 0, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(12):
            active = int(rng.integers(1, n_clients + 1))
            batch = [(routes[i], float(y)) for i, y in zip(rng.integers(0, len(routes), active), rng.uniform(0.0, 2000.0, active))]
            k = int(rng.integers(0, active))
            batch[k] = (batch[k][0], float(rng.choice([np.nan, np.inf, 1e9, batch[k][1]])))
            fields = model._receptive_field(net, _LOCKSTEP_CFG, [route for route, _ in batch])
            assert not any(f.whole for f in fields)
            padded += int(not fields[0].valid.all())
            takes = rng.random(active) < 0.8
            verdicts = []
            for stack, reuse in zip(stacks, (True, False)):
                values = stack.head(active)
                losses, g = model.base_loss(net, global_params.cfg, values, batch, grads.head(active) if reuse else None)
                cols = g.cols if reuse else nn.ALL_COLUMNS
                flat = {"flat": g.buffer}
                ok = federated._steps_ok(losses, flat, lr, cols)
                nn.sgd_step({"flat": values.buffer}, flat, lr, takes & ok, cols)
                verdicts.append(ok.tolist())
            assert verdicts[0] == verdicts[1]
            skipped += verdicts[0].count(False)
            untaken += int(not takes.all())
            assert stacks[0].buffer.tobytes() == stacks[1].buffer.tobytes()
    assert np.signbit(stacks[0]["embed_e.identity"]).any()
    assert skipped and untaken and padded


def test_local_epochs_reuse_fields_equal_to_fields_rebuilt_every_step(monkeypatch):
    # step j takes the same routes in every epoch, so local training builds
    # its fields once, in base_loss's field cache; each must equal a build
    # for its routes, and the result must equal steps that each build their own
    global_params, clients = _lockstep_setup("10x10", (1, 2), [4, 2, 3], False, True, 0)
    cfg = FederatedConfig(local_epochs=3, base_lr=1e-6, dp_epsilon=10.0, seed=3)
    build, builds, caches = model._receptive_field, [], []

    def counting_build(network, model_cfg, routes):
        builds.append(len(routes))
        return build(network, model_cfg, routes)

    def recording_loss(network, model_cfg, values, batch, grads, field_cache):
        caches.append(field_cache)
        return model.base_loss(network, model_cfg, values, batch, grads, field_cache)

    with monkeypatch.context() as m:
        m.setattr(model, "_receptive_field", counting_build)
        m.setattr(federated, "base_loss", recording_loss)
        reused = client_update(clients, global_params, cfg, _DAY0, 2)
    assert builds == [3, 3, 2, 1] and len(caches) == len(builds) * cfg.local_epochs
    assert all(cache is caches[0] for cache in caches) and len(caches[0]) == len(builds)
    strict = 0
    for routes, fields in caches[0].items():
        for got, want in zip(fields, build(clients[0].network, global_params.cfg, list(routes))):
            assert got.whole == want.whole
            if got.whole:
                assert got.laplacian is want.laplacian
                continue
            strict += 1
            assert got.rows.tobytes() == want.rows.tobytes() and got.valid.tobytes() == want.valid.tobytes()
            for part in ("data", "indices", "indptr"):
                assert getattr(got.laplacian, part).tobytes() == getattr(want.laplacian, part).tobytes()
    assert strict
    reused_values = [c.localized_global.values for c in clients]
    global_params, clients = _lockstep_setup("10x10", (1, 2), [4, 2, 3], False, True, 0)
    with monkeypatch.context() as m:
        m.setattr(federated, "base_loss", lambda network, model_cfg, values, batch, grads, _: model.base_loss(network, model_cfg, values, batch, grads))
        rebuilt = client_update(clients, global_params, cfg, _DAY0, 2)
    for (upload, _), (expected, _), client, values in zip(rebuilt, reused, clients, reused_values):
        _assert_same_bytes_params(upload, expected)
        _assert_same_bytes_params(client.localized_global.values, values)


def test_client_update_gives_each_client_its_own_localized_copy(tiny_world, tiny_cfg):
    global_params = model.init_base_params(tiny_world.network, tiny_cfg, seed=0)
    clients = build_clients(tiny_world)
    client_update(clients, global_params, FederatedConfig(base_lr=1e-6), _DAY0)
    # a view into the training stack would keep every client's tensors alive
    for client in clients:
        for name, v in client.localized_global.values.items():
            assert v.base is None, (client.client_id, name)


def test_steps_ok_passes_zero_size_tensors():
    grads = {"num_proj_v.w": np.zeros((2, 0, 4)), "b": np.array([[0.5], [np.nan]])}
    assert federated._steps_ok(np.array([1.0, 1.0]), grads, 1.0).tolist() == [True, False]
    assert federated._steps_ok(np.array([np.inf, 1.0]), {"num_proj_v.w": np.zeros((2, 0, 4))}, 1.0).tolist() == [False, True]


@settings(max_examples=60, deadline=None)
@given(
    bounds=st.lists(st.sampled_from([0.25, 0.999, 1.0, 1.001, 4.0]), min_size=1, max_size=4),
    lr=st.sampled_from([0.0, 1e-6, 0.5, 1.0]),
    specials=st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from([np.nan, np.inf, -np.inf, -1e300, 0.0])), max_size=4),
    loss_specials=st.lists(st.sampled_from([1.0, np.nan, np.inf]), min_size=4, max_size=4),
    seed=st.integers(0, 3),
)
def test_steps_ok_on_the_flat_buffer_agrees_with_the_per_tensor_check(tiny_world, tiny_cfg, bounds, lr, specials, loss_specials, seed):
    # local training checks a step on base_loss's whole (C, P) gradient
    # buffer; the verdict must be the per-tensor one at the base model's
    # shapes, here with a zero-size num_proj_v.w (no numeric node columns)
    no_columns = np.zeros((tiny_world.network.n_nodes, 0))
    network = replace(tiny_world.network, node_numeric=no_columns, node_features=no_columns)
    values = model.init_base_params(network, tiny_cfg, seed).values
    grads = nn.zeros_stack({k: np.broadcast_to(v, (len(bounds), *v.shape)) for k, v in values.items()})
    assert grads["num_proj_v.w"].size == 0
    rng = np.random.default_rng(seed)
    # client c's largest step lr * |g| lands near its bound, on either side of _MAX_STEP = 1
    scale = np.array(bounds)[:, None] / (lr if lr > 0 else 1.0)
    grads.buffer[...] = rng.uniform(-1.0, 1.0, size=grads.buffer.shape) * scale
    grads.buffer[np.arange(len(bounds)), rng.integers(0, grads.buffer.shape[1], len(bounds))] = -scale[:, 0]
    for position, value in specials:
        grads.buffer.flat[position % grads.buffer.size] = value
    losses = np.array(loss_specials[: len(bounds)])
    with np.errstate(invalid="ignore"):  # lr = 0 times an infinity, as client_update allows
        flat = federated._steps_ok(losses, {"flat": grads.buffer}, lr)
        assert flat.tolist() == federated._steps_ok(losses, dict(grads), lr).tolist()


def test_client_update_on_a_network_without_numeric_node_columns(tiny_world, tiny_cfg):
    # num_proj_v.w is then (0, d), and every step checks it
    no_columns = np.zeros((tiny_world.network.n_nodes, 0))
    network = replace(tiny_world.network, node_numeric=no_columns, node_features=no_columns)
    global_params = model.init_base_params(network, tiny_cfg, seed=0)
    assert global_params.values["num_proj_v.w"].shape == (0, tiny_cfg.embed_dim)
    clients = build_clients(tiny_world)
    for client in clients:
        client.network = network
    cfg = FederatedConfig(local_epochs=1, base_lr=1e-6)
    results = client_update(clients, global_params, cfg, _DAY0)
    assert [n for _, n in results] == [len(c.trajectories) for c in clients]
    moved = [not np.array_equal(c.localized_global.values["head_e.w"], global_params.values["head_e.w"]) for c in clients]
    assert all(moved)
