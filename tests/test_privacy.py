"""DP mechanism and attack tests: Laplace moments, clamping, difference
attack ranking, risk arithmetic, sweep plumbing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fedtte import data, federated, model, nn, privacy
from fedtte.privacy import AttackReport, DpConfig


def _params_of(**arrays):
    return {k: np.asarray(v, dtype=float) for k, v in arrays.items()}


# ---------------------------------------------------------------- noise_params

def test_epsilon_inf_is_bit_exact_pass_through():
    params = _params_of(a=[[0.5, -2.0], [3.0, 0.0]], b=[9.9])
    out = privacy.noise_params(params, DpConfig(epsilon=math.inf, clip_bound=1.0))
    for k in params:
        assert np.array_equal(out[k], params[k])
        assert out[k] is not params[k]  # fresh copy, caller owns it


def test_laplace_moments_eps10_clip1():
    cfg = DpConfig(epsilon=10.0, clip_bound=1.0, seed=0)
    b = cfg.scale
    assert b == 0.2
    params = _params_of(big=np.zeros(100_000))
    out = privacy.noise_params(params, cfg, rng=nn.spawn_rng(0, "moments"))
    noise = out["big"]
    assert abs(noise.mean()) <= 0.01
    assert abs(noise.var() - 2 * b * b) <= 0.1 * (2 * b * b)


def test_laplace_two_sided_tail():
    # P(|x| > b ln 20) = 1/20 for Laplace(0, b)
    cfg = DpConfig(epsilon=10.0, clip_bound=1.0)
    b = cfg.scale
    params = _params_of(big=np.zeros(100_000))
    out = privacy.noise_params(params, cfg, rng=nn.spawn_rng(1, "tail"))
    frac = float(np.mean(np.abs(out["big"]) > b * math.log(20.0)))
    assert abs(frac - 0.05) <= 0.01


def test_clamp_applied_before_noising():
    # a coordinate at 5 with clip 1 behaves exactly like a coordinate at 1
    cfg = DpConfig(epsilon=1.0, clip_bound=1.0)
    out_hi = privacy.noise_params(_params_of(x=[5.0]), cfg, rng=nn.spawn_rng(3, "clamp"))
    out_unit = privacy.noise_params(_params_of(x=[1.0]), cfg, rng=nn.spawn_rng(3, "clamp"))
    assert np.array_equal(out_hi["x"], out_unit["x"])


def test_clamp_of_non_finite_and_signed_zero_coordinates():
    # infinities clamp to the bounds before noising, NaN stays NaN, and -0.0
    # is clamped to itself; the result is clamp + the sampler's noise
    cfg = DpConfig(epsilon=1.0, clip_bound=1.0)
    values = np.array([np.inf, -np.inf, np.nan, -0.0, 5.0])
    out = privacy.noise_params({"x": values}, cfg, rng=nn.spawn_rng(3, "clamp"))["x"]
    noise = privacy._laplace(nn.spawn_rng(3, "clamp"), cfg.scale, values.size)
    clamped = np.array([1.0, -1.0, np.nan, -0.0, 1.0])
    assert out.tobytes() == (clamped + noise).tobytes()
    assert out[0] == 1.0 + noise[0] and out[1] == -1.0 + noise[1]
    assert np.isnan(out[2]) and np.isfinite(np.delete(out, 2)).all()


def _laplace_reference(u: float, scale: float) -> float:
    """NumPy's random_laplace(0.0, scale) for a nonzero uniform u, in Python
    floats through libm's log."""
    if u >= 0.5:
        return 0.0 - scale * math.log(2.0 - u - u)
    return 0.0 + scale * math.log(u + u)


@pytest.mark.parametrize("scale", [2e-3, 0.2, 20.0, 5e-324])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 3_180, 76_858])
def test_laplace_sampler_matches_the_scalar_reference(n, scale):
    # the vectorized inverse CDF differs from NumPy's per-variate draw only in
    # its log: same sign bits, within 2 ulp, same generator advance; at the
    # smallest scale most products underflow to zeros, whose sign is +
    seed = 1_000 * n + int(scale * 1_000)
    uniforms = np.random.default_rng(seed).random(n)
    reference = np.array([_laplace_reference(u, scale) for u in uniforms.tolist()])
    numpy_rng = np.random.default_rng(seed)
    assert reference.tobytes() == numpy_rng.laplace(0.0, scale, size=n).tobytes()
    rng = np.random.default_rng(seed)
    drawn = privacy._laplace(rng, scale, n)
    assert drawn.shape == (n,)
    assert np.array_equal(np.signbit(drawn), np.signbit(reference))
    assert np.abs(drawn.view(np.int64) - reference.view(np.int64)).max(initial=0) <= 2
    assert rng.bit_generator.state == numpy_rng.bit_generator.state


def test_zero_uniform_falls_back_to_numpys_redraw():
    # PCG64 steps its 128-bit LCG state and then outputs from the new state,
    # so a state whose successor is 0 makes the next uniform exactly 0.0
    multiplier = 0x2360ED051FC65DA44385DF649FCCF645
    inc = 0x5851F42D4C957F2D  # any odd increment
    state = (-inc) * pow(multiplier, -1, 2**128) % 2**128

    def rng():
        generator = np.random.Generator(np.random.PCG64())
        generator.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        return generator

    assert rng().random() == 0.0
    cfg = DpConfig(epsilon=2.0, clip_bound=1.0)
    params = _params_of(a=np.linspace(-3.0, 3.0, 12).reshape(3, 4), b=[0.5])
    drawn = rng()
    out = privacy.noise_params(params, cfg, rng=drawn)
    reference = rng()
    noise = reference.laplace(0.0, cfg.scale, size=13)
    assert np.isfinite(noise).all()
    assert out["a"].tobytes() == (np.clip(params["a"].ravel(), -1.0, 1.0) + noise[:12]).tobytes()
    assert out["b"].tobytes() == (np.clip(params["b"], -1.0, 1.0) + noise[12:]).tobytes()
    assert drawn.bit_generator.state == reference.bit_generator.state


def test_noise_insensitive_to_dict_insertion_order():
    cfg = DpConfig(epsilon=2.0, clip_bound=1.0)
    fwd = {"a": np.zeros(3), "b": np.ones(2)}
    rev = {"b": np.ones(2), "a": np.zeros(3)}
    out1 = privacy.noise_params(fwd, cfg, rng=nn.spawn_rng(4, "order"))
    out2 = privacy.noise_params(rev, cfg, rng=nn.spawn_rng(4, "order"))
    for k in fwd:
        assert np.array_equal(out1[k], out2[k])


def test_noise_is_one_draw_equal_to_a_draw_per_tensor():
    # one clamp and one Laplace draw over every coordinate in sorted-name
    # order, split back, give the bytes of a clamp and a draw per tensor from
    # the same stream
    cfg = DpConfig(epsilon=0.5, clip_bound=0.75)
    rng = np.random.default_rng(9)
    params = {
        "b.scalar": np.array(-0.0),
        "a.table": rng.normal(size=(5, 3)) * 2.0,
        "c.empty": np.zeros((0, 4)),
        "d.vector": np.array([-0.0, 0.0, 3.0, -3.0]),
    }
    out = privacy.noise_params(params, cfg, rng=nn.spawn_rng(1, "dp"))
    reference_rng = nn.spawn_rng(1, "dp")
    for name in sorted(params):
        clamped = np.clip(params[name], -cfg.clip_bound, cfg.clip_bound)
        expected = clamped + privacy._laplace(reference_rng, cfg.scale, params[name].size).reshape(params[name].shape)
        assert out[name].shape == params[name].shape and out[name].tobytes() == expected.tobytes(), name


def test_an_upload_noises_2980_coordinates_on_the_default_world():
    # P in the per-upload cost P * epsilon that README and the privacy module state
    world = data.generate_world(data.WorldSpec())
    values = model.init_base_params(world.network, model.ModelConfig(), seed=0).values
    noised = privacy.noise_params(values, DpConfig(epsilon=10.0), rng=nn.spawn_rng(0, "dp"))
    assert sum(v.size for v in values.values()) == 2_980
    assert sum(np.count_nonzero(noised[k] != v) for k, v in values.items()) == 2_980


def test_dp_config_validation():
    with pytest.raises(ValueError):
        DpConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DpConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        DpConfig(epsilon=1.0, clip_bound=0.0)
    assert DpConfig(epsilon=math.inf).scale == 0.0


@pytest.mark.parametrize("epsilon, clip", [(1e-320, 1.0), (1e-300, 1e10), (1.0, math.inf)])
def test_dp_config_rejects_a_noise_scale_that_overflows(epsilon, clip):
    with pytest.raises(ValueError, match="not finite"):
        DpConfig(epsilon=epsilon, clip_bound=clip)
    with pytest.raises(ValueError, match="overflows" if clip < math.inf else "dp_clip"):
        federated.FederatedConfig(dp_epsilon=epsilon, dp_clip=clip)
    assert DpConfig(epsilon=math.inf, clip_bound=clip).scale == 0.0


# ---------------------------------------------------------------- difference_attack

def _edge_tables(n_edges, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "embed_e.identity": rng.normal(size=(n_edges, dim)),
        "head_e.b": rng.normal(size=n_edges),
    }


def test_attack_zero_difference_ties_break_by_index():
    params = _edge_tables(6)
    revealed = privacy.difference_attack(params, nn.clone_params(params), k=3)
    assert revealed == [0, 1, 2]


def test_attack_single_perturbed_edge_ranks_first():
    params = _edge_tables(12)
    uploaded = nn.clone_params(params)
    uploaded["embed_e.identity"][7] += 0.25
    revealed = privacy.difference_attack(params, uploaded, k=4)
    assert revealed[0] == 7


def test_attack_scale_free_ranking():
    params = _edge_tables(10)
    uploaded = nn.clone_params(params)
    rng = np.random.default_rng(5)
    uploaded["embed_e.identity"] += rng.normal(size=uploaded["embed_e.identity"].shape)
    base = privacy.difference_attack(params, uploaded, k=5)
    scaled = {
        k: params[k] + 3.7 * (uploaded[k] - params[k]) for k in params
    }
    assert privacy.difference_attack(params, scaled, k=5) == base


def test_attack_k_larger_than_edge_count():
    params = _edge_tables(4)
    revealed = privacy.difference_attack(params, nn.clone_params(params), k=50)
    assert revealed == [0, 1, 2, 3]


def test_attack_requires_edge_tables():
    with pytest.raises(KeyError):
        privacy.difference_attack({"other": np.zeros(2)}, {"other": np.zeros(2)}, k=1)


def test_attack_score_combines_all_edge_tables():
    # a change in head_e.b alone must surface that edge
    params = _edge_tables(8)
    uploaded = nn.clone_params(params)
    uploaded["head_e.b"][5] += 9.0
    assert privacy.difference_attack(params, uploaded, k=1) == [5]


# ---------------------------------------------------------------- attack_risk

def test_risk_identical_sets():
    assert privacy.attack_risk({1, 2, 3}, {1, 2, 3}) == 1.0


def test_risk_disjoint_sets():
    assert privacy.attack_risk({1, 2}, {3, 4}) == 0.0


def test_risk_three_of_four():
    assert privacy.attack_risk({1, 2, 3, 4}, {2, 3, 4, 9}) == 0.75


def test_risk_singleton_truth_binary():
    for revealed in ([7], [8, 9], []):
        assert privacy.attack_risk({7}, revealed) in (0.0, 1.0)


def test_risk_empty_truth_rejected():
    with pytest.raises(ValueError):
        privacy.attack_risk(set(), {1})


# ---------------------------------------------------------------- sweep plumbing

def test_risk_eval_reports_are_consistent(tiny_world):
    reports = privacy.risk_eval(
        tiny_world, math.inf,
        fed_config=federated.FederatedConfig(),
        model_cfg=model.ModelConfig(time_slots=4),
        rounds=2, k=5, seed=0,
    )
    assert reports
    for rep in reports:
        assert isinstance(rep, AttackReport)
        assert len(rep.revealed) <= rep.k
        assert rep.risk == privacy.attack_risk(rep.truth, rep.revealed)
        assert 0.0 <= rep.risk <= 1.0


def test_risk_eval_no_noise_hits_ceiling(tiny_world):
    # epsilon = inf leaves only truly-updated rows different, so the attack
    # recovers every traveled edge whenever k covers the truth set
    reports = privacy.risk_eval(
        tiny_world, math.inf,
        fed_config=federated.FederatedConfig(),
        model_cfg=model.ModelConfig(time_slots=4),
        rounds=2, k=tiny_world.network.n_edges, seed=0,
    )
    assert all(rep.risk == 1.0 for rep in reports)


def test_risk_sweep_rows_and_aggregates(tiny_world, tmp_path):
    means, rows = privacy.risk_sweep(
        tiny_world, [math.inf, 0.1],
        fed_config=federated.FederatedConfig(),
        model_cfg=model.ModelConfig(time_slots=4),
        rounds=1, k=5, seeds=range(2),
    )
    assert set(means) == {math.inf, 0.1}
    agg = [r for r in rows if r["seed"] == "all"]
    assert {r["epsilon"] for r in agg} == {"inf", "0.1"}
    dest = tmp_path / "risk.csv"
    privacy.write_risk_csv(rows, dest)
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "epsilon,seed,client_id,k,risk"
    assert len(lines) == len(rows) + 1


def test_risk_simulation_independent_of_the_simulations_before_it(tiny_world):
    # the sweep samples the world's trajectories once and builds fresh clients
    # for every simulation from them; no simulation may see another's state
    kwargs = dict(fed_config=federated.FederatedConfig(), model_cfg=model.ModelConfig(time_slots=4), rounds=2, k=5)
    _, rows = privacy.risk_sweep(tiny_world, [math.inf, 1.0], seeds=[0, 1], **kwargs)
    _, alone = privacy.risk_sweep(tiny_world, [1.0], seeds=[1], **kwargs)
    after = [row for row in rows if row["epsilon"] == "1.0" and row["seed"] == "1"]
    assert after and after == [row for row in alone if row["seed"] == "1"]
    fresh = privacy.risk_eval(tiny_world, 1.0, seed=1, **kwargs)
    assert [repr(r.risk) for r in fresh] == [row["risk"] for row in after]


def test_risk_sweep_single_epsilon(tiny_world):
    # one epsilon is a one-row-per-upload sweep plus its "all" row
    kwargs = dict(fed_config=federated.FederatedConfig(), model_cfg=model.ModelConfig(time_slots=4), rounds=2, k=5)
    means, rows = privacy.risk_sweep(tiny_world, [1.0], seeds=[3], **kwargs)
    reports = privacy.risk_eval(tiny_world, 1.0, seed=3, **kwargs)
    assert set(means) == {1.0}
    assert rows[:-1] == [
        {"epsilon": "1.0", "seed": "3", "client_id": r.client_id, "k": "5", "risk": repr(r.risk)} for r in reports
    ]
    assert rows[-1] == {"epsilon": "1.0", "seed": "all", "client_id": "all", "k": "5", "risk": repr(means[1.0])}
    assert means[1.0] == float(np.mean([r.risk for r in reports]))


def test_risk_sweep_reads_one_shot_seeds_for_every_epsilon(tiny_world):
    kwargs = dict(fed_config=federated.FederatedConfig(), model_cfg=model.ModelConfig(time_slots=4), rounds=1, k=5)
    means, rows = privacy.risk_sweep(tiny_world, [math.inf, 1.0], seeds=iter([0, 1]), **kwargs)
    assert (means, rows) == privacy.risk_sweep(tiny_world, [math.inf, 1.0], seeds=[0, 1], **kwargs)
    assert all(math.isfinite(mean) for mean in means.values())


# risk_sweep trains each seed's first round once, at its first epsilon, and
# every epsilon's simulation of that seed starts from it. Each epsilon's rows
# must be those of the epsilon swept alone, and of its simulations run from
# scratch.

def _epsilon_blocks(rows):
    """A sweep's rows split into per-epsilon blocks, each ending in its "all" row."""
    blocks, block = [], []
    for row in rows:
        block.append(row)
        if row["seed"] == "all":
            blocks.append(block)
            block = []
    assert not block
    return blocks


def _late_world():
    # a single driver whose trips start at 18:04, so training starts after
    # every earlier instant of the day is skipped
    return data.generate_world(data.WorldSpec(
        grid_rows=2, grid_cols=2, n_drivers=1, trips_per_day=4, congestion="flat",
        obs_sigma_s=0.0, bias_spread_s=0.0, time_slots=4, seed=4,
    ))


@pytest.mark.parametrize(
    "case", ["skipped instants", "start values", "schedule", "one round", "reordered", "repeated"]
)
def test_each_epsilon_of_a_sweep_equals_that_epsilon_alone(tiny_world, case):
    model_cfg = model.ModelConfig(time_slots=4)
    world, epsilons, seeds = tiny_world, [1.0, math.inf, 0.1], [0, 1]
    kwargs = dict(fed_config=federated.FederatedConfig(), model_cfg=model_cfg, rounds=3, k=5)
    if case == "skipped instants":
        world, seeds = _late_world(), [5, 6]
    elif case == "start values":
        kwargs["start_values"] = model.init_base_params(world.network, model_cfg, seed=99).values
    elif case == "schedule":
        kwargs["schedule"] = federated.AggregationSchedule(bands=((0.0, 12.0, 6.0), (12.0, 0.0, 4.0)))
    elif case == "one round":
        kwargs["rounds"] = 1
    elif case == "reordered":
        epsilons = [0.1, math.inf, 1.0]
    elif case == "repeated":
        epsilons = [1.0, math.inf, 1.0]
    means, rows = privacy.risk_sweep(world, epsilons, seeds=seeds, **kwargs)
    blocks = _epsilon_blocks(rows)
    assert len(blocks) == len(epsilons)
    for eps, block in zip(epsilons, blocks):
        alone_means, alone = privacy.risk_sweep(world, [eps], seeds=seeds, **kwargs)
        assert block == alone and means[eps] == alone_means[eps]
        scratch = [report for seed in seeds for report in privacy.risk_eval(world, eps, seed=seed, **kwargs)]
        assert scratch and [(row["client_id"], row["risk"]) for row in block[:-1]] == [
            (report.client_id, repr(report.risk)) for report in scratch
        ]


def test_sweep_trains_each_seeds_first_round_once(tiny_world, monkeypatch):
    # S seeds, E epsilons, R rounds each: S * (1 + E * (R - 1)) local-training
    # calls, not S * E * R
    kwargs = dict(fed_config=federated.FederatedConfig(), model_cfg=model.ModelConfig(time_slots=4), rounds=3, k=5)
    epsilons, seeds = [math.inf, 1.0, 0.1], [0, 1]
    calls = []
    client_update = federated.client_update

    def counting_update(*args, **kwargs):
        calls.append(args)
        return client_update(*args, **kwargs)

    monkeypatch.setattr(federated, "client_update", counting_update)
    for seed in seeds:
        privacy.risk_eval(tiny_world, 1.0, seed=seed, **kwargs)
    assert len(calls) == len(seeds) * kwargs["rounds"]  # every simulation trains R rounds
    calls.clear()
    privacy.risk_sweep(tiny_world, epsilons, seeds=seeds, **kwargs)
    assert len(calls) == len(seeds) * (1 + len(epsilons) * (kwargs["rounds"] - 1))


def test_attack_reads_the_uploads_training_makes(monkeypatch):
    # a single client whose trips start at 18:04, so every earlier instant of the
    # day is skipped; skipped instants must advance the round index (and with
    # it the selection and DP-noise keys) in the attack as in training
    world = data.generate_world(data.WorldSpec(
        grid_rows=2, grid_cols=2, n_drivers=1, trips_per_day=4, congestion="flat",
        obs_sigma_s=0.0, bias_spread_s=0.0, time_slots=4, seed=4,
    ))
    fed_cfg = federated.FederatedConfig()
    model_cfg = model.ModelConfig(time_slots=4)

    attacked = []
    client_update = federated.client_update

    def recording_update(*args, **kwargs):
        results = client_update(*args, **kwargs)
        attacked.extend(nn.params_digest(upload) for upload, _ in results)
        return results

    monkeypatch.setattr(federated, "client_update", recording_update)
    reports = privacy.risk_eval(world, 1.0, fed_config=fed_cfg, model_cfg=model_cfg, rounds=3, k=3, seed=5)
    monkeypatch.undo()

    train_cfg = replace(fed_cfg, dp_epsilon=1.0, seed=5)
    server = federated.init_server(world.network, model_cfg, train_cfg)
    pool = federated.build_clients(world)
    trained = []
    for instant in federated.day_instants(server.schedule, day=0):
        record, _, _ = federated.run_round(server, pool, instant, train_cfg)
        if not record.skipped:
            trained.append(record)
    assert trained[0].round > 0  # the world has skipped instants before training
    assert attacked == [client["digest"] for record in trained[:3] for client in record.clients]
    assert [r.risk for r in reports] == [0.375, 0.5, 0.75]
