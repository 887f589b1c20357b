"""Acceptance suite: eleven headline criteria, one test per criterion.

Each test ends in a single _report call that prints the measured values and
the verdict; pytest -v shows one PASS/FAIL line per criterion. Heavy
experiment runs are shared through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from fedtte import data, model, nn, privacy
from fedtte.federated import FederatedConfig, aggregate, default_schedule
from fedtte.harness import (
    ExperimentConfig,
    compute_metrics,
    congestion_bucket,
    implied_speed_kph,
    run_experiment,
)
from fedtte.privacy import DpConfig

from conftest import shared_base_loss

EPS_GRID = (math.inf, 100.0, 10.0, 1.0, 0.1)

ORACLE_WORLD = data.WorldSpec(
    grid_rows=3, grid_cols=4, n_drivers=10, trips_per_day=8,
    congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, seed=11,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _oracle_config(epsilon: float = math.inf) -> ExperimentConfig:
    return ExperimentConfig(
        world=ORACLE_WORLD,
        model=model.ModelConfig(),
        federated=FederatedConfig(dp_epsilon=epsilon, seed=0),
        days=2,
        eval_days=1,
        max_rounds=30,
    )


@pytest.fixture(scope="module")
def oracle_run():
    return run_experiment(_oracle_config())


@pytest.fixture(scope="module")
def sweep_maes(oracle_run):
    maes = {math.inf: oracle_run.reports["global"].mae}
    for eps in EPS_GRID[1:]:
        maes[eps] = run_experiment(_oracle_config(eps)).reports["global"].mae
    return maes


# 1. gradient integrity -------------------------------------------------------

def _rand_profile(rng, n_regions, n_edges, arity):
    start = float(rng.uniform(6.0, 12.0))
    return model.DriverProfile(
        break_start_h=start,
        break_end_h=start + float(rng.uniform(0.5, 3.0)),
        top_regions=tuple(int(x) for x in rng.integers(0, n_regions, size=arity)),
        top_edges=tuple(int(x) for x in rng.integers(0, n_edges, size=arity)),
        avg_trip_distance_m=float(rng.uniform(300.0, 3000.0)),
        trips_per_day=float(rng.integers(2, 10)),
    )


def test_c01_gradient_integrity(tiny_world, tiny_cfg):
    net = tiny_world.network
    assert net.n_edges <= 10 and tiny_cfg.time_slots == 4
    recs = data.sample_trajectories(tiny_world, 0)
    worst_base = worst_personal = 0.0
    for s in range(20):
        rng = np.random.default_rng(s)
        base = model.init_base_params(net, tiny_cfg, seed=s)
        idx = rng.choice(len(recs), size=2, replace=False)
        batch = [(recs[i].route, recs[i].y) for i in idx]
        # the batch's loss under one model: each route is stepped as a client
        # holding a copy of it, and the clients' losses and gradients are summed
        base_fn = shared_base_loss(net, base, batch)
        worst_base = max(worst_base, nn.check_gradients(base_fn, base.values, None, eps=1e-5))

        pers = model.init_personal_params(tiny_world.grid.n_cells, net.n_edges, tiny_cfg, seed=s)
        profile = _rand_profile(rng, tiny_world.grid.n_cells, net.n_edges, tiny_cfg.profile_arity)
        pbatch = [
            (float(rng.uniform(50.0, 200.0)), float(rng.uniform(50.0, 200.0)))
            for _ in range(3)
        ]

        def personal_fn(values, _):
            # the working set gathers the values that check_gradients perturbs
            ws = model.personal_working_set([profile], [pers])
            losses, grads = model.personal_loss(ws, [pbatch])
            return float(losses[0]), ws.unpack(grads, 0, nn.zeros_like_params(values))

        worst_personal = max(worst_personal, nn.check_gradients(personal_fn, pers.values, None, eps=1e-5))
    ok = worst_base < 1e-4 and worst_personal < 1e-4
    _report(1, ok, f"max rel FD error over 20 seeds: base {worst_base:.2e}, personal {worst_personal:.2e} (needs < 1e-4)")


# 2. aggregation algebra ------------------------------------------------------

def test_c02_aggregation_algebra():
    worst_mean = worst_perm = worst_split = 0.0
    convex_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        shapes = [tuple(rng.integers(1, 5, size=2)) for _ in range(3)]

        def draw():
            return {f"t{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}

        uploads = [(int(rng.integers(1, 9)), draw()) for _ in range(int(rng.integers(2, 6)))]
        out = aggregate(uploads)
        n = sum(w for w, _ in uploads)
        for name in out:
            manual = sum(w * u[name] for w, u in uploads) / n
            worst_mean = max(worst_mean, float(np.max(np.abs(out[name] - manual))))
            stack = np.stack([u[name] for _, u in uploads])
            convex_ok &= bool(np.all(out[name] >= stack.min(axis=0) - 1e-12))
            convex_ok &= bool(np.all(out[name] <= stack.max(axis=0) + 1e-12))
        rev = aggregate(list(reversed(uploads)))
        worst_perm = max(worst_perm, max(float(np.max(np.abs(out[k] - rev[k]))) for k in out))

        k = int(rng.integers(2, 5))
        dup = (k, draw())
        split = [(1, nn.clone_params(dup[1])) for _ in range(k)]
        whole = aggregate(uploads + [dup])
        parts = aggregate(uploads + split)
        worst_split = max(worst_split, max(float(np.max(np.abs(whole[m] - parts[m]))) for m in whole))
    ok = worst_mean <= 1e-12 and worst_perm <= 1e-12 and worst_split <= 1e-12 and convex_ok
    _report(
        2, ok,
        f"weighted-mean dev {worst_mean:.1e}, permutation dev {worst_perm:.1e}, "
        f"duplicate-split dev {worst_split:.1e} (each needs <= 1e-12), convex bounds {convex_ok}",
    )


# 3. oracle recovery ----------------------------------------------------------

def test_c03_oracle_recovery(oracle_run):
    world = oracle_run.world
    assert world.network.n_edges <= 50
    baseline = oracle_run.reports["baseline"].mae
    trained = oracle_run.reports["global"].mae
    drop = (baseline - trained) / baseline
    exact = all(
        model.predict_route(
            world.hidden_states[model.slot_of_time(rec.departure, world.spec.time_slots)], rec.route
        )
        == rec.y
        for rec in oracle_run.eval_trajectories
    )
    ok = drop >= 0.80 and exact
    _report(
        3, ok,
        f"pooled eval MAE {baseline:.2f} -> {trained:.2f} s, drop {100 * drop:.1f}% "
        f"(needs >= 80%), hidden-state route predictions exact: {exact}",
    )


# 4. personalization benefit --------------------------------------------------

def test_c04_personalization_benefit():
    spread = 30.0
    improvements = []
    strictly_lower = True
    for s in (100, 101, 102, 103, 104):
        world = data.WorldSpec(
            grid_rows=3, grid_cols=4, n_drivers=10, trips_per_day=8,
            congestion="flat", obs_sigma_s=0.0, bias_spread_s=spread, seed=s,
        )
        cfg = ExperimentConfig(
            world=world,
            model=model.ModelConfig(),
            federated=FederatedConfig(
                clients_per_round=10, local_epochs=1, base_lr=2e-7,
                personal_epochs=500, personal_lr=3e-4, seed=s,
            ),
            days=2,
            eval_days=1,
            max_rounds=30,
        )
        result = run_experiment(cfg)
        mean_global = float(np.mean([r.mae for r in result.reports["global"].per_client.values()]))
        mean_personal = float(np.mean([r.mae for r in result.reports["personalized"].per_client.values()]))
        strictly_lower &= mean_personal < mean_global
        improvements.append(mean_global - mean_personal)
    mean_gain = float(np.mean(improvements))
    ok = strictly_lower and mean_gain >= 0.5 * spread
    _report(
        4, ok,
        f"per-client MAE gain by seed {[f'{g:.1f}' for g in improvements]} s, "
        f"mean {mean_gain:.1f} s (needs >= {0.5 * spread:.0f} s), strictly lower each seed: {strictly_lower}",
    )


# 5. DP mechanism statistics --------------------------------------------------

def test_c05_dp_mechanism_statistics():
    cfg = DpConfig(epsilon=10.0, clip_bound=1.0, seed=0)
    b = cfg.scale
    noise = privacy.noise_params({"big": np.zeros(100_000)}, cfg, rng=nn.spawn_rng(0, "acceptance"))["big"]
    mean_err = abs(float(noise.mean()))
    var = float(noise.var())
    var_err = abs(var - 2 * b * b) / (2 * b * b)

    rng = np.random.default_rng(7)
    vals = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
    out = privacy.noise_params(vals, DpConfig(epsilon=math.inf, clip_bound=1.0))
    passthrough = all(np.array_equal(out[k], vals[k]) for k in vals) and all(
        out[k] is not vals[k] for k in vals
    )
    ok = mean_err <= 0.01 and var_err <= 0.10 and passthrough
    _report(
        5, ok,
        f"Laplace(eps=10, C=1): |mean| {mean_err:.4f} (needs <= 0.01), "
        f"var {var:.4f} vs 2b^2 {2 * b * b:.4f} ({100 * var_err:.1f}% off, needs <= 10%), "
        f"eps=inf bit-exact pass-through: {passthrough}",
    )


# 6. attack-risk monotonicity -------------------------------------------------

def test_c06_attack_risk_monotonicity():
    world = data.generate_world(ORACLE_WORLD)
    means, _ = privacy.risk_sweep(
        world, [math.inf, 100.0, 0.1],
        fed_config=FederatedConfig(),
        model_cfg=model.ModelConfig(),
        rounds=3, k=10, seeds=range(20),
    )
    ok = means[100.0] > means[0.1] and means[0.1] < 0.5 * means[math.inf]
    _report(
        6, ok,
        f"mean attack risk: eps=inf {means[math.inf]:.3f}, eps=100 {means[100.0]:.3f}, "
        f"eps=0.1 {means[0.1]:.3f} (needs eps=100 > eps=0.1 and eps=0.1 < half the no-noise ceiling)",
    )


# 7. utility-privacy trade-off shape ------------------------------------------

def test_c07_utility_privacy_tradeoff(sweep_maes):
    maes = [sweep_maes[eps] for eps in EPS_GRID]
    inversions = sum(1 for a, b in zip(maes, maes[1:]) if b < a - 1e-9)
    ok = inversions <= 1
    _report(
        7, ok,
        f"pooled eval MAE over eps {list(EPS_GRID)}: {[f'{m:.2f}' for m in maes]} s, "
        f"adjacent inversions {inversions} (needs <= 1)",
    )


# 8. schedule conformance -----------------------------------------------------

def test_c08_schedule_conformance():
    instants = default_schedule().instants()
    expected = [3.0, 7.0, 7.5, 8.0, 8.5, 9.0, 11.0, 13.0, 15.0, 17.0, 17.5, 18.0, 18.5, 19.0, 21.0, 23.0]
    ok = instants == expected and len(instants) == 16
    _report(8, ok, f"default schedule emits {len(instants)} instants, enumeration match: {instants == expected}")


# 9. metric formulas ----------------------------------------------------------

def test_c09_metric_formulas():
    rep = compute_metrics([(100.0, 110.0), (200.0, 180.0)])
    hand_ok = (
        abs(rep.mae - 15.0) <= 1e-9
        and abs(rep.rmse - math.sqrt(250.0)) <= 1e-9
        and abs(rep.mape - 10.0) <= 1e-9
    )
    fuzz_ok = True
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        pairs = list(zip(rng.uniform(0.1, 1e4, size=n), rng.uniform(-1e4, 1e4, size=n)))
        r = compute_metrics(pairs)
        fuzz_ok &= r.rmse >= r.mae - 1e-12
    ok = hand_ok and fuzz_ok
    _report(
        9, ok,
        f"hand example MAE {rep.mae}, RMSE {rep.rmse:.6f}, MAPE {rep.mape}% to 1e-9: {hand_ok}; "
        f"RMSE >= MAE over 500 random cases: {fuzz_ok}",
    )


# 10. export fidelity ---------------------------------------------------------

def test_c10_export_fidelity():
    speed = implied_speed_kph(500.0, 90.0)
    bucket = congestion_bucket(speed, 60.0)
    ok = speed == 20.0 and bucket == "congested"
    _report(10, ok, f"implied speed {speed} km/h at limit 60 buckets as {bucket!r} (needs 'congested')")


# 11. determinism -------------------------------------------------------------

def test_c11_determinism(tmp_path):
    def config(out):
        world = data.WorldSpec(
            grid_rows=2, grid_cols=2, n_drivers=3, trips_per_day=8,
            congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, time_slots=8, seed=5,
        )
        return ExperimentConfig(
            world=world,
            model=model.ModelConfig(time_slots=8, embed_dim=8, head_width=8),
            federated=FederatedConfig(clients_per_round=3, local_epochs=2, base_lr=1e-6),
            days=1,
            eval_days=1,
            max_rounds=6,
            out_dir=str(out),
        )

    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert config(out1).federated.dp_epsilon == math.inf
    run_experiment(config(out1))
    run_experiment(config(out2))
    logs_equal = (out1 / "round_log.jsonl").read_bytes() == (out2 / "round_log.jsonl").read_bytes()
    names1 = sorted(p.name for p in (out1 / "checkpoints").iterdir())
    names2 = sorted(p.name for p in (out2 / "checkpoints").iterdir())
    ckpt_equal = names1 == names2 and all(
        (out1 / "checkpoints" / n).read_bytes() == (out2 / "checkpoints" / n).read_bytes() for n in names1
    )
    ok = logs_equal and ckpt_equal
    _report(
        11, ok,
        f"two identical eps=inf runs: round logs byte-identical {logs_equal}, "
        f"{len(names1)} checkpoints byte-identical {ckpt_equal}",
    )
