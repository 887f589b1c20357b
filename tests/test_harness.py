"""Harness tests: metrics, congestion export, config parsing, and the
end-to-end experiment loop with its artifacts."""

import configparser
import csv
import json
import math
import re
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import cli, data, federated, harness, model
from fedtte.federated import FederatedConfig
from fedtte.harness import (
    CONGESTION_BUCKETS,
    ExperimentConfig,
    compute_metrics,
    congestion_bucket,
    export_state,
    grouped_metrics,
    implied_speed_kph,
    load_config,
    parse_bands,
    run_experiment,
    write_world,
)
from fedtte.model import TrafficState

from conftest import NUMERIC_FIELD_TEXT


# ---------------------------------------------------------------- metrics

def test_metrics_hand_example():
    rep = compute_metrics([(100.0, 110.0), (200.0, 180.0)])
    assert rep.mae == pytest.approx(15.0, abs=1e-9)
    assert rep.rmse == pytest.approx(math.sqrt(250.0), abs=1e-9)
    assert rep.mape == pytest.approx(10.0, abs=1e-9)
    assert rep.count == 2


def test_metrics_empty_rejected():
    with pytest.raises(ValueError):
        compute_metrics([])


def test_metrics_nonpositive_truth_rejected():
    with pytest.raises(ValueError):
        compute_metrics([(0.0, 5.0)])


finite_pairs = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1e5),
        st.floats(min_value=-1e5, max_value=1e5),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80)
@given(finite_pairs)
def test_rmse_dominates_mae(pairs):
    rep = compute_metrics(pairs)
    # RMSE >= MAE holds exactly, but both are rounded means of n terms. A sum
    # of n nonnegative terms is within n - 1 units in the last place of its
    # exact value, and the squares, divisions and square root add about 2.5
    # more, so RMSE may round below MAE by about 1.5 n + 1 ulps of MAE (1.5
    # for n = 1), which 2 n ulps covers. 7 ulps were seen at n = 39, with
    # every |error| within 2 ulps of the others.
    assert rep.rmse >= rep.mae - 2 * len(pairs) * np.spacing(rep.mae)


@settings(max_examples=50)
@given(finite_pairs)
def test_metrics_match_naive_reimplementation(pairs):
    rep = compute_metrics(pairs)
    n = len(pairs)
    mae = sum(abs(p - y) for y, p in pairs) / n
    rmse = math.sqrt(sum((p - y) ** 2 for y, p in pairs) / n)
    mape = sum(abs(p - y) / y for y, p in pairs) / n * 100.0
    assert abs(rep.mae - mae) <= 1e-12 * max(1.0, mae)
    assert abs(rep.rmse - rmse) <= 1e-12 * max(1.0, rmse)
    assert abs(rep.mape - mape) <= 1e-12 * max(1.0, mape)


def test_grouped_metrics_per_client_breakdown():
    rows = [("a", 100.0, 110.0), ("b", 200.0, 180.0), ("a", 50.0, 50.0)]
    rep = grouped_metrics(rows, split="eval")
    assert rep.split == "eval"
    assert set(rep.per_client) == {"a", "b"}
    assert rep.per_client["a"].count == 2
    assert rep.per_client["b"].mae == pytest.approx(20.0, abs=1e-12)
    pooled = compute_metrics([(y, p) for _, y, p in rows])
    assert rep.mae == pooled.mae


# ---------------------------------------------------------------- congestion

def test_congested_bucket_at_one_third_of_limit():
    speed = implied_speed_kph(length_m=500.0, travel_time_s=90.0)
    assert speed == pytest.approx(20.0, abs=1e-12)
    assert congestion_bucket(speed, limit_kph=60.0) == "congested"


def test_bucket_boundaries_at_60_limit():
    assert congestion_bucket(0.0, 60.0) == "very_congested"
    assert congestion_bucket(14.999, 60.0) == "very_congested"
    assert congestion_bucket(15.0, 60.0) == "congested"
    assert congestion_bucket(29.999, 60.0) == "congested"
    assert congestion_bucket(30.0, 60.0) == "slow"
    assert congestion_bucket(44.999, 60.0) == "slow"
    assert congestion_bucket(45.0, 60.0) == "unblocked"


def test_implied_at_or_above_limit_unblocked():
    for speed in (60.0, 75.0, 200.0):
        assert congestion_bucket(speed, 60.0) == "unblocked"


def test_speed_floor_clamps_zero_estimate():
    # Y_e = 0 is served as if the edge took one second
    assert implied_speed_kph(100.0, 0.0) == pytest.approx(360.0, abs=1e-9)
    assert implied_speed_kph(100.0, -5.0) == implied_speed_kph(100.0, 0.0)


def test_congestion_bucket_validation():
    with pytest.raises(ValueError):
        congestion_bucket(10.0, 0.0)
    with pytest.raises(ValueError):
        congestion_bucket(-1.0, 60.0)


def test_export_state_rows(tiny_world, tmp_path):
    net = tiny_world.network
    state = tiny_world.hidden_states[0]
    rows = export_state(state, net)
    assert len(rows) == net.n_edges + net.n_nodes
    edge_rows = [r for r in rows if r["entity_kind"] == "edge"]
    node_rows = [r for r in rows if r["entity_kind"] == "node"]
    assert all(r["bucket"] in CONGESTION_BUCKETS for r in edge_rows)
    assert all(r["bucket"] == "" for r in node_rows)
    assert all(float(r["travel_time_s"]) >= 0 for r in rows)

    dest = tmp_path / "state.csv"
    export_state(state, net, dest)
    lines = dest.read_text().strip().splitlines()
    assert lines[0] == "slot,entity_kind,entity_id,travel_time_s,bucket"
    assert len(lines) == len(rows) + 1


def test_export_state_shape_mismatch(tiny_world):
    bad = TrafficState(slot=0, n_slots=4, y_edges=np.zeros(3), y_nodes=np.zeros(2))
    with pytest.raises(ValueError):
        export_state(bad, tiny_world.network)


# ---------------------------------------------------------------- config files

CONFIG_TEXT = """
[world]
grid_rows = 2
grid_cols = 3
n_drivers = 4
trips_per_day = 6
congestion = flat
obs_sigma_s = 0.0
bias_spread_s = 0.0
seed = 5

[model]
time_slots = 8
embed_dim = 8

[federated]
clients_per_round = 4
local_epochs = 2
base_lr = 1e-6
dp_epsilon = inf

[experiment]
days = 1
eval_days = 1
max_rounds = 4

[schedule]
bands = 0-0:24

[attack]
epsilons = inf, 0.1
seeds = 2
"""


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.world.grid_rows == 2
    assert cfg.world.congestion == "flat"
    assert cfg.model.time_slots == 8
    assert cfg.federated.clients_per_round == 4
    assert math.isinf(cfg.federated.dp_epsilon)
    assert cfg.max_rounds == 4
    assert cfg.schedule.bands == ((0.0, 0.0, 24.0),)
    assert cfg.attack.epsilons == (math.inf, 0.1)
    assert cfg.attack.seeds == 2


def test_load_config_rejects_unknown_key(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    for section, key in (("world", "not_a_field"), ("model", "holiday_dim")):
        path.write_text(f"[{section}]\n{key} = 4\n")
        message = f"[{section}] has no setting named {key!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert cli.main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[surprise]\nx = 1\n")
    with pytest.raises(ValueError):
        load_config(path)


def _settings_of(cls):
    return sorted(get_type_hints(cls))


CONFIG_SETTINGS = (
    [("world", key) for key in _settings_of(data.WorldSpec)]
    + [("model", key) for key in _settings_of(model.ModelConfig)]
    + [("federated", key) for key in _settings_of(FederatedConfig)]
    + [("experiment", key) for key in ("days", "eval_days", "max_rounds", "out", "out_dir")]
    + [("schedule", "bands"), ("attack", "epsilons"), ("attack", "k"), ("attack", "rounds"), ("attack", "seeds")]
    + [("world", "no_such_key"), ("schedule", "no_such_key")]
)
SETTING_TEXT = st.one_of(
    NUMERIC_FIELD_TEXT,
    st.sampled_from(["0-24:inf", "0-24:nan", "0-0:24", "0-24:48", "0-24:5e-324", "23-7:4, 7-23:2", "inf, 1", "flat", "50%", "%(x)s"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CONFIG_SETTINGS), SETTING_TEXT), min_size=1, max_size=3, unique_by=lambda s: s[0]))
def test_load_config_returns_a_config_or_names_section_and_key(tmp_path_factory, settings_text):
    outcomes = []
    for ordered in (settings_text, settings_text[::-1]):
        sections: dict = {}
        for (section, key), text in ordered:
            sections.setdefault(section, []).append(f"{key} = {text}")
        path = tmp_path_factory.mktemp("ini") / "exp.ini"
        path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items()), encoding="utf-8")
        try:
            cfg = load_config(path)
        except ValueError as exc:
            message = str(exc)
            assert any(
                message.startswith(f"[{section}] {key}: ") or message == f"[{section}] has no setting named {key!r}"
                for (section, key), _ in settings_text
            ), message
            outcomes.append(ValueError)
        else:
            assert isinstance(cfg, ExperimentConfig)
            outcomes.append(cfg)
    # whether a config loads does not depend on the order of its keys
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("first, second", [("out", "out_dir"), ("out_dir", "out")])
def test_load_config_rejects_out_and_out_dir_together_naming_both(tmp_path, capsys, first, second):
    # both keys set ExperimentConfig.out_dir; neither order may win silently
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\n{first} = {tmp_path / 'a'}\n{second} = {tmp_path / 'b'}\n")
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value).startswith(f"[experiment] {second}: ") and f" {first} " in str(info.value)
    assert cli.main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "section, setting",
    [
        ("federated", "dp_clip = nan"),
        ("federated", "base_lr = nan"),
        ("world", "bias_spread_s = nan"),
        ("schedule", "bands = 0-24:inf"),
        ("schedule", "bands = 0-24:nan"),
        ("schedule", "bands = 0-24:48"),
        ("experiment", "days = x"),
        ("attack", "epsilons = inf, nan"),
    ],
)
def test_load_config_rejects_value_naming_section_and_key(tmp_path, section, setting):
    path = tmp_path / "exp.ini"
    path.write_text(f"[{section}]\n{setting}\n")
    key = setting.split(" = ")[0]
    with pytest.raises(ValueError, match=rf"^\[{section}\] {key}: "):
        load_config(path)


@pytest.mark.parametrize(
    "section, lines",
    [
        ("world", ["speed_min_kph = 80", "speed_max_kph = 100"]),
        ("world", ["walk_min = 10", "walk_max = 12"]),
    ],
)
def test_load_config_checks_a_pair_of_settings_together_in_either_order(tmp_path, section, lines):
    for ordered in (lines, lines[::-1]):
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\n" + "\n".join(ordered) + "\n")
        spec = load_config(path).world
        for line in lines:
            key, value = line.split(" = ")
            assert getattr(spec, key) == int(value)


@pytest.mark.parametrize(
    "lines, key",
    [
        (["speed_min_kph = 80"], "speed_min_kph"),
        (["speed_max_kph = 10", "speed_min_kph = 15"], "speed_max_kph"),
        (["speed_min_kph = 15", "speed_max_kph = 10"], "speed_max_kph"),
        (["speed_min_kph = 80", "speed_max_kph = 100", "obs_sigma_s = -1"], "obs_sigma_s"),
        (["obs_sigma_s = -1", "bias_spread_s = -1"], "obs_sigma_s"),
    ],
)
def test_load_config_names_a_key_the_check_rejects(tmp_path, lines, key):
    path = tmp_path / "exp.ini"
    path.write_text("[world]\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^\[world\] {key}: "):
        load_config(path)


@pytest.mark.parametrize("federated, overflows", [("", False), ("dp_clip = 1e10\n", True)])
def test_load_config_checks_attack_epsilons_at_the_configs_dp_clip(tmp_path, federated, overflows):
    # 2 * dp_clip / 1e-300 is 2e300, finite, at the default dp_clip 1.0 and overflows at 1e10
    path = tmp_path / "exp.ini"
    path.write_text(f"[federated]\n{federated}[attack]\nepsilons = inf, 1e-300\n")
    if not overflows:
        assert load_config(path).attack.epsilons == (math.inf, 1e-300)
        return
    with pytest.raises(ValueError, match=r"^\[attack\] epsilons: dp_epsilon 1e-300 is too small: "):
        load_config(path)


def test_load_config_checks_the_default_attack_epsilons_at_the_configs_dp_clip(tmp_path, capsys):
    # 2 * dp_clip overflows at 1e308, so the default epsilon 100 is too small
    path = tmp_path / "exp.ini"
    path.write_text("[federated]\ndp_clip = 1e308\n")
    with pytest.raises(ValueError, match=r"^\[federated\] dp_clip: dp_epsilon 100.0 is too small: "):
        load_config(path)
    for command in ("train", "attack"):
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: [federated] dp_clip: ")


@pytest.mark.parametrize("text", ["", "[schedule]\n", "[world]\nseed = 3\n[schedule]\n"])
def test_load_config_without_bands_reads_the_default_schedule(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    assert load_config(path).schedule == federated.default_schedule()


MUTATION = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, len(CONFIG_TEXT)), st.integers(0, 255))


@settings(max_examples=300, deadline=None)
@given(st.lists(MUTATION, min_size=1, max_size=4))
def test_load_config_of_a_byte_mutated_file_returns_a_config_or_an_input_error(tmp_path_factory, mutations):
    # cli.main maps exactly these errors to exit 1; anything else would exit 2
    blob = bytearray(CONFIG_TEXT.encode())
    for op, position, byte in mutations:
        position %= len(blob) + 1
        if op == "insert":
            blob.insert(position, byte)
        elif position < len(blob):
            blob[position : position + 1] = bytes([byte]) if op == "replace" else b""
    path = tmp_path_factory.mktemp("ini") / "exp.ini"
    path.write_bytes(bytes(blob))
    try:
        assert isinstance(load_config(path), ExperimentConfig)
    except (ValueError, OSError, configparser.Error):
        pass


def test_parse_bands_default_equivalent():
    sched = parse_bands("23-7:4, 7-9:0.5, 9-17:2, 17-19:0.5, 19-23:2")
    from fedtte.federated import default_schedule

    assert sched.bands == default_schedule().bands


def test_parse_bands_rejects_malformed():
    with pytest.raises(ValueError):
        parse_bands("23-7")
    with pytest.raises(ValueError):
        parse_bands("")


# ---------------------------------------------------------------- run_experiment

def _fast_config(tmp_path=None, **world_overrides):
    world = data.WorldSpec(
        grid_rows=2, grid_cols=2, n_drivers=3, trips_per_day=8,
        congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, time_slots=8, seed=5,
    )
    world = replace(world, **world_overrides)
    return ExperimentConfig(
        world=world,
        model=model.ModelConfig(time_slots=8, embed_dim=8, head_width=8),
        federated=FederatedConfig(clients_per_round=3, local_epochs=2, base_lr=1e-6),
        days=1,
        eval_days=1,
        max_rounds=6,
        out_dir=str(tmp_path) if tmp_path is not None else None,
    )


def test_run_experiment_reports_and_split_audit(tmp_path):
    result = run_experiment(_fast_config(tmp_path / "run"))
    assert set(result.reports) == {"baseline", "global", "personalized"}
    for rep in result.reports.values():
        assert rep.count == len(result.eval_trajectories)
        assert rep.rmse >= rep.mae - 1e-12
        assert rep.per_client

    # the split audit promises zero overlap between train and eval samples
    train_keys = {(t.driver_id, t.departure) for c in result.clients for t in c.trajectories}
    eval_keys = {(t.driver_id, t.departure) for t in result.eval_trajectories}
    assert not train_keys & eval_keys


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    result = run_experiment(_fast_config(out))
    log = out / "round_log.jsonl"
    assert log.exists()
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(entries) == len(result.rounds) <= 6
    for entry, record in zip(entries, result.rounds):
        assert entry == json.loads(json.dumps(asdict(record)))
        assert set(entry) == {field.name for field in fields(federated.RoundRecord)}

    assert (out / "checkpoints" / "global_final.bin").exists()
    preds = (out / "predictions.csv").read_text().splitlines()
    assert preds[0] == ",".join(harness.PREDICTION_FIELDS)
    assert len(preds) == len(result.predictions) + 1
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"baseline", "global", "personalized"}


def test_run_experiment_personalized_prediction_is_base_plus_client_bias(tmp_path):
    out = tmp_path / "run"
    result = run_experiment(_fast_config(out))
    bias = {c.client_id: model.personal_bias(c.profile, c.personal) for c in result.clients}
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["client_id"] for row in rows} <= set(bias)
    for row in rows:
        assert float(row["y_final_s"]) == float(row["y_hat_s"]) + bias[row["client_id"]]


def test_run_experiment_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(_fast_config(out1))
    run_experiment(_fast_config(out2))
    assert (out1 / "round_log.jsonl").read_bytes() == (out2 / "round_log.jsonl").read_bytes()
    assert (out1 / "predictions.csv").read_bytes() == (out2 / "predictions.csv").read_bytes()
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    cp1 = sorted(p.name for p in (out1 / "checkpoints").iterdir())
    cp2 = sorted(p.name for p in (out2 / "checkpoints").iterdir())
    assert cp1 == cp2
    for name in cp1:
        assert (out1 / "checkpoints" / name).read_bytes() == (out2 / "checkpoints" / name).read_bytes()


def test_sub_minute_schedule_writes_one_checkpoint_per_trained_round(tmp_path):
    # one instant every 30 s; labels rounded to minutes made rounds 30 s
    # apart share a checkpoint name, and the later overwrote the earlier
    cfg = replace(
        _fast_config(tmp_path / "run", trips_per_day=60),
        schedule=federated.AggregationSchedule(bands=((0.0, 24.0, 1 / 120),)),
        federated=FederatedConfig(clients_per_round=3, local_epochs=1, base_lr=1e-6, personal_epochs=1),
        max_rounds=None,
    )
    result = run_experiment(cfg)
    trained = [r for r in result.rounds if not r.skipped]
    names = sorted(p.name for p in (tmp_path / "run" / "checkpoints").iterdir())
    assert len(result.rounds) == 2880 and len(trained) > 1
    assert names == sorted([f"global_d{r.day:02d}_{r.time.replace(':', '')}.bin" for r in trained] + ["global_final.bin"])
    assert any(len(r.time) == 8 for r in trained)  # HH:MM:SS


def test_run_experiment_makes_one_traffic_state_pass_per_model(monkeypatch):
    # one per trained round's served state, one per client's localized global
    # model for both its personal pairs and its held-out trips, and one of the
    # initial model for the baseline
    passes = []
    real = model.traffic_state

    def counting(network, params, ctxs):
        passes.append(params)
        return real(network, params, ctxs)

    monkeypatch.setattr(federated, "traffic_state", counting)
    monkeypatch.setattr(harness, "traffic_state", counting)
    result = run_experiment(_fast_config())
    trained = sum(not r.skipped for r in result.rounds)
    assert len(passes) == trained + len(result.clients) + 1
    assert [id(p) for p in passes[trained:-1]] == [id(c.localized_global) for c in result.clients]


def test_run_experiment_train_mae_decreases_single_client():
    # one client, noise off, many local epochs: the first three trained
    # rounds must improve monotonically on their own training windows
    world = data.WorldSpec(
        grid_rows=2, grid_cols=2, n_drivers=1, trips_per_day=12,
        congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, seed=1,
    )
    cfg = ExperimentConfig(
        world=world,
        model=model.ModelConfig(),
        federated=FederatedConfig(clients_per_round=1, local_epochs=20, base_lr=1e-6, seed=0),
        days=1,
        eval_days=1,
    )
    result = run_experiment(cfg)
    maes = [r.train_mae for r in result.rounds if not r.skipped and r.train_mae is not None]
    assert len(maes) >= 3
    assert maes[0] > maes[1] > maes[2]


def test_run_experiment_personalization_noise_floor(small_world):
    # nothing driver-specific to learn at spread 0: the personalized and the
    # localized-global metrics agree up to the personal model's overfit noise
    cfg = ExperimentConfig(
        world=small_world.spec,
        model=model.ModelConfig(),
        federated=FederatedConfig(seed=0),
        days=2,
        eval_days=1,
        max_rounds=30,
    )
    result = run_experiment(cfg)
    base = result.reports["global"]
    personal = result.reports["personalized"]
    assert abs(personal.mae - base.mae) < 0.3 * base.rmse


def test_write_world_files(tmp_path, tiny_world):
    out = tmp_path / "world"
    write_world(tiny_world, out, days=2)
    for name in ("nodes.csv", "edges.csv", "schema.txt", "trajectories_day00.csv", "trajectories_day01.csv"):
        assert (out / name).exists(), name
    back = data.load_trajectories(out / "trajectories_day00.csv", tiny_world.network)
    assert back == data.sample_trajectories(tiny_world, 0)
