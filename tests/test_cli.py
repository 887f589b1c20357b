"""Command-line interface tests, driven through cli.main(argv)."""

import csv
import filecmp
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import cli, nn
from fedtte.data import generate_world
from fedtte.harness import load_config
from fedtte.model import init_base_params

CONFIG_TEXT = """
[world]
grid_rows = 2
grid_cols = 3
n_drivers = 4
trips_per_day = 6
congestion = flat
obs_sigma_s = 0.0
bias_spread_s = 0.0
time_slots = 8
seed = 5

[model]
time_slots = 8
embed_dim = 8
head_width = 8

[federated]
clients_per_round = 4
local_epochs = 2
base_lr = 1e-6

[experiment]
days = 1
max_rounds = 4

[attack]
epsilons = inf, 0.1
seeds = 2
rounds = 1
k = 5
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    return path


def _dir_equal(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files:
        return False
    return all(_dir_equal(a / sub, b / sub) for sub in cmp.common_dirs)


def test_generate_twice_identical(tmp_path, config_file):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["generate", "--config", str(config_file), "--out", str(out1)]) == 0
    assert cli.main(["generate", "--config", str(config_file), "--out", str(out2)]) == 0
    assert _dir_equal(out1, out2)


def test_train_writes_artifacts_and_prints_metrics(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "rounds" in stdout
    for split in ("baseline", "global", "personalized"):
        assert split in stdout
    assert (out / "round_log.jsonl").exists()
    assert (out / "checkpoints" / "global_final.bin").exists()
    assert (out / "predictions.csv").exists()
    assert (out / "metrics.json").exists()


def test_train_then_attack_uses_checkpoint(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 0
    assert cli.main(["attack", "--config", str(config_file), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "checkpoint" in stdout
    risk_csv = out / "risk.csv"
    assert risk_csv.exists()
    with open(risk_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"epsilon", "seed", "client_id", "k", "risk"}
    aggregates = [r for r in rows if r["seed"] == "all"]
    assert {r["epsilon"] for r in aggregates} == {"inf", "0.1"}


def test_attack_single_epsilon_without_checkpoint(tmp_path, config_file):
    out = tmp_path / "atk"
    assert cli.main(["attack", "--config", str(config_file), "--out", str(out), "--epsilon", "inf"]) == 0
    assert (out / "risk.csv").exists()


def test_export_state_from_checkpoint(tmp_path, config_file):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config_file), "--out", str(out)]) == 0
    dest = tmp_path / "state.csv"
    assert (
        cli.main(
            ["export-state", "--config", str(config_file), "--out", str(out), "--time", "08:00", "--csv", str(dest)]
        )
        == 0
    )
    with open(dest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"slot", "entity_kind", "entity_id", "travel_time_s", "bucket"}


@pytest.mark.parametrize("size", [10, 30])
def test_export_state_truncated_checkpoint_exits_1(tmp_path, config_file, capsys, size):
    path = tmp_path / "cut.bin"
    path.write_bytes(nn.serialize_params({"w": np.zeros((4, 4)), "b": np.zeros(4)})[:size])
    assert cli.main(["export-state", "--config", str(config_file), "--checkpoint", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncated" in err


@pytest.mark.parametrize("command", ["export-state", "attack"])
def test_a_non_finite_checkpoint_exits_1_naming_file_tensor_and_index(tmp_path, config_file, capsys, command):
    cfg = load_config(config_file)
    values = init_base_params(generate_world(cfg.world).network, cfg.model, cfg.federated.seed).values
    values["head_e.b"][3] = np.nan
    path = tmp_path / "corrupt.bin"
    nn.save_params(values, path)
    extra = ["--epsilon", "inf"] if command == "attack" else []
    assert cli.main([command, "--config", str(config_file), "--checkpoint", str(path), *extra]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and str(path) in err and "'head_e.b'" in err and "flat index 3" in err
    assert "risk" not in out


def _old_layout_checkpoint(cfg, path):
    # the base model with the day-of-week and holiday context of the paper's
    # attention: temporal.w with 7 + K + 4 rows, plus temporal.b and temporal.holiday
    values = init_base_params(generate_world(cfg.world).network, cfg.model, cfg.federated.seed).values
    k, width = values["temporal.w"].shape
    values.update({"temporal.w": np.zeros((7 + k + 4, width)), "temporal.b": np.zeros(width), "temporal.holiday": np.zeros((2, 4))})
    nn.save_params(values, path)


def _corrupt_name_checkpoint(cfg, path):
    values = init_base_params(generate_world(cfg.world).network, cfg.model, cfg.federated.seed).values
    blob = bytearray(nn.serialize_params(values))
    blob[blob.index(b"head_e.b")] = 0xFF  # not UTF-8
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("command", ["export-state", "attack"])
@pytest.mark.parametrize(
    "write, message",
    [(_old_layout_checkpoint, "only-right=['temporal.b', 'temporal.holiday']"), (_corrupt_name_checkpoint, "utf-8")],
    ids=["old-layout", "corrupt-name"],
)
def test_a_checkpoint_that_does_not_load_exits_1_naming_its_file(tmp_path, config_file, capsys, command, write, message):
    path = tmp_path / "checkpoint.bin"
    write(load_config(config_file), path)
    extra = ["--epsilon", "inf"] if command == "attack" else []
    assert cli.main([command, "--config", str(config_file), "--checkpoint", str(path), *extra]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {path}: ") and message in err
    assert "risk" not in out


@pytest.mark.parametrize(
    "row, message",
    [
        ("d000,e0,100.0", "line 3, y_hat_s: expected a finite number, got ''"),
        ("d000,e0,nan,90.0,95.0", "line 3, y_true_s: expected a finite number, got 'nan'"),
        ("d000,e0,100.0,abc,95.0", "line 3, y_hat_s: expected a finite number, got 'abc'"),
        ("d000,e0,100.0,90.0,95.0,1", "line 3: more fields than the header's 5"),
    ],
    ids=["short-row", "nan", "not-a-number", "long-row"],
)
def test_metrics_rejects_a_malformed_row_naming_file_line_and_column(tmp_path, capsys, row, message):
    dump = tmp_path / "predictions.csv"
    dump.write_text(f"client_id,route_seq,y_true_s,y_hat_s,y_final_s\nd001,e1,250.0,250.0,250.0\n{row}\n")
    assert cli.main(["metrics", str(dump)]) == 1
    assert capsys.readouterr().err == f"error: {dump} {message}\n"


def test_metrics_on_perfect_dump_reports_zeros(tmp_path, capsys):
    dump = tmp_path / "predictions.csv"
    with open(dump, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "route_seq", "y_true_s", "y_hat_s", "y_final_s"])
        writer.writerow(["d000", "e0", "100.0", "100.0", "100.0"])
        writer.writerow(["d001", "e1|v1|e2", "250.0", "250.0", "250.0"])
    assert cli.main(["metrics", str(dump)]) == 0
    stdout = capsys.readouterr().out
    assert "mae=0" in stdout.replace(" ", "")


def test_metrics_json_output(tmp_path):
    dump = tmp_path / "predictions.csv"
    with open(dump, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id", "route_seq", "y_true_s", "y_hat_s", "y_final_s"])
        writer.writerow(["d000", "e0", "100.0", "90.0", "95.0"])
    report_path = tmp_path / "report.json"
    assert cli.main(["metrics", str(dump), "--json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["global"]["mae"] == pytest.approx(10.0)
    assert report["personalized"]["mae"] == pytest.approx(5.0)


def test_metrics_rejects_wrong_header(tmp_path, capsys):
    dump = tmp_path / "bad.csv"
    dump.write_text("a,b\n1,2\n")
    assert cli.main(["metrics", str(dump)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_is_reported_not_raised(tmp_path, capsys):
    assert cli.main(["metrics", str(tmp_path / "nope.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero(capsys):
    assert cli.main(["train", "--not-a-flag"]) == 1
    capsys.readouterr()


def test_no_subcommand_exits_nonzero(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_train_rejects_a_schedule_band_with_too_many_instants(tmp_path, capsys):
    # 24e9 instants a day would make the run hang building the schedule
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT + "\n[schedule]\nbands = 0-24:1e-9\n")
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "[schedule] bands" in err and "0.0-24.0" in err and "86400" in err


def test_generate_requires_out(capsys):
    assert cli.main(["generate"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("bands", ["0-0:24", "0-12:6, 12-0:12"])
def test_attack_reads_the_uploads_training_makes_under_the_configured_schedule(tmp_path, monkeypatch, bands):
    # "0-0:24" has one instant a day, at midnight, so day 0 trains nothing;
    # "0-12:6, 12-0:12" trains at 06:00 and 12:00. The attack must replay
    # exactly those rounds, not the default schedule's.
    from fedtte import federated

    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace("rounds = 1", "rounds = 3") + f"\n[schedule]\nbands = {bands}\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(path), "--out", str(out), "--epsilon", "1"]) == 0
    records = [json.loads(line) for line in (out / "round_log.jsonl").read_text().splitlines()]
    trained = [client["digest"] for record in records if not record["skipped"] for client in record["clients"]]

    attacked = []
    client_update = federated.client_update

    def recording_update(*args, **kwargs):
        results = client_update(*args, **kwargs)
        attacked.extend(nn.params_digest(upload) for upload, _ in results)
        return results

    monkeypatch.setattr(federated, "client_update", recording_update)
    assert cli.main(["attack", "--config", str(path), "--epsilon", "1"]) == 0
    assert attacked == trained
    assert bool(trained) == (bands != "0-0:24")


def test_train_rejects_an_epsilon_whose_noise_scale_overflows(tmp_path, config_file, capsys):
    # 2 * dp_clip / 1e-320 is inf: noise of that scale would make every metric NaN
    assert cli.main(["train", "--config", str(config_file), "--out", str(tmp_path / "run"), "--epsilon", "1e-320"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dp_epsilon 1e-320" in err and "overflows" in err
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("lines", [["dp_epsilon = 1e-300", "dp_clip = 1e10"], ["dp_clip = 1e10", "dp_epsilon = 1e-300"]])
def test_a_config_whose_noise_scale_overflows_exits_1_naming_dp_epsilon(tmp_path, capsys, lines):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace("[federated]\n", "[federated]\n" + "\n".join(lines) + "\n"))
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [federated] dp_") and "dp_epsilon 1e-300 is too small" in err


def test_attack_rejects_an_overflowing_epsilon_before_any_simulation(tmp_path, monkeypatch, capsys):
    from fedtte import federated

    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace("epsilons = inf, 0.1", "epsilons = inf, 0.1, 1e-320"))
    calls = []
    monkeypatch.setattr(federated, "client_update", lambda *args, **kwargs: calls.append(args))
    assert cli.main(["attack", "--config", str(path), "--out", str(tmp_path / "atk")]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dp_epsilon 1e-320" in err
    assert not (tmp_path / "atk" / "risk.csv").exists()


def test_export_state_day_outside_the_calendar_exits_1_naming_day(tmp_path, config_file, capsys):
    assert cli.main(["train", "--config", str(config_file), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert cli.main(["export-state", "--config", str(config_file), "--out", str(tmp_path / "run"), "--day", "999999999"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --day 999999999")


def test_export_state_exits_0_or_1_for_any_day_and_time(tmp_path, config_file, capsys):
    cfg = load_config(config_file)
    checkpoint = tmp_path / "init.bin"
    nn.save_params(init_base_params(generate_world(cfg.world).network, cfg.model, cfg.federated.seed).values, checkpoint)
    clock = st.one_of(st.text(max_size=8), st.builds("{}:{}".format, st.integers(-30, 30), st.integers(-70, 70)))

    @settings(max_examples=60, deadline=None)
    @given(day=st.integers(-10**9, 10**9), time_text=clock)
    def run(day, time_text):
        argv = ["export-state", "--config", str(config_file), "--checkpoint", str(checkpoint), "--csv", str(tmp_path / "state.csv")]
        assert cli.main([*argv, f"--day={day}", f"--time={time_text}"]) in (0, 1)
        capsys.readouterr()

    run()
