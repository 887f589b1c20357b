"""Command-line front end.

Subcommands: `generate` writes a synthetic world to disk, `train` runs the
federated experiment and drops its artifacts, `attack` measures difference
attack risk, `export-state` dumps the congestion-bucketed traffic state of a
checkpoint, and `metrics` recomputes error metrics from a prediction dump.

Exit codes: 0 on success, 1 on validation or input errors (including usage
errors), 2 on unexpected runtime failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, time, timedelta
from pathlib import Path

import numpy as np

from . import harness, nn, privacy
from .data import EPOCH_DATE, generate_world
from .harness import PREDICTION_FIELDS, ExperimentConfig, load_config
from .model import BaseModelParams, init_base_params, slot_of_time, traffic_state


def _effective_config(args) -> ExperimentConfig:
    """Config file (when given) with command-line overrides layered on top."""
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    world, fed_cfg = cfg.world, cfg.federated
    if getattr(args, "seed", None) is not None:
        world = replace(world, seed=args.seed)
        fed_cfg = replace(fed_cfg, seed=args.seed)
    if getattr(args, "epsilon", None) is not None:
        fed_cfg = replace(fed_cfg, dp_epsilon=args.epsilon)
    if getattr(args, "clients", None) is not None:
        fed_cfg = replace(fed_cfg, clients_per_round=args.clients)
    if getattr(args, "epochs", None) is not None:
        fed_cfg = replace(fed_cfg, local_epochs=args.epochs)
    cfg = replace(cfg, world=world, federated=fed_cfg)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "days", None) is not None:
        cfg = replace(cfg, days=args.days)
    return cfg


def _cmd_generate(args) -> int:
    cfg = _effective_config(args)
    if cfg.out_dir is None:
        raise ValueError("generate needs --out (or an [experiment] out entry in the config)")
    world = generate_world(cfg.world)
    harness.write_world(world, cfg.out_dir, days=cfg.days)
    print(
        f"wrote {world.network.n_nodes} nodes, {world.network.n_edges} edges, "
        f"{cfg.days} trajectory day(s) to {cfg.out_dir}"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = _effective_config(args)
    if getattr(args, "max_rounds", None) is not None:
        cfg = replace(cfg, max_rounds=args.max_rounds)
    result = harness.run_experiment(cfg)
    trained = sum(1 for r in result.rounds if not r.skipped)
    print(f"ran {len(result.rounds)} rounds ({trained} trained) over {cfg.days} day(s)")
    for name in ("baseline", "global", "personalized"):
        rep = result.reports[name]
        print(f"{name:13s} mae={rep.mae:.3f}s rmse={rep.rmse:.3f}s mape={rep.mape:.3f}% n={rep.count}")
    if result.out_dir is not None:
        print(f"artifacts in {result.out_dir}")
    return 0


def _load_checkpoint_values(cfg: ExperimentConfig, explicit: str | None):
    """(world, values, path): the config's world and the explicit or the run's final checkpoint, or None, None;
    a checkpoint that does not fit the config's base model or holds a non-finite value is an error naming its file."""
    world = generate_world(cfg.world)
    path = explicit
    if path is None and cfg.out_dir is not None:
        final = Path(cfg.out_dir) / "checkpoints" / "global_final.bin"
        path = str(final) if final.exists() else None
    if path is None:
        return world, None, None
    values = nn.load_params(path)
    try:
        nn.assert_congruent(init_base_params(world.network, cfg.model, cfg.federated.seed).values, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for name, v in values.items():
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"{path}: tensor {name!r} has non-finite value {v.flat[bad[0]]} at flat index {bad[0]}")
    return world, values, path


def _cmd_attack(args) -> int:
    cfg = _effective_config(args)
    world, start, source = _load_checkpoint_values(cfg, getattr(args, "checkpoint", None))
    if source is not None:
        print(f"attacking uploads trained from checkpoint {source}")
    settings = cfg.attack
    if getattr(args, "epsilon", None) is not None:
        epsilons, seeds = [args.epsilon], [cfg.federated.seed]
    else:
        epsilons, seeds = settings.epsilons, range(settings.seeds)
    _, rows = privacy.risk_sweep(
        world,
        epsilons,
        fed_config=cfg.federated,
        model_cfg=cfg.model,
        rounds=settings.rounds,
        k=settings.k,
        seeds=seeds,
        start_values=start,
        schedule=cfg.schedule,
    )
    for row in rows:
        if row["seed"] == "all":
            print(f"epsilon={row['epsilon']} mean_risk={float(row['risk']):.4f}")
    if cfg.out_dir is not None:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        dest = Path(cfg.out_dir) / "risk.csv"
        privacy.write_risk_csv(rows, dest)
        print(f"risk table in {dest}")
    return 0


def _cmd_export_state(args) -> int:
    cfg = _effective_config(args)
    try:
        hh, mm = (int(part) for part in args.time.split(":"))
        clock = time(hh, mm)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"--time must be HH:MM, got {args.time!r}") from exc
    try:
        date = EPOCH_DATE + timedelta(days=args.day)
    except OverflowError as exc:
        raise ValueError(f"--day {args.day} is outside the calendar") from exc
    world, values, source = _load_checkpoint_values(cfg, args.checkpoint)
    if values is None:
        raise ValueError("export-state needs --checkpoint or an --out directory holding checkpoints/global_final.bin")
    slot = slot_of_time(datetime.combine(date, clock), cfg.model.time_slots)
    state = traffic_state(world.network, BaseModelParams(cfg.model, values), [slot])[slot]
    if args.csv is not None:
        dest = Path(args.csv)
    elif cfg.out_dir is not None:
        dest = Path(cfg.out_dir) / "traffic_state.csv"
    else:
        dest = Path("traffic_state.csv")
    rows = harness.export_state(state, world.network, dest)
    n_edges = sum(1 for r in rows if r["entity_kind"] == "edge")
    print(f"exported slot {state.slot} ({source}) to {dest}: {n_edges} edges, {len(rows) - n_edges} nodes")
    return 0


def _prediction_values(path, line: int, row: dict) -> list[float]:
    """y_true_s, y_hat_s and y_final_s of one predictions.csv row read by a
    csv.DictReader with restval ""; a missing, extra or non-finite field, a
    y_true_s that is not > 0 and a prediction whose error terms overflow are
    errors naming the file, the line and the column."""
    if None in row:
        raise ValueError(f"{path} line {line}: more fields than the header's {len(PREDICTION_FIELDS)}")
    values = []
    for column in PREDICTION_FIELDS[2:]:
        try:
            values.append(float(row[column]))
        except ValueError:
            values.append(math.nan)
        if not math.isfinite(values[-1]):
            raise ValueError(f"{path} line {line}, {column}: expected a finite number, got {row[column]!r}")
    y = values[0]
    if not y > 0:
        raise ValueError(f"{path} line {line}, y_true_s: expected a travel time > 0 (the MAPE denominator), got {row['y_true_s']!r}")
    for column, prediction in zip(PREDICTION_FIELDS[3:], values[1:]):
        err = abs(prediction - y)
        if not math.isfinite(err * err + err / y * 100.0):  # the row's terms of mae, rmse and mape
            raise ValueError(f"{path} line {line}, {column}: the error of {row[column]!r} against y_true_s overflows")
    return values


def _cmd_metrics(args) -> int:
    path = args.predictions
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""), restval="")
    try:
        if reader.fieldnames != list(PREDICTION_FIELDS):
            raise ValueError(f"{path}: expected header {','.join(PREDICTION_FIELDS)}")
        rows = [_prediction_values(path, reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ValueError(f"{path} line {reader.reader.line_num}: {exc}") from exc  # DictReader's count lags a failed read
    try:
        reports = {
            "global": harness.compute_metrics([(y, y_hat) for y, y_hat, _ in rows], split="global"),
            "personalized": harness.compute_metrics([(y, y_final) for y, _, y_final in rows], split="personalized"),
        }
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for name, rep in reports.items():
        print(f"{name:13s} mae={rep.mae:.3f}s rmse={rep.rmse:.3f}s mape={rep.mape:.3f}% n={rep.count}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps({k: r.as_dict() for k, r in reports.items()}, sort_keys=True, indent=2, allow_nan=False) + "\n")
        print(f"report in {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedtte", description="Federated travel-time estimation sandbox.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        if "config" in names:
            p.add_argument("--config", help="INI config file")
        if "seed" in names:
            p.add_argument("--seed", type=int, help="override world and federated seeds")
        if "epsilon" in names:
            p.add_argument("--epsilon", type=float, help="privacy budget (inf disables noise)")
        if "clients" in names:
            p.add_argument("--clients", type=int, help="clients selected per round")
        if "epochs" in names:
            p.add_argument("--epochs", type=int, help="local epochs per round")
        if "out" in names:
            p.add_argument("--out", help="output directory")
        if "days" in names:
            p.add_argument("--days", type=int, help="simulated training days")

    p = sub.add_parser("generate", help="write a synthetic world and trajectories")
    add_common(p, "config", "seed", "out", "days")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="run the federated experiment")
    add_common(p, "config", "seed", "epsilon", "clients", "epochs", "out", "days")
    p.add_argument("--max-rounds", type=int, dest="max_rounds", help="stop after this many rounds")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="measure difference-attack risk")
    add_common(p, "config", "seed", "epsilon", "out")
    p.add_argument("--checkpoint", help="start from a saved parameter file")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("export-state", help="dump a checkpoint's traffic state as CSV")
    add_common(p, "config", "seed", "out")
    p.add_argument("--checkpoint", help="parameter file to export (default: <out>/checkpoints/global_final.bin)")
    p.add_argument("--time", default="08:00", help="time of day HH:MM (default 08:00)")
    p.add_argument("--day", type=int, default=0, help="simulated day index (default 0)")
    p.add_argument("--csv", help="destination CSV path")
    p.set_defaults(func=_cmd_export_state)

    p = sub.add_parser("metrics", help="recompute metrics from a prediction dump")
    p.add_argument("predictions", help="predictions.csv from a training run")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
