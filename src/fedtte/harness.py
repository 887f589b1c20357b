"""Experiment orchestration, metrics, config files, and traffic-state export.

run_experiment wires the whole pipeline: generate a synthetic world, run the
aggregation schedule over the configured training days, then let every client
download its final base model, extract its profile, and fine-tune a personal
residual model. Evaluation holds out freshly sampled days after the training
span (disjointness is audited by id-set intersection) and reports three
splits: the untrained initialization (baseline), the localized global model
alone, and the personalized combination.

All file writes happen here, from the single orchestrating thread: a JSONL
round log, per-round parameter checkpoints, a prediction dump CSV, and a
metrics JSON. Timestamps in artifacts are simulated aggregation instants, so
identical config and seed reproduce artifacts byte for byte when noise is
off.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import federated as fed
from . import nn
from .data import (
    TrajectoryRecord,
    World,
    WorldSpec,
    extract_profile,
    generate_world,
    route_tokens,
    sample_trajectories,
    save_trajectories,
)
from .federated import (
    AggregationSchedule,
    ClientState,
    FederatedConfig,
    RoundRecord,
    ServerState,
    default_schedule,
)
from .graph import RoadNetwork, save_network
from .model import (
    ModelConfig,
    TrafficState,
    fit_dense_stats,
    init_personal_params,
    personal_bias,
    predict_route,
    slot_of_time,
    traffic_state,
)

PREDICTION_FIELDS = ("client_id", "route_seq", "y_true_s", "y_hat_s", "y_final_s")
CONGESTION_BUCKETS = ("very_congested", "congested", "slow", "unblocked")
SPEED_FLOOR_S = 1.0


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricReport:
    split: str
    mae: float
    rmse: float
    mape: float
    count: int
    per_client: dict[str, "MetricReport"] | None = None

    def as_dict(self) -> dict:
        out = {"split": self.split, "mae": self.mae, "rmse": self.rmse, "mape": self.mape, "count": self.count}
        if self.per_client is not None:
            out["per_client"] = {cid: rep.as_dict() for cid, rep in sorted(self.per_client.items())}
        return out


def compute_metrics(pairs, split: str = "all") -> MetricReport:
    """MAE, RMSE, and MAPE (percent) over (y, prediction) pairs."""
    arr = np.asarray([(float(y), float(p)) for y, p in pairs], dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot compute metrics on an empty sample set")
    y, pred = arr[:, 0], arr[:, 1]
    if np.any(y <= 0):
        raise ValueError("ground-truth travel times must be > 0 (MAPE denominator)")
    err = pred - y
    return MetricReport(
        split=split,
        mae=float(np.mean(np.abs(err))),
        rmse=float(np.sqrt(np.mean(err * err))),
        mape=float(np.mean(np.abs(err) / y) * 100.0),
        count=int(arr.shape[0]),
    )


def grouped_metrics(rows: list[tuple[str, float, float]], split: str) -> MetricReport:
    """Pooled report over (client_id, y, prediction) rows with a per-client breakdown."""
    if not rows:
        raise ValueError("cannot compute metrics on an empty sample set")
    pooled = compute_metrics([(y, p) for _, y, p in rows], split=split)
    per_client = {
        cid: compute_metrics([(y, p) for c, y, p in rows if c == cid], split=f"{split}/{cid}")
        for cid in sorted({r[0] for r in rows})
    }
    return replace(pooled, per_client=per_client)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class AttackSettings:
    epsilons: tuple[float, ...] = (math.inf, 100.0, 10.0, 1.0, 0.1)
    k: int = 10
    rounds: int = 3
    seeds: int = 20

    def __post_init__(self) -> None:
        if self.k < 1 or self.rounds < 1 or self.seeds < 1:
            raise ValueError("attack k, rounds, and seeds must all be >= 1")
        if not all(eps > 0 for eps in self.epsilons):
            raise ValueError("every epsilon must be > 0 (inf disables noise)")


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldSpec = WorldSpec()
    model: ModelConfig = ModelConfig()
    federated: FederatedConfig = FederatedConfig()
    schedule: AggregationSchedule | None = None
    days: int = 1
    eval_days: int = 1
    max_rounds: int | None = None
    out_dir: str | None = None
    attack: AttackSettings = AttackSettings()

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("need at least one simulated training day")
        if self.eval_days < 1:
            raise ValueError("need at least one held-out evaluation day")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1 when set")


_SECTION_CLASSES = {"world": WorldSpec, "model": ModelConfig, "federated": FederatedConfig, "attack": AttackSettings}
_EXPERIMENT_KEYS = {"days": "days", "eval_days": "eval_days", "max_rounds": "max_rounds", "out": "out_dir", "out_dir": "out_dir"}


def _coerce(raw: str, typ: type) -> object:
    if typ is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ in (int, int | None):
        return int(raw)
    if typ is float:
        return float(raw)
    if typ in (str, str | None):
        return raw.strip()
    if typ == tuple[float, ...]:
        return tuple(float(part.strip()) for part in raw.split(","))
    raise ValueError(f"config values of type {typ!r} are not supported")


def _section_items(parser: configparser.ConfigParser, name: str):
    """(key, raw value) pairs of a section; interpolation errors name their key."""
    for key in parser.options(name):
        try:
            raw = parser.get(name, key)
        except configparser.Error as exc:
            raise ValueError(f"[{name}] {key}: {exc}") from exc
        yield key, raw


def _parse_section(parser: configparser.ConfigParser, name: str, cls: type, keys: dict[str, str] | None = None) -> object:
    """The section's dataclass, built once from all of its keys (`keys` maps
    the accepted keys to field names; by default every field is a key).

    A value that does not parse names its key. If the class rejects the values,
    the error names the first key of a smallest set of them that it still
    rejects with the other fields at their defaults, so a check that compares
    two fields holds whatever order the keys are written in.
    """
    hints = get_type_hints(cls)
    keys = keys or {field: field for field in hints}
    kwargs: dict = {}
    key_of: dict[str, str] = {}
    for key, raw in _section_items(parser, name):
        if key not in keys:
            raise ValueError(f"[{name}] has no setting named {key!r}")
        field = keys[key]
        try:
            kwargs[field] = _coerce(raw, hints[field])
        except ValueError as exc:
            raise ValueError(f"[{name}] {key}: {exc}") from exc
        key_of[field] = key
    try:
        return cls(**kwargs)
    except ValueError as exc:
        error = exc
    rejected = kwargs
    for field in reversed(kwargs):
        rest = {f: value for f, value in rejected.items() if f != field}
        try:
            cls(**rest)
        except ValueError as exc:
            rejected, error = rest, exc
    raise ValueError(f"[{name}] {key_of[next(iter(rejected))]}: {error}") from error


def parse_bands(text: str) -> AggregationSchedule:
    """Schedule syntax: comma-separated `start-end:interval` hour triples."""
    bands = []
    for part in text.split(","):
        part = part.strip()
        span, sep, delta = part.partition(":")
        start, sep2, end = span.partition("-")
        if not sep or not sep2:
            raise ValueError(f"band {part!r} is not of the form start-end:interval")
        bands.append((float(start), float(end), float(delta)))
    return AggregationSchedule(bands=tuple(bands))


def load_config(source) -> ExperimentConfig:
    """Read a flat INI config ([world]/[model]/[federated]/[experiment]/[schedule]/[attack]).

    Every invalid value raises ValueError prefixed with "[section] key: ".
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(source, encoding="utf-8") as fh:
        parser.read_file(fh)
    known = set(_SECTION_CLASSES) | {"experiment", "schedule"}
    for section in parser.sections():
        if section not in known:
            raise ValueError(f"unknown config section [{section}]")
    kwargs: dict = {}
    for name, cls in _SECTION_CLASSES.items():
        if parser.has_section(name):
            kwargs[name] = _parse_section(parser, name, cls)
    if parser.has_section("schedule"):
        for key, raw in _section_items(parser, "schedule"):
            if key != "bands":
                raise ValueError(f"[schedule] has no setting named {key!r}")
            try:
                kwargs["schedule"] = parse_bands(raw)
            except ValueError as exc:
                raise ValueError(f"[schedule] bands: {exc}") from exc
    if parser.has_option("attack", "epsilons"):  # each entry's noise scale, at the config's dp_clip
        for eps in kwargs["attack"].epsilons:
            try:
                replace(kwargs.get("federated", FederatedConfig()), dp_epsilon=eps)
            except ValueError as exc:
                raise ValueError(f"[attack] epsilons: {exc}") from exc
    experiment = ExperimentConfig()
    if parser.has_section("experiment"):
        experiment = _parse_section(parser, "experiment", ExperimentConfig, _EXPERIMENT_KEYS)
    return replace(experiment, **kwargs)


# ---------------------------------------------------------------------------
# experiment


@dataclass
class ExperimentResult:
    world: World
    server: ServerState
    clients: list[ClientState]
    rounds: list[RoundRecord]
    reports: dict[str, MetricReport]
    eval_trajectories: list[TrajectoryRecord]
    predictions: list[dict]
    out_dir: Path | None


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    world = generate_world(cfg.world)
    schedule = cfg.schedule if cfg.schedule is not None else default_schedule()
    server = fed.init_server(world.network, cfg.model, cfg.federated, schedule)
    init_params = server.global_params.clone()
    pool = fed.build_clients(world, days=cfg.days)

    out = Path(cfg.out_dir) if cfg.out_dir is not None else None
    if out is not None:
        (out / "checkpoints").mkdir(parents=True, exist_ok=True)

    records: list[RoundRecord] = []
    log_lines: list[str] = []
    instants: list[fed.Instant] = []  # every day's, each window chained from the one before
    for day in range(cfg.days):
        instants += fed.day_instants(schedule, day, instants[-1].end if instants else None)
    for instant in instants[: cfg.max_rounds]:
        record, params, _ = fed.run_round(server, pool, instant, cfg.federated)
        records.append(record)
        log_lines.append(json.dumps(record.as_dict(), sort_keys=True))
        if out is not None and not record.skipped:
            name = f"global_d{instant.day:02d}_{instant.label.replace(':', '')}.bin"
            nn.save_params(params.values, out / "checkpoints" / name)

    # Every client ends the run with a localized global model: participants
    # keep their last locally trained copy, the rest download the final global.
    for client in pool:
        if client.localized_global is None:
            client.localized_global = server.global_params.clone()
    profiles = {
        c.client_id: extract_profile(c.trajectories, world.grid, world.network, cfg.model.profile_arity) for c in pool
    }
    dense_mean, dense_std = fit_dense_stats([profiles[c.client_id] for c in pool])
    for client in pool:
        client.profile = profiles[client.client_id]
        client.personal = init_personal_params(
            world.grid.n_cells,
            world.network.n_edges,
            cfg.model,
            nn.stable_hash(cfg.federated.seed, "personal", client.client_id),
            dense_mean=dense_mean,
            dense_std=dense_std,
        )

    eval_records: list[TrajectoryRecord] = []
    for day in range(cfg.days, cfg.days + cfg.eval_days):
        eval_records.extend(sample_trajectories(world, day))
    train_ids = {(t.driver_id, t.departure) for c in pool for t in c.trajectories}
    eval_ids = {(t.driver_id, t.departure) for t in eval_records}
    leaked = train_ids & eval_ids
    if leaked:
        raise RuntimeError(f"evaluation split overlaps training data on {len(leaked)} trajectories")

    # One pass of each client's localized global model estimates its training
    # trips (the personal phase's pairs) and its held-out trips, one client at
    # a time: every client's states at once held about 14 MB more on the
    # stress workload and set the run's peak memory.
    ordered = sorted(eval_records, key=lambda t: (t.driver_id, t.departure))
    slots = [slot_of_time(traj.departure, cfg.model.time_slots) for traj in ordered]
    held_out = {cid: list(group) for cid, group in itertools.groupby(zip(ordered, slots), key=lambda pair: pair[0].driver_id)}
    pairs, evaluated = [], {}
    for client in pool:
        trips = sorted(client.trajectories, key=lambda t: (t.departure, t.y))
        evals = [traj for traj, _ in held_out.get(client.client_id, [])]
        y_hats = fed.base_predictions(client, trips + evals)
        pairs.append([(traj.y, y_hat) for traj, y_hat in zip(trips, y_hats)])
        evaluated[client.client_id] = client, y_hats[len(trips) :]
    fed.fine_tune_personal(pool, pairs, cfg.federated)

    init_states = traffic_state(world.network, init_params, slots)
    rows: list[tuple[str, float, float, float, float]] = []  # client, y, then baseline, global, personalized
    pred_rows: list[dict] = []
    for cid, group in held_out.items():
        client, y_hats = evaluated[cid]
        bias = personal_bias(client.profile, client.personal)
        for (traj, slot), y_hat in zip(group, y_hats):
            y_init = predict_route(init_states[slot], traj.route)
            y_final = y_hat + bias
            rows.append((traj.driver_id, traj.y, y_init, y_hat, y_final))
            pred_rows.append(
                {
                    "client_id": traj.driver_id,
                    "route_seq": route_tokens(traj.route, world.network),
                    "y_true_s": repr(traj.y),
                    "y_hat_s": repr(y_hat),
                    "y_final_s": repr(y_final),
                }
            )
    reports = {
        split: grouped_metrics([(row[0], row[1], row[k]) for row in rows], split)
        for k, split in enumerate(("baseline", "global", "personalized"), start=2)
    }

    if out is not None:
        with open(out / "round_log.jsonl", "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(log_lines) + "\n")
        nn.save_params(server.global_params.values, out / "checkpoints" / "global_final.bin")
        with open(out / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(PREDICTION_FIELDS))
            writer.writeheader()
            writer.writerows(pred_rows)
        payload = {name: rep.as_dict() for name, rep in reports.items()}
        with open(out / "metrics.json", "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")

    return ExperimentResult(
        world=world,
        server=server,
        clients=pool,
        rounds=records,
        reports=reports,
        eval_trajectories=eval_records,
        predictions=pred_rows,
        out_dir=out,
    )


def write_world(world: World, out_dir, days: int = 1) -> None:
    """Dump the road network and per-day trajectory files for external use."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_network(world.network, out / "nodes.csv", out / "edges.csv", out / "schema.txt")
    for day in range(days):
        save_trajectories(sample_trajectories(world, day), world.network, out / f"trajectories_day{day:02d}.csv")


# ---------------------------------------------------------------------------
# traffic-state export


def implied_speed_kph(length_m: float, travel_time_s: float, floor_s: float = SPEED_FLOOR_S) -> float:
    """Speed implied by an edge estimate, with a floor to survive Y <= 0."""
    return length_m / max(travel_time_s, floor_s) * 3.6


def congestion_bucket(speed_kph: float, limit_kph: float) -> str:
    """Quarter [0, limit): very_congested / congested / slow / unblocked (to inf)."""
    if limit_kph <= 0:
        raise ValueError("speed limit must be > 0")
    if speed_kph < 0:
        raise ValueError("speed must be >= 0")
    return CONGESTION_BUCKETS[min(int(speed_kph // (limit_kph / 4.0)), 3)]


def export_state(state: TrafficState, network: RoadNetwork, dest=None) -> list[dict]:
    """Per-entity travel times with per-edge congestion buckets, optionally as CSV.

    Node rows carry no bucket: the coloring convention applies to road
    segments only.
    """
    if len(state.y_edges) != network.n_edges or len(state.y_nodes) != network.n_nodes:
        raise ValueError("traffic state does not match the network shape")
    rows: list[dict] = []
    for kind, records, ys in (("edge", network.edges, state.y_edges), ("node", network.nodes, state.y_nodes)):
        for rec, y in zip(records, ys.tolist()):
            rows.append(
                {
                    "slot": str(state.slot),
                    "entity_kind": kind,
                    "entity_id": str(rec.id),
                    "travel_time_s": repr(max(y, 0.0)),
                    "bucket": congestion_bucket(implied_speed_kph(rec.length_m, y), rec.speed_limit_kph) if kind == "edge" else "",
                }
            )
    if dest is not None:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["slot", "entity_kind", "entity_id", "travel_time_s", "bucket"])
            writer.writeheader()
            writer.writerows(rows)
    return rows
