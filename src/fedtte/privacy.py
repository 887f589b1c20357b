"""Laplace differential privacy on uploads, the difference attack, and risk.

The mechanism clamps every parameter coordinate to [-clip, +clip] and adds
independent Laplace(0, b) noise with scale b = 2 * clip / epsilon (the
sensitivity of a clamped coordinate between adjacent inputs is 2 * clip).
epsilon = inf is a bit-exact pass-through. Privacy is spent per upload; no
composition accounting is performed.

The attack compares the parameters a client uploads at round t against the
global model the server delivered at round t-1: every edge gets a change
score (L2 norm of its row difference across the edge-indexed tables) and the
top-k edges by score, ties broken by ascending edge index, form the revealed
set. Risk is the exactly-counted fraction of the client's truly traveled
edges that the attack recovers. risk_eval runs the federated module's
training round step and attacks the uploads it returns, so the risk is
measured on the uploads training makes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .model import EDGE_INDEXED_TABLES


@dataclass(frozen=True)
class DpConfig:
    epsilon: float
    clip_bound: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be > 0 (math.inf disables noising)")
        if not (self.clip_bound > 0):
            raise ValueError("clip_bound must be > 0")

    @property
    def scale(self) -> float:
        return 0.0 if math.isinf(self.epsilon) else 2.0 * self.clip_bound / self.epsilon


@dataclass(frozen=True)
class AttackReport:
    client_id: str
    k: int
    revealed: tuple[int, ...]  # ranked edge positions, |revealed| <= k
    truth: frozenset[int]
    risk: float


def noise_params(params: nn.ParamSet, cfg: DpConfig, rng: np.random.Generator | None = None) -> nn.ParamSet:
    """Clamp-then-noise every coordinate; epsilon = inf returns the input
    values unchanged (bit-exact copies)."""
    if math.isinf(cfg.epsilon):
        return nn.clone_params(params)
    if rng is None:
        rng = nn.spawn_rng(cfg.seed, "dp")
    scale = cfg.scale
    out: nn.ParamSet = {}
    for name in sorted(params):
        clamped = np.clip(params[name], -cfg.clip_bound, cfg.clip_bound)
        out[name] = clamped + rng.laplace(0.0, scale, size=params[name].shape)
    return out


def difference_attack(
    global_prev: nn.ParamSet,
    uploaded: nn.ParamSet,
    k: int,
    table_names: tuple[str, ...] = EDGE_INDEXED_TABLES,
) -> list[int]:
    """Top-k edge positions by parameter-change score, ties by ascending index.

    Score per edge = sqrt of the summed squared row differences across the
    edge-indexed tables (rank-1 tables contribute a single coordinate).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not table_names:
        raise ValueError("need at least one edge-indexed table to attack")
    missing = [t for t in table_names if t not in global_prev or t not in uploaded]
    if missing:
        raise KeyError(f"edge-indexed tensors missing from parameter sets: {missing}")
    n_edges = None
    sq = None
    for name in table_names:
        delta = uploaded[name] - global_prev[name]
        rows = delta.reshape(delta.shape[0], -1)
        if n_edges is None:
            n_edges = rows.shape[0]
            sq = np.zeros(n_edges)
        elif rows.shape[0] != n_edges:
            raise ValueError(f"table {name!r} has {rows.shape[0]} rows, expected {n_edges}")
        sq += np.sum(rows * rows, axis=1)
    scores = np.sqrt(sq)
    order = np.lexsort((np.arange(n_edges), -scores))
    return [int(i) for i in order[: min(k, n_edges)]]


def attack_risk(truth: frozenset[int] | set[int], revealed) -> float:
    """|truth intersect revealed| / |truth|, exactly."""
    truth_set = set(truth)
    if not truth_set:
        raise ValueError("ground-truth edge set must be non-empty")
    return len(truth_set & set(revealed)) / len(truth_set)


# ---------------------------------------------------------------------------
# attack simulation over federated rounds


def risk_eval(
    world,
    epsilon: float,
    *,
    fed_config,
    model_cfg,
    rounds: int = 3,
    k: int = 10,
    seed: int = 0,
    start_values: nn.ParamSet | None = None,
    schedule=None,
    holidays: frozenset = frozenset(),
) -> list[AttackReport]:
    """Train one day at one epsilon and attack every upload of its first rounds.

    Runs the training round step (federated.train_round) over the day's
    instants of `schedule` (the default schedule when None) until `rounds`
    rounds have trained, and attacks each upload it returns against the
    global model delivered before the round. Skipped instants advance the
    round index exactly as in training. start_values, when given, seeds the
    server with a previously trained checkpoint instead of a fresh
    initialization.
    """
    from . import federated as fed  # runtime import: federated depends on this module

    cfg = replace(fed_config, dp_epsilon=epsilon, seed=seed)
    pool = fed.build_clients(world, days=1)
    server = fed.init_server(world.network, model_cfg, cfg, schedule)
    if start_values is not None:
        nn.assert_congruent(server.global_params.values, start_values)
        server.global_params = server.global_params.with_values(nn.clone_params(start_values))
    reports: list[AttackReport] = []
    done = 0
    for instant in fed.day_instants(server.schedule, day=0):
        if done >= rounds:
            break
        window = (instant.start, instant.end)
        global_prev = server.global_params.values  # train_round replaces it, never writes into it
        uploads = fed.train_round(server, pool, window, cfg, holidays)
        for client, _, upload in uploads:
            truth = frozenset(pos for t in client.in_window(*window) for pos in t.route.edge_positions())
            revealed = difference_attack(global_prev, upload, k)
            reports.append(
                AttackReport(client_id=client.client_id, k=k, revealed=tuple(revealed), truth=truth, risk=attack_risk(truth, revealed))
            )
        if uploads:
            done += 1
    return reports


def risk_sweep(
    world,
    epsilons,
    *,
    fed_config,
    model_cfg,
    rounds: int = 3,
    k: int = 10,
    seeds=range(20),
    start_values: nn.ParamSet | None = None,
    schedule=None,
    holidays: frozenset = frozenset(),
) -> tuple[dict[float, float], list[dict]]:
    """Mean attack risk per epsilon over clients and seeds, plus CSV rows:
    one per attacked upload, then an "all" row with the epsilon's mean."""
    rows: list[dict] = []
    means: dict[float, float] = {}
    for eps in epsilons:
        risks = []
        for seed in seeds:
            for report in risk_eval(
                world, eps, fed_config=fed_config, model_cfg=model_cfg, rounds=rounds, k=k, seed=seed,
                start_values=start_values, schedule=schedule, holidays=holidays,
            ):
                rows.append(
                    {"epsilon": _fmt_eps(eps), "seed": str(seed), "client_id": report.client_id, "k": str(k), "risk": repr(report.risk)}
                )
                risks.append(report.risk)
        means[eps] = float(np.mean(risks)) if risks else float("nan")
        rows.append({"epsilon": _fmt_eps(eps), "seed": "all", "client_id": "all", "k": str(k), "risk": repr(means[eps])})
    return means, rows


def _fmt_eps(eps: float) -> str:
    return "inf" if math.isinf(eps) else repr(float(eps))


def write_risk_csv(rows: list[dict], dest) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epsilon", "seed", "client_id", "k", "risk"])
        writer.writeheader()
        writer.writerows(rows)
