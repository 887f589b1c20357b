"""Laplace differential privacy on uploads, the difference attack, and risk.

The mechanism clamps every parameter coordinate to [-clip, +clip] and adds
independent Laplace(0, b) noise with scale b = 2 * clip / epsilon (the
sensitivity of a clamped coordinate between adjacent inputs is 2 * clip).
epsilon = inf is a bit-exact pass-through. epsilon is per coordinate: each
noised coordinate is epsilon-DP. An upload noises all P coordinates of the
base model, so by basic composition one upload is (P * epsilon)-DP, and a
client's uploads add up the same way (Dwork & Roth 2014, section 3.5). P is
3,180 on the 3x4 default world and 76,858 on a 30x30 grid, so epsilon = 10
means about 31,800 per upload on the default world.

The attack compares the parameters a client uploads at round t against the
global model the server delivered at round t-1: every edge gets a change
score (L2 norm of its row difference across the edge-indexed tables) and the
top-k edges by score, ties broken by ascending edge index, form the revealed
set. Risk is the exactly-counted fraction of the client's truly traveled
edges that the attack recovers. risk_eval runs the federated module's
training round step and attacks the uploads it returns, so the risk is
measured on the uploads training makes. risk_sweep trains each seed's first
round once for all its epsilons (FirstRound).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import data as datamod
from . import nn
from .model import EDGE_INDEXED_TABLES

if TYPE_CHECKING:  # federated imports this module
    from .federated import ClientState, FederatedConfig, Instant, ServerState


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
class FirstRound:
    """One seed's simulation through its first trained round, shared by the
    simulations of all epsilons at that seed.

    Until the first noised upload those simulations are identical: the same
    initialization, skipped instants, selection key, delivered model and
    local steps. server is the server at that round before it trains (its
    round_index is the round's), instants are the day's instants from the
    round's on (none when the day trains nothing), chosen holds the round's
    (client id, n_m) in client-id order and localized the clients' trained,
    un-noised models. uploads are those models noised at epsilon, as
    federated.client_update returned them.
    """

    server: ServerState
    instants: list[Instant]
    chosen: list[tuple[str, int]]
    localized: list[nn.ParamSet]
    epsilon: float
    uploads: list[nn.ParamSet]

    def uploads_at(self, cfg: FederatedConfig, pool: list[ClientState]) -> list[tuple[ClientState, int, nn.ParamSet]]:
        """The round's (client, n_m, upload) triples under cfg, for the
        clients of pool: at another epsilon, the same localized models
        noised with the same (seed, "dp", client, round) streams."""
        uploads = self.uploads
        if cfg.dp_epsilon != self.epsilon:
            uploads = [cfg.dp_upload(values, cid, self.server.round_index) for (cid, _), values in zip(self.chosen, self.localized)]
        by_id = {c.client_id: c for c in pool}
        return [(by_id[cid], n_m, upload) for (cid, n_m), upload in zip(self.chosen, uploads)]


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
    # One clamp and one draw over every coordinate in sorted-name order, split
    # back into tensors: the generator yields the same variates as one draw
    # per tensor in that order.
    names = sorted(params)
    flat = np.concatenate([np.ravel(params[name]) for name in names])
    noisy = np.clip(flat, -cfg.clip_bound, cfg.clip_bound) + rng.laplace(0.0, cfg.scale, size=flat.size)
    out: nn.ParamSet = {}
    offset = 0
    for name in names:
        size = params[name].size
        out[name] = noisy[offset : offset + size].reshape(params[name].shape)
        offset += size
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
    records: list | None = None,
    first_round: FirstRound | None = None,
) -> list[AttackReport]:
    """Train one day at one epsilon and attack every upload of its first rounds.

    Runs the training round step (federated.train_round) over the day's
    instants of `schedule` (the default schedule when None) until `rounds`
    rounds have trained, and attacks each upload it returns against the
    global model delivered before the round. Skipped instants advance the
    round index exactly as in training. start_values, when given, seeds the
    server with a previously trained checkpoint instead of a fresh
    initialization. records, when given, are the world's day-0 trajectories
    (data.sample_trajectories(world, 0)), sampled once for several
    simulations; each simulation builds fresh clients from them.

    first_round, when given, is this seed's simulation through its first
    trained round, built by risk_sweep from the same arguments at one of its
    epsilons. The simulation then starts from a copy of its server, at that
    round, and uploads its localized models noised at this epsilon instead
    of training them again; the reports are the same as without it.
    """
    from . import federated as fed  # runtime import: federated depends on this module

    cfg = replace(fed_config, dp_epsilon=epsilon, seed=seed)
    pool = fed.clients_from_records(world, records if records is not None else datamod.sample_trajectories(world, 0))
    if first_round is None:
        server = _start_server(world, model_cfg, cfg, schedule, start_values)
        instants = fed.day_instants(server.schedule, day=0)
    else:
        server, instants = replace(first_round.server), first_round.instants
    reports: list[AttackReport] = []
    done = 0
    for instant in instants:
        if done >= rounds:
            break
        window = (instant.start, instant.end)
        global_prev = server.global_params.values  # a round replaces it, never writes into it
        if first_round is not None and done == 0:
            uploads = first_round.uploads_at(cfg, pool)
            server.advance(uploads)
        else:
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


def _start_server(world, model_cfg, cfg, schedule, start_values):
    """A simulation's server: a fresh initialization, or start_values."""
    from . import federated as fed

    server = fed.init_server(world.network, model_cfg, cfg, schedule)
    if start_values is not None:
        nn.assert_congruent(server.global_params.values, start_values)
        server.global_params = server.global_params.with_values(nn.clone_params(start_values))
    return server


def _first_round(world, epsilon, *, fed_config, model_cfg, seed, start_values, schedule, holidays, records) -> FirstRound:
    """Walk one seed's day to its first trained round and train that round's
    clients once, their uploads noised at epsilon."""
    from . import federated as fed

    cfg = replace(fed_config, dp_epsilon=epsilon, seed=seed)
    server = _start_server(world, model_cfg, cfg, schedule, start_values)
    pool = fed.clients_from_records(world, records)
    instants = fed.day_instants(server.schedule, day=0)
    for i, instant in enumerate(instants):
        window = (instant.start, instant.end)
        clients = server.choose(pool, window, cfg)
        if clients:
            results = fed.client_update(clients, server.global_params, cfg, window, server.round_index, holidays)
            chosen = [(client.client_id, n_m) for client, (_, n_m) in zip(clients, results)]
            localized = [client.localized_global.values for client in clients]
            return FirstRound(server, instants[i:], chosen, localized, epsilon, [upload for upload, _ in results])
        server.advance([])
    return FirstRound(server, [], [], [], epsilon, [])


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
    for each epsilon in order, one per attacked upload, then an "all" row
    with the epsilon's mean.

    The sweep runs seed by seed, and every (epsilon, seed) simulation is a
    risk_eval call. A seed's simulations differ only from their first
    noised upload on, so its first trained round is trained once, at the
    first epsilon, and shared with all of them (FirstRound). seeds and
    epsilons are each read once.
    """
    epsilons = list(epsilons)
    records = datamod.sample_trajectories(world, 0)
    blocks: list[list[dict]] = [[] for _ in epsilons]  # per epsilon, its rows in seed order
    risks: list[list[float]] = [[] for _ in epsilons]
    kwargs = dict(fed_config=fed_config, model_cfg=model_cfg, start_values=start_values, schedule=schedule, holidays=holidays, records=records)
    for seed in seeds:
        first = _first_round(world, epsilons[0], seed=seed, **kwargs) if epsilons and rounds > 0 else None
        for eps, block, eps_risks in zip(epsilons, blocks, risks):
            for report in risk_eval(world, eps, rounds=rounds, k=k, seed=seed, first_round=first, **kwargs):
                block.append(
                    {"epsilon": _fmt_eps(eps), "seed": str(seed), "client_id": report.client_id, "k": str(k), "risk": repr(report.risk)}
                )
                eps_risks.append(report.risk)
    rows: list[dict] = []
    means: dict[float, float] = {}
    for eps, block, eps_risks in zip(epsilons, blocks, risks):
        means[eps] = float(np.mean(eps_risks)) if eps_risks else float("nan")
        rows += block
        rows.append({"epsilon": _fmt_eps(eps), "seed": "all", "client_id": "all", "k": str(k), "risk": repr(means[eps])})
    return means, rows


def _fmt_eps(eps: float) -> str:
    return "inf" if math.isinf(eps) else repr(float(eps))


def write_risk_csv(rows: list[dict], dest) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epsilon", "seed", "client_id", "k", "risk"])
        writer.writeheader()
        writer.writerows(rows)
