"""Laplace differential privacy on uploads, the difference attack, and risk.

The mechanism clamps every parameter coordinate to [-clip, +clip] and adds
independent Laplace(0, b) noise with scale b = 2 * clip / epsilon (the
sensitivity of a clamped coordinate between adjacent inputs is 2 * clip).
epsilon = inf is a bit-exact pass-through. epsilon is per coordinate: each
noised coordinate is epsilon-DP. An upload noises all P coordinates of the
base model, so by basic composition one upload is (P * epsilon)-DP, and a
client's uploads add up the same way (Dwork & Roth 2014, section 3.5). P is
2,980 on the 3x4 default world and 76,658 on a 30x30 grid, so epsilon = 10
means about 29,800 per upload on the default world.

The noise is Generator.laplace's inverse CDF, one uniform U per coordinate
and 0.0 - b*log(2 - U - U) if U >= 0.5 else 0.0 + b*log(U + U), with one
vectorized log; U == 0 is redrawn as NumPy does. Signs and generator advance
match Generator.laplace and values lie within 2 ulp of it, their low bits set
by the NumPy build's SIMD log. Textbook floating-point Laplace noise leaks
through its low-order bits (Mironov, CCS 2012); this is stated, not fixed.

The attack compares the parameters a client uploads at round t against the
global model the server delivered at round t-1: every edge gets a change
score (L2 norm of its row difference across the edge-indexed tables) and the
top-k edges by score, ties broken by ascending edge index, form the revealed
set. Risk is the exactly-counted fraction of the client's truly traveled
edges that the attack recovers. risk_eval runs the federated module's
training round step and attacks the uploads it returns, so the risk is
measured on the uploads training makes. Every simulation starts from its
seed's first trained round (FirstRound, made by _first_round with the same
round step): risk_eval trains its own, and risk_sweep trains one per seed
for all its epsilons. The attack scores the edge-indexed tables
(model.EDGE_INDEXED_TABLES), and a missing schedule is the default one.

This module imports federated like any other caller; federated reaches
this module only where it noises an upload (FederatedConfig.dp_upload).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import data as datamod
from . import federated as fed
from . import nn
from .federated import AggregationSchedule, ClientState, FederatedConfig, Instant, ServerState, default_schedule
from .model import EDGE_INDEXED_TABLES, ModelConfig


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
        if not math.isfinite(self.scale):
            raise ValueError(f"the noise scale 2 * clip_bound / epsilon is {self.scale}, not finite")

    @property
    def scale(self) -> float:
        return 0.0 if math.isinf(self.epsilon) else 2.0 * self.clip_bound / self.epsilon


@dataclass(frozen=True)
class FirstRound:
    """One seed's simulation through its first trained round, shared by the
    simulations of all epsilons at that seed.

    Until the first noised upload those simulations are identical: the same
    initialization, skipped instants, selection key, delivered model and
    local steps. server is a copy of the server at that round before it
    trained (its round_index is the round's), instants are the day's
    instants from the round's on (none when the day trains nothing), and
    trained is what federated.train_round returned for the round at
    epsilon: (client, n_m, upload) per chosen client in client-id order,
    each client holding its trained, un-noised localized model.
    """

    server: ServerState
    instants: list[Instant]
    epsilon: float
    trained: list[tuple[ClientState, int, nn.ParamSet]]

    def uploads_at(self, cfg: FederatedConfig) -> list[tuple[ClientState, int, nn.ParamSet]]:
        """The round's (client, n_m, upload) triples under cfg: at another
        epsilon, the same localized models noised with the same (seed, "dp",
        client, round) streams."""
        if cfg.dp_epsilon == self.epsilon:
            return self.trained
        return [(c, n_m, cfg.dp_upload(c.localized_global.values, c.client_id, self.server.round_index)) for c, n_m, _ in self.trained]


@dataclass(frozen=True)
class AttackReport:
    client_id: str
    k: int
    revealed: tuple[int, ...]  # ranked edge positions, |revealed| <= k
    truth: frozenset[int]
    risk: float


def noise_params(params: nn.ParamSet, cfg: DpConfig, rng: np.random.Generator | None = None) -> nn.ParamSet:
    """Clamp, then add Laplace noise drawn at once over all coordinates in
    sorted-name order: one uniform each, the inverse CDF by one vectorized log,
    U == 0 redrawn as NumPy does (_laplace); epsilon = inf returns bit-exact copies."""
    if math.isinf(cfg.epsilon):
        return nn.clone_params(params)
    if rng is None:
        rng = nn.spawn_rng(cfg.seed, "dp")
    names = sorted(params)
    flat = np.concatenate([np.ravel(params[name]) for name in names])
    noisy = _laplace(rng, cfg.scale, flat.size)
    noisy += np.clip(flat, -cfg.clip_bound, cfg.clip_bound, out=flat)  # IEEE + commutes: clamp + noise
    out: nn.ParamSet = {}
    offset = 0
    for name in names:
        size = params[name].size
        out[name] = noisy[offset : offset + size].reshape(params[name].shape)
        offset += size
    return out


def _laplace(rng: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """rng.laplace(0.0, scale, size) with NumPy's SIMD log (module docstring)."""
    state = rng.bit_generator.state
    u = rng.random(size)
    if not u.all():  # NumPy redraws U == 0; replay the draw through it
        rng.bit_generator.state = state
        return rng.laplace(0.0, scale, size)
    x = 2.0 - u  # log's argument: the smaller of 2.0 - U - U and U + U
    x -= u
    u += u
    np.minimum(x, u, out=x)
    np.log(x, out=x)
    x *= scale
    u -= 1.0  # 2U - 1 carries the branch's sign
    np.copysign(x, u, out=x)
    x += 0.0  # 0.0 +- a product that underflowed to zero is +0.0
    return x


def difference_attack(global_prev: nn.ParamSet, uploaded: nn.ParamSet, k: int) -> list[int]:
    """Top-k edge positions by parameter-change score, ties by ascending index.

    Score per edge = sqrt of the summed squared row differences across the
    edge-indexed tables, model.EDGE_INDEXED_TABLES (rank-1 tables contribute
    a single coordinate).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    missing = [t for t in EDGE_INDEXED_TABLES if t not in global_prev or t not in uploaded]
    if missing:
        raise KeyError(f"edge-indexed tensors missing from parameter sets: {missing}")
    n_edges = len(uploaded[EDGE_INDEXED_TABLES[0]])
    sq = np.zeros(n_edges)
    for name in EDGE_INDEXED_TABLES:
        delta = uploaded[name] - global_prev[name]
        rows = delta.reshape(delta.shape[0], -1)
        if rows.shape[0] != n_edges:
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
    fed_config: FederatedConfig,
    model_cfg: ModelConfig,
    rounds: int = 3,
    k: int = 10,
    seed: int = 0,
    start_values: nn.ParamSet | None = None,
    schedule: AggregationSchedule = default_schedule(),
    records: list | None = None,
    first_round: FirstRound | None = None,
) -> list[AttackReport]:
    """Train one day at one epsilon and attack every upload of its first rounds.

    Runs the training round step (federated.train_round) over the day's
    instants of `schedule` until `rounds` rounds have trained (none when
    rounds < 1), and attacks each upload it returns against the global model
    delivered before the round. Skipped instants advance the round index
    exactly as in training. start_values, when given, seeds the server with
    a previously trained checkpoint instead of a fresh initialization.
    records, when given, are the world's day-0 trajectories
    (data.sample_trajectories(world, 0)), sampled once for several
    simulations; each simulation builds fresh clients from them.

    The simulation starts from first_round, this seed's simulation through
    its first trained round (_first_round). Without one it trains its own at
    this epsilon; risk_sweep passes one built from the same arguments at one
    of its epsilons, and the round's clients' localized models are then
    noised at this epsilon instead of trained again. The reports are the
    same either way.
    """
    cfg = replace(fed_config, dp_epsilon=epsilon, seed=seed)
    if rounds < 1:
        return []
    records = records if records is not None else datamod.sample_trajectories(world, 0)
    if first_round is None:
        kwargs = dict(fed_config=fed_config, model_cfg=model_cfg, start_values=start_values, schedule=schedule, records=records)
        first_round = _first_round(world, epsilon, seed=seed, **kwargs)
    pool = fed.clients_from_records(world, records)
    server = replace(first_round.server)
    reports: list[AttackReport] = []
    done = 0
    for instant in first_round.instants:
        if done >= rounds:
            break
        window = (instant.start, instant.end)
        global_prev = server.global_params.values  # a round replaces it, never writes into it
        if done == 0:
            uploads = first_round.uploads_at(cfg)
            server.advance(uploads)
        else:
            uploads = fed.train_round(server, pool, window, cfg)
        for client, _, upload in uploads:
            truth = frozenset(pos for t in client.in_window(*window) for pos in t.route.edge_positions())
            revealed = difference_attack(global_prev, upload, k)
            reports.append(
                AttackReport(client_id=client.client_id, k=k, revealed=tuple(revealed), truth=truth, risk=attack_risk(truth, revealed))
            )
        if uploads:
            done += 1
    return reports


def _first_round(world, epsilon, *, fed_config, model_cfg, seed, start_values, schedule, records) -> FirstRound:
    """Run one seed's day at epsilon with federated.train_round up to its
    first trained round, and keep that round with the server from before it.
    The server starts from a fresh initialization, or from start_values."""
    cfg = replace(fed_config, dp_epsilon=epsilon, seed=seed)
    server = fed.init_server(world.network, model_cfg, cfg, schedule)
    if start_values is not None:
        nn.assert_congruent(server.global_params.values, start_values)
        server.global_params = server.global_params.with_values(nn.clone_params(start_values))
    pool = fed.clients_from_records(world, records)
    instants = fed.day_instants(server.schedule, day=0)
    for i, instant in enumerate(instants):
        before = replace(server)  # train_round replaces global_params, never writes into them
        trained = fed.train_round(server, pool, (instant.start, instant.end), cfg)
        if trained:
            return FirstRound(before, instants[i:], epsilon, trained)
    return FirstRound(server, [], epsilon, [])


def risk_sweep(
    world,
    epsilons,
    *,
    fed_config: FederatedConfig,
    model_cfg: ModelConfig,
    rounds: int = 3,
    k: int = 10,
    seeds=range(20),
    start_values: nn.ParamSet | None = None,
    schedule: AggregationSchedule = default_schedule(),
) -> tuple[dict[float, float], list[dict]]:
    """Mean attack risk per epsilon over clients and seeds, plus CSV rows:
    for each epsilon in order, one per attacked upload, then an "all" row
    with the epsilon's mean.

    The sweep runs seed by seed, and every (epsilon, seed) simulation is a
    risk_eval call. A seed's simulations differ only from their first
    noised upload on, so its first trained round is trained once, at the
    first epsilon, and shared with all of them (FirstRound). seeds and
    epsilons are each read once, and an epsilon fed_config rejects fails
    before any simulation runs.
    """
    epsilons = [replace(fed_config, dp_epsilon=eps).dp_epsilon for eps in epsilons]  # each checked by FederatedConfig
    records = datamod.sample_trajectories(world, 0)
    blocks: list[list[dict]] = [[] for _ in epsilons]  # per epsilon, its rows in seed order
    kwargs = dict(fed_config=fed_config, model_cfg=model_cfg, start_values=start_values, schedule=schedule, records=records)
    for seed in seeds:
        first = _first_round(world, epsilons[0], seed=seed, **kwargs) if epsilons and rounds > 0 else None
        for eps, block in zip(epsilons, blocks):
            for report in risk_eval(world, eps, rounds=rounds, k=k, seed=seed, first_round=first, **kwargs):
                block.append(
                    {"epsilon": _fmt_eps(eps), "seed": str(seed), "client_id": report.client_id, "k": str(k), "risk": repr(report.risk)}
                )
    rows: list[dict] = []
    means: dict[float, float] = {}
    for eps, block in zip(epsilons, blocks):
        means[eps] = float(np.mean([float(row["risk"]) for row in block])) if block else float("nan")
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
