"""Schedule-driven federated training: selection, local SGD, aggregation.

One aggregation round at schedule instant t: clients with at least one
trajectory departing in the elapsed window [previous instant, t) are
eligible; a uniform subset of them copies the delivered global model, runs
local epochs of per-trajectory SGD on the base loss, noises the result per
the privacy config, and uploads it with its in-window sample count n_m. The
chosen clients are trained in lockstep on stacked (C, ...) copies of the
delivered model, step j of an epoch taking trajectory j of every client
that has one; each client's steps, skips and noise are its own, so its
upload is the same whichever other clients are chosen. Step j's receptive
fields are built once for all epochs. The stack is one flat (C, P) buffer
with a named (C, ...) view per tensor (nn.FlatStack), and base_loss writes
its gradients into another and reports the columns it wrote, so a step
checks and updates those columns of a single tensor; the localized models
that outlive the round are copied out of the stack. The
server folds the uploads into F <- sum (n_m / n) f_m in canonical client-id
order, refreshes the served traffic state at the instant's slot, and records
the round. Travel-time queries arriving before the next instant are answered
from that state. train_round is the training half of a round (selection,
local updates, aggregation) and run_round adds the state and the record;
the privacy module's attack runs train_round, a sweep's shared first round
included, so it reads the uploads that training makes.

The day is partitioned into bands with per-band aggregation intervals; the
default schedule densifies during the rush bands (16 instants per day).

Client selection draws a per-round key from the supplied generator and ranks
clients by a keyed hash, so the chosen subset is uniform, deterministic under
the seed, and insensitive to pool order or to the presence of non-selected
clients.

After training, every client fine-tunes its personal residual model with
plain per-pair SGD on given (y, y_hat) pairs, y_hat coming from the one
base_predictions pass of its localized global model that also serves the
evaluation. It is stepped in lockstep the same way on the clients' working
sets: the embedding rows their profiles read and their dense tensors, in one
flat buffer, so a step checks and updates a single tensor; personal_loss
runs the working set's forward and backward closures. Both phases check
steps with _steps_ok and update with nn.sgd_step, each on its one flat buffer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from datetime import datetime, time, timedelta

import numpy as np

from . import data as datamod
from . import nn
from .data import EPOCH_DATE, TrajectoryRecord, World
from .graph import RoadNetwork
from .model import (
    BaseModelParams,
    ModelConfig,
    PersonalModelParams,
    TrafficState,
    base_loss,
    init_base_params,
    personal_loss,
    personal_working_set,
    predict_route,
    slot_of_time,
    traffic_state,
)
from .privacy import DpConfig, noise_params


@dataclass(frozen=True)
class FederatedConfig:
    clients_per_round: int = 10
    local_epochs: int = 2
    base_lr: float = 1e-6
    personal_epochs: int = 300
    personal_lr: float = 3e-4
    dp_epsilon: float = math.inf
    dp_clip: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients_per_round < 1:
            raise ValueError("clients_per_round must be >= 1")
        if self.local_epochs < 1 or self.personal_epochs < 1:
            raise ValueError("epoch counts must be >= 1")
        if not (0 <= self.base_lr < math.inf and 0 <= self.personal_lr < math.inf):
            raise ValueError("learning rates must be finite and >= 0")
        if not (self.dp_epsilon > 0):
            raise ValueError("dp_epsilon must be > 0 (math.inf disables noise)")
        if not (0 < self.dp_clip < math.inf):
            raise ValueError("dp_clip must be finite and > 0")
        if self.dp_epsilon < math.inf and not math.isfinite(2.0 * self.dp_clip / self.dp_epsilon):
            raise ValueError(f"dp_epsilon {self.dp_epsilon!r} is too small: the noise scale 2 * dp_clip / dp_epsilon overflows")

    def dp_upload(self, localized: nn.ParamSet, client_id: str, round_index: int) -> nn.ParamSet:
        """What a client uploads of its localized model in a round: the model
        clamped and Laplace-noised per this config (privacy.noise_params),
        with the client's own (seed, "dp", client, round) stream."""
        dp = DpConfig(epsilon=self.dp_epsilon, clip_bound=self.dp_clip, seed=self.seed)
        return noise_params(localized, dp, rng=nn.spawn_rng(self.seed, "dp", client_id, round_index))


@dataclass
class ClientState:
    """A client's private data and models; trajectories never leave it."""

    client_id: str
    network: RoadNetwork
    trajectories: list[TrajectoryRecord] = field(default_factory=list)
    profile: object = None
    localized_global: BaseModelParams | None = None
    personal: PersonalModelParams | None = None

    def in_window(self, start: datetime, end: datetime) -> list[TrajectoryRecord]:
        return [t for t in self.trajectories if start <= t.departure < end]


# One aggregation a second. instants() lists every instant of the day, so a
# finer interval would make a run hang building the list instead of failing.
_MAX_INSTANTS = 86_400


@dataclass(frozen=True)
class AggregationSchedule:
    """Day bands (start hour, end hour, interval hours); bands partition
    [0, 24) and each interval divides its band's length. A band contributes
    instants start, start + delta, ..., end - delta."""

    bands: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.bands:
            raise ValueError("schedule needs at least one band")
        total = 0.0
        ordered = sorted(self.bands, key=lambda b: b[0] % 24)
        for start, end, delta in self.bands:
            if not all(math.isfinite(x) for x in (start, end, delta)):
                raise ValueError(f"band {start}-{end}:{delta}: hours and interval must be finite")
            length = (end - start) % 24 or 24.0
            if not (delta > 0):
                raise ValueError(f"band {start}-{end}: interval must be > 0")
            quotient = length / delta
            if not math.isfinite(quotient):
                raise ValueError(f"band {start}-{end}: interval {delta} is too small")
            if round(quotient) < 1:
                raise ValueError(f"band {start}-{end}: interval {delta} yields no instant in length {length}")
            if quotient > _MAX_INSTANTS:
                raise ValueError(f"band {start}-{end}: interval {delta} yields more than {_MAX_INSTANTS} instants a day")
            if abs(quotient - round(quotient)) > 1e-9:
                raise ValueError(f"band {start}-{end}: interval {delta} does not divide length {length}")
            total += length
        if abs(total - 24.0) > 1e-9:
            raise ValueError(f"bands cover {total} hours, expected exactly 24")
        for i, (start, end, _) in enumerate(ordered):
            nxt = ordered[(i + 1) % len(ordered)][0] % 24
            if abs((end % 24) - nxt) > 1e-9:
                raise ValueError(f"bands do not partition the day: {end % 24} != {nxt}")

    @cached_property
    def _band_of(self) -> dict[float, str]:
        """Each aggregation time-of-day in hours, ascending, to its band's label."""
        out: dict[float, str] = {}
        for start, end, delta in self.bands:
            length = (end - start) % 24 or 24.0
            for i in range(int(round(length / delta))):
                out.setdefault(round((start + i * delta) % 24, 9), f"{_fmt_hour(start)}-{_fmt_hour(end)}")
        return dict(sorted(out.items()))

    def instants(self) -> list[float]:
        """Sorted aggregation times-of-day in hours."""
        return list(self._band_of)


def _fmt_hour(h: float) -> str:
    """HH:MM of a time of day in hours, from its rounded whole seconds, and
    :SS when those are not 0, so instants a second apart differ."""
    minutes, seconds = divmod(round(h % 24 * 3600) % 86_400, 60)
    label = f"{minutes // 60:02d}:{minutes % 60:02d}"
    return f"{label}:{seconds:02d}" if seconds else label


def default_schedule() -> AggregationSchedule:
    """Dense half-hourly aggregation in the rush bands, sparse overnight."""
    return AggregationSchedule(
        bands=(
            (23.0, 7.0, 4.0),
            (7.0, 9.0, 0.5),
            (9.0, 17.0, 2.0),
            (17.0, 19.0, 0.5),
            (19.0, 23.0, 2.0),
        )
    )


@dataclass(frozen=True)
class Instant:
    """One aggregation instant, its elapsed training window [start, end)
    and the label of its schedule band."""

    day: int
    hour: float
    start: datetime
    end: datetime
    band: str

    @property
    def label(self) -> str:
        return _fmt_hour(self.hour)


def day_instants(schedule: AggregationSchedule, day: int, prev_end: datetime | None = None) -> list[Instant]:
    """The day's instants with windows chained from prev_end (or midnight)."""
    day_start = datetime.combine(EPOCH_DATE + timedelta(days=day), time())
    prev = prev_end if prev_end is not None else day_start
    out = []
    for hour, band in schedule._band_of.items():
        end = day_start + timedelta(hours=hour)
        out.append(Instant(day=day, hour=hour, start=prev, end=end, band=band))
        prev = end
    return out


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    day: int
    time_label: str
    band: str
    slot: int
    selected: tuple[str, ...]
    clients: tuple[tuple[str, int, str], ...]  # (id, n_m, upload digest)
    n_total: int
    aggregate_digest: str
    timestamp: str  # simulated aggregation instant, ISO-8601
    skipped: bool
    train_mae: float | None

    def as_dict(self) -> dict:
        return {
            "round": self.round_index,
            "day": self.day,
            "time": self.time_label,
            "band": self.band,
            "slot": self.slot,
            "selected": list(self.selected),
            "clients": [{"id": cid, "n": n, "digest": digest} for cid, n, digest in self.clients],
            "n_total": self.n_total,
            "aggregate_digest": self.aggregate_digest,
            "timestamp": self.timestamp,
            "skipped": self.skipped,
            "train_mae": self.train_mae,
        }


@dataclass
class ServerState:
    network: RoadNetwork
    global_params: BaseModelParams
    schedule: AggregationSchedule
    round_index: int = 0
    latest_state: TrafficState | None = None

    def advance(self, uploads: list[tuple[ClientState, int, nn.ParamSet]]) -> None:
        """Fold a round's (client, n_m, upload) triples, if any, into the
        global model and move to the next round."""
        if uploads:
            self.global_params = self.global_params.with_values(aggregate([(n_m, upload) for _, n_m, upload in uploads]))
        self.round_index += 1


def init_server(
    network: RoadNetwork,
    model_cfg: ModelConfig,
    fed_cfg: FederatedConfig,
    schedule: AggregationSchedule | None = None,
) -> ServerState:
    return ServerState(
        network=network,
        global_params=init_base_params(network, model_cfg, fed_cfg.seed),
        schedule=schedule if schedule is not None else default_schedule(),
    )


def build_clients(world: World, days: int = 1) -> list[ClientState]:
    """One client per driver, holding the sampled trajectories of `days`."""
    return clients_from_records(world, [rec for day in range(days) for rec in datamod.sample_trajectories(world, day)])


def clients_from_records(world: World, records: list[TrajectoryRecord]) -> list[ClientState]:
    """One fresh client per driver of the world, in id order, holding its
    records in the given order. The records are shared, not copied."""
    clients = {d.driver_id: ClientState(client_id=d.driver_id, network=world.network) for d in world.drivers}
    for rec in records:
        clients[rec.driver_id].trajectories.append(rec)
    return [clients[k] for k in sorted(clients)]


def select_clients(pool, m: int, rng: np.random.Generator) -> list[str]:
    """Uniform m-subset of client ids, deterministic under the generator seed.

    A single round key is drawn from rng; each client is ranked by a hash of
    (key, client id), so non-selected clients cannot influence the outcome.
    """
    ids = sorted(getattr(c, "client_id", c) for c in pool)
    if len(set(ids)) != len(ids):
        raise ValueError("pool contains duplicate client ids")
    if m > len(ids):
        raise ValueError(f"cannot select {m} clients from a pool of {len(ids)}")
    round_key = int(rng.integers(0, 2**62))
    ranked = sorted(ids, key=lambda cid: (nn.stable_hash("select", round_key, cid), cid))
    return sorted(ranked[:m])


# Local SGD under heavy DP noise can run away within steps. A step is
# skipped when it would move any coordinate further than this cap (or when
# the loss is no longer finite), so unstable samples leave the model
# untouched; a round where every step is skipped re-uploads the delivered
# model as-is. Healthy training stays orders of magnitude below the cap.
_MAX_STEP = 1.0


# Up to this many coordinates (128 KB), max |g| is read from an |g| copy; a
# max and a min over the rows cost more there (timeit, one core of a 2-vCPU
# Xeon: 4.1 against 7.1 us on the personal phase's (10, 105), 4.9 against
# 7.2 us on a (1, 3180) row, near a 3x4 world's P = 2,980). Above it the copy
# costs as much or more (26.5 against 21.7 us on a (10, 4846) field read; the
# two cross between 16,000 and 25,000 coordinates of rows that long), and it
# would raise the peak memory of a large graph's whole-buffer steps.
_SMALL_READ = 16_384


def _steps_ok(losses: np.ndarray, grads: nn.GradSet, lr: float, cols: nn.Columns = nn.ALL_COLUMNS) -> np.ndarray:
    """Per client, whether its step is finite and moves no coordinate further
    than _MAX_STEP, for (C,) losses and gradients stacked on a leading client
    axis, read at cols. Leaving out +0.0 gradients cannot raise a maximum of
    |g| >= 0, so the columns base_loss writes decide as the whole buffer
    does. A zero-size tensor (no numeric columns) moves nothing."""
    ok = np.isfinite(losses)
    for g in grads.values():
        if g.size:
            rows = cols.read(g).reshape(len(ok), -1)
            # NaN propagates through either
            if rows.size <= _SMALL_READ:
                biggest = np.abs(rows).max(axis=1)
            else:
                biggest = np.maximum(rows.max(axis=1), -rows.min(axis=1))
            ok &= lr * biggest <= _MAX_STEP
    return ok


def client_update(
    clients: list[ClientState],
    global_params: BaseModelParams,
    config: FederatedConfig,
    window: tuple[datetime, datetime],
    round_index: int = 0,
) -> list[tuple[nn.ParamSet, int]]:
    """Local training of a round's chosen clients on their in-window
    trajectories, then DP noising; one (upload, n_m) per client, in order.

    Every client copies the delivered global model (overwriting any previous
    localized copy), runs local_epochs passes of per-trajectory SGD in
    chronological order, stores the un-noised result as its localized global
    model, and noises it with its own stream. The clients are stepped in
    lockstep on (C, ...) stacks: step j of an epoch takes trajectory j of
    every client that has one, and each client's arithmetic is its own.
    The stack is one (C, P) nn.FlatStack and base_loss writes its gradients
    into another, one buffer for all steps, so a step checks and updates
    the columns base_loss wrote at once. The localized models are copied
    out of the stack, one array per tensor.
    """
    batches = [sorted(client.in_window(*window), key=lambda t: (t.departure, t.y)) for client in clients]
    for client, batch in zip(clients, batches):
        if not batch:
            raise ValueError(f"client {client.client_id} has no trajectories in the window")
        if client.network is not clients[0].network:
            raise ValueError(f"client {client.client_id} trains on another road network")
    for client in clients:
        client.localized_global = None  # replaced below; not kept alive beside the stack
    trained = _lockstep_sgd(clients[0].network, global_params, batches, config)
    for client, values in zip(clients, trained):
        client.localized_global = global_params.with_values(values)
    return [(config.dp_upload(c.localized_global.values, c.client_id, round_index), len(batch)) for c, batch in zip(clients, batches)]


# Local training's stack and gradient buffers, (2, rows, P), kept for the
# process and replaced only when a round needs more rows or another model
# size. A pair allocated per round, 12 MB on the stress workload's 3,480-edge
# graph, was returned to the system at the end of each round, which raised
# glibc's mmap threshold to its size; base_loss's large temporaries then came
# from the heap, and how they fragmented it varied from run to run with the
# same inputs: stress peak RSS spread over 6 MB. Kept, it reads within
# 0.2 MB of the same value in every run. Training is single-threaded, so one
# pair serves every call.
_training_buffer = np.empty((2, 0, 0))


def _training_buffers(rows: int, n_coords: int) -> tuple[np.ndarray, np.ndarray]:
    """A stack and a gradient buffer of at least rows rows of n_coords
    coordinates each, their contents undefined."""
    global _training_buffer
    if _training_buffer.shape[1] < rows or _training_buffer.shape[2] != n_coords:
        _training_buffer = np.empty((2, rows, n_coords))
    return _training_buffer[0], _training_buffer[1]


def _lockstep_sgd(network, global_params, batches, config) -> list[nn.ParamSet]:
    """Each client's tensors after local_epochs passes of per-trajectory SGD
    over its batch from the delivered model, one array per tensor, in the
    order of batches. The stack and the gradients live in the process's
    _training_buffers, reused by every call. Step j takes the same routes in
    every epoch, so its receptive fields are built once."""
    # Longest batch first, so the clients with a j-th trajectory are a prefix
    # of the stack and step j runs on views of it.
    order = sorted(range(len(batches)), key=lambda i: -len(batches[i]))
    shapes = {k: v.shape for k, v in global_params.values.items()}
    stack_buffer, grad_buffer = _training_buffers(max(len(batches), config.clients_per_round), sum(math.prod(s) for s in shapes.values()))
    values = nn.FlatStack(shapes, len(batches), stack_buffer[: len(batches)])
    grads = nn.FlatStack(shapes, len(batches), grad_buffer[: len(batches)])
    for k, v in values.items():
        v[...] = global_params.values[k]
    steps = [[(batches[i][j].route, batches[i][j].y) for i in order if len(batches[i]) > j] for j in range(len(batches[order[0]]))]
    field_cache: dict = {}
    lr = config.base_lr
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.local_epochs):
            for step in steps:
                active = len(step)
                losses, step_grads = base_loss(network, global_params.cfg, values.head(active), step, grads.head(active), field_cache)
                cols, flat = step_grads.cols, {"flat": step_grads.buffer}
                nn.sgd_step({"flat": values.buffer[:active]}, flat, lr, _steps_ok(losses, flat, lr, cols), cols)
    slot_of = {i: slot for slot, i in enumerate(order)}
    return [{k: v[slot_of[i]].copy() for k, v in values.items()} for i in range(len(batches))]


def aggregate(received: list[tuple[int, nn.ParamSet]]) -> nn.ParamSet:
    """Sample-weighted average F = sum (n_m / n) f_m, per coordinate."""
    if not received:
        raise ValueError("nothing to aggregate")
    total = sum(n for n, _ in received)
    if total <= 0:
        raise ValueError("aggregate weight n = 0")
    template = received[0][1]
    out = {k: np.zeros_like(v) for k, v in template.items()}
    for n_m, params in received:
        nn.assert_congruent(template, params)
        weight = n_m / total
        for key in out:
            out[key] += weight * params[key]
    return out


def train_round(
    server: ServerState,
    pool: list[ClientState],
    window: tuple[datetime, datetime],
    config: FederatedConfig,
) -> list[tuple[ClientState, int, nn.ParamSet]]:
    """Select, train and aggregate the clients eligible in the window.

    The chosen clients are a uniform subset of those with a trajectory in the
    window, drawn with the round's selection key. Returns (client, n_m,
    upload) per chosen client in client-id order and folds the uploads into
    server.global_params. No eligible client returns an empty list and
    leaves the global model untouched. server.round_index advances either
    way, so selection and noise keys follow the schedule.
    """
    eligible = [c for c in pool if c.in_window(*window)]
    uploads: list[tuple[ClientState, int, nn.ParamSet]] = []
    if eligible:
        chosen = select_clients(eligible, min(config.clients_per_round, len(eligible)), nn.spawn_rng(config.seed, "select", server.round_index))
        by_id = {c.client_id: c for c in eligible}
        clients = [by_id[cid] for cid in chosen]
        results = client_update(clients, server.global_params, config, window, server.round_index)
        uploads = [(client, n_m, upload) for client, (upload, n_m) in zip(clients, results)]
    server.advance(uploads)
    return uploads


def run_round(
    server: ServerState,
    pool: list[ClientState],
    instant: Instant,
    config: FederatedConfig,
) -> tuple[RoundRecord, BaseModelParams, TrafficState | None]:
    """One aggregation round at the given instant: train_round, then the
    served-state refresh and the round record.

    Zero eligible clients skips the round (recorded, global untouched). A
    served state that is not finite (an aggregate noised at a huge scale
    overflows the forward pass) is a ValueError naming the round and the
    noise scale.
    """
    window = (instant.start, instant.end)
    slot = slot_of_time(instant.end, server.global_params.cfg.time_slots)
    round_index = server.round_index
    uploads = train_round(server, pool, window, config)
    errors = []
    if uploads:
        trained = [traj for client, _, _ in uploads for traj in client.in_window(*window)]
        slots = [slot_of_time(traj.departure, server.global_params.cfg.time_slots) for traj in trained]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            states = traffic_state(server.network, server.global_params, [slot, *slots])
        if not all(np.isfinite(state.y_edges).all() and np.isfinite(state.y_nodes).all() for state in states.values()):
            raise ValueError(
                f"round {round_index} (day {instant.day} {instant.label}): the served traffic state is not finite; dp_epsilon "
                f"{config.dp_epsilon!r} noises uploads at scale {2.0 * config.dp_clip / config.dp_epsilon!r} (2 * dp_clip / dp_epsilon)"
            )
        server.latest_state = states[slot]
        errors = [abs(predict_route(states[s], traj.route) - traj.y) for traj, s in zip(trained, slots)]
    record = RoundRecord(
        round_index=round_index,
        day=instant.day,
        time_label=instant.label,
        band=instant.band,
        slot=slot,
        selected=tuple(client.client_id for client, _, _ in uploads),
        clients=tuple((client.client_id, n_m, nn.params_digest(upload)) for client, n_m, upload in uploads),
        n_total=sum(n_m for _, n_m, _ in uploads),
        aggregate_digest=nn.params_digest(server.global_params.values),
        timestamp=instant.end.isoformat(),
        skipped=not uploads,
        train_mae=float(np.mean(errors)) if errors else None,
    )
    return record, server.global_params, server.latest_state


@contextmanager
def _read_only(pool: list[ClientState]):
    """The pool's localized global models are read-only inside the block, so
    a stray write into one fails where it is made; writable again after."""
    frozen = [v for c in pool if c.localized_global is not None for v in c.localized_global.values.values() if v.flags.writeable]
    for v in frozen:
        v.flags.writeable = False
    try:
        yield
    finally:
        for v in frozen:
            v.flags.writeable = True


def base_predictions(client: ClientState, trajectories: list[TrajectoryRecord]) -> list[float]:
    """The client's localized global model's estimate y_hat of each
    trajectory's travel time, in order, from one traffic_state pass; the
    model is read-only while it runs."""
    if client.localized_global is None:
        raise ValueError(f"client {client.client_id} has no localized global model")
    n_slots = client.localized_global.cfg.time_slots
    slots = [slot_of_time(traj.departure, n_slots) for traj in trajectories]
    with _read_only([client]):
        states = traffic_state(client.network, client.localized_global, slots)
    return [predict_route(states[slot], traj.route) for traj, slot in zip(trajectories, slots)]


def fine_tune_personal(pool: list[ClientState], pairs: list, config: FederatedConfig) -> None:
    """Personal-model SGD on the residuals y - y_hat of given pairs.

    pairs[c] holds client c's (y, y_hat) pairs in step order, y_hat being
    the estimate of its frozen localized global model (base_predictions);
    fine-tuning never reads that model. Each client runs plain
    per-pair SGD: personal_epochs passes over its pairs, skipping steps
    _steps_ok rejects. Step j of an epoch takes pair j of every client that
    has one, on the clients' working sets (model.PersonalWorkingSet): the
    table rows their profiles read and the dense tensors, in one (C, P)
    buffer that is checked and updated as one tensor. Everything a step
    needs is built once per call: each step's (y, y_hat) slice and
    has-a-pair mask here, and the working set's forward and backward
    closures (PersonalWorkingSet.step), whose results are byte for byte
    those of the per-tensor formulas. The whole tables are written back
    once, after the last epoch; no client's result depends on the others.
    The localized global models the clients hold are read-only while this
    runs.
    """
    if len(pairs) != len(pool):
        raise ValueError(f"need the pairs of every client, got {len(pairs)} for {len(pool)}")
    for client in pool:
        if client.personal is None:
            raise ValueError(f"client {client.client_id} personal model is not initialized")
        if client.profile is None:
            raise ValueError(f"client {client.client_id} profile has not been extracted")
    if not pool:
        return
    counts = np.array([len(client_pairs) for client_pairs in pairs])
    batch = np.zeros((len(pool), counts.max(), 2))  # (y, y_hat) pairs, zero-padded
    for c, client_pairs in enumerate(pairs):
        batch[c, : counts[c]] = np.reshape(client_pairs, (-1, 2))
    # step j's pairs (C, 1, 2) and which clients have one, each contiguous
    steps = [(batch[:, j : j + 1].copy(), j < counts) for j in range(batch.shape[1])]
    ws = personal_working_set([c.profile for c in pool], [c.personal for c in pool])
    values, step = {"ws": ws.values}, {}
    lr = config.personal_lr
    with _read_only(pool), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.personal_epochs):
            for step_pairs, has_pair in steps:
                losses, step["ws"] = personal_loss(ws, step_pairs)
                nn.sgd_step(values, step, lr, has_pair & _steps_ok(losses, step, lr))
    # One (C, ...) block per tensor: a copy per client would be many
    # small heap allocations, with which stress peak RSS read 4 MB higher.
    tables = {k: np.stack([client.personal.values[k] for client in pool]) for k in pool[0].personal.values}
    for c, client in enumerate(pool):
        client.personal.values = ws.unpack(ws.values, c, {k: v[c] for k, v in tables.items()})
