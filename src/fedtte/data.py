"""Synthetic world generation, trajectory ingestion, and driver profiles.

The generator builds a small two-way grid road network with hidden per-slot
traffic states (edge times follow length / (speed * congestion multiplier),
node times are per-intersection delays), a pool of drivers with per-driver
constant biases, and per-day trajectory samples: directed random walks with
departure times weighted toward the rush bands, observed as

    y = hidden route sum + driver bias + Normal(0, sigma), floored at 1 s.

The hidden states double as the verification oracle: with sigma = 0 and zero
bias spread, predict_route against them reproduces every observed y exactly.

trajectories.csv: ``driver_id,departure_iso8601,travel_time_s,path`` with
path spelled as alternating ``e<id>|v<id>|e<id>`` tokens.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from . import nn
from .graph import EdgeRecord, NodeRecord, RoadNetwork, Route, build_network, out_edges, validate_route
from .model import TrafficState, predict_route, slot_of_time

EPOCH_DATE = date(2024, 1, 1)  # a Monday
RUSH_HOURS = (7, 8, 17, 18)


@dataclass(frozen=True)
class WorldSpec:
    """Parameters of the synthetic world; deterministic under seed."""

    grid_rows: int = 3
    grid_cols: int = 4
    spacing_m: float = 500.0
    speed_min_kph: float = 20.0
    speed_max_kph: float = 60.0
    congestion: str = "two_peak"  # or "flat"
    rush_depth: float = 0.45
    time_slots: int = 48
    n_drivers: int = 10
    trips_per_day: int = 8
    bias_spread_s: float = 0.0
    obs_sigma_s: float = 5.0
    signal_prob: float = 0.4
    region_rows: int = 3
    region_cols: int = 3
    walk_min: int = 2
    walk_max: int = 8
    rush_weight: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("spacing_m", "speed_min_kph", "speed_max_kph", "rush_depth", "bias_spread_s", "obs_sigma_s", "signal_prob", "rush_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.grid_rows * self.grid_cols < 2 or max(self.grid_rows, self.grid_cols) < 2:
            raise ValueError("grid must contain at least one neighboring node pair")
        if not (self.spacing_m > 0):
            raise ValueError("spacing_m must be > 0")
        if not (self.speed_min_kph > 0 and self.speed_max_kph >= self.speed_min_kph):
            raise ValueError("speed range must satisfy 0 < min <= max")
        if self.congestion not in ("two_peak", "flat"):
            raise ValueError(f"unknown congestion curve {self.congestion!r}")
        if not (self.obs_sigma_s >= 0 and self.bias_spread_s >= 0):
            raise ValueError("noise parameters must be >= 0")
        if not (0 <= self.signal_prob <= 1):
            raise ValueError("signal_prob must lie in [0, 1]")
        if not (self.rush_weight > 0):
            raise ValueError("rush_weight must be > 0")
        if not 1 <= self.walk_min <= self.walk_max:
            raise ValueError("walk length bounds must satisfy 1 <= min <= max")
        if self.trips_per_day < 1 or self.n_drivers < 1:
            raise ValueError("need at least one driver and one trip per day")
        if self.time_slots < 1 or self.region_rows < 1 or self.region_cols < 1:
            raise ValueError("slot and region grid sizes must be >= 1")


@dataclass(frozen=True)
class GridSpec:
    """Row-major partition of the bounding box into rows x cols cells."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float
    rows: int
    cols: int

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class DriverSpec:
    driver_id: str
    bias_s: float


@dataclass(frozen=True)
class TrajectoryRecord:
    driver_id: str
    route: Route
    y: float  # observed travel time, seconds

    @property
    def departure(self) -> datetime:
        return self.route.departure_time


@dataclass
class World:
    spec: WorldSpec
    network: RoadNetwork
    hidden_states: list[TrafficState]  # one per slot
    drivers: list[DriverSpec]
    grid: GridSpec


def congestion_multipliers(spec: WorldSpec) -> np.ndarray:
    """Per-slot speed multipliers; the two-peak curve dips at the rush hours."""
    k = spec.time_slots
    if spec.congestion == "flat":
        return np.ones(k)
    hours = (np.arange(k) + 0.5) * 24.0 / k
    peaks = np.exp(-((hours - 8.0) ** 2) / (2 * 1.3**2)) + np.exp(-((hours - 18.0) ** 2) / (2 * 1.3**2))
    return np.maximum(1.0 - spec.rush_depth * peaks, 0.25)


def generate_world(spec: WorldSpec) -> World:
    """Deterministic synthetic world: network, hidden states, driver pool."""
    rng = nn.spawn_rng(spec.seed, "world")
    rows, cols = spec.grid_rows, spec.grid_cols
    nodes: list[NodeRecord] = []
    for r in range(rows):
        for c in range(cols):
            nodes.append(
                NodeRecord(
                    id=r * cols + c,
                    categorical=(
                        int(rng.integers(0, 4)),
                        int(rng.random() < spec.signal_prob),
                        int(rng.random() < 0.3),
                    ),
                    numeric=(r * spec.spacing_m, c * spec.spacing_m),
                )
            )
    edges: list[EdgeRecord] = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr >= rows or cc >= cols:
                    continue
                v = rr * cols + cc
                length = spec.spacing_m
                speed = float(rng.uniform(spec.speed_min_kph, spec.speed_max_kph))
                lanes = float(rng.integers(1, 4))
                road_type = int(rng.integers(0, 5))
                special = int(rng.random() < 0.05) + 2 * int(rng.random() < 0.02)
                for a, b in ((u, v), (v, u)):
                    edges.append(
                        EdgeRecord(
                            id=len(edges),
                            from_node=a,
                            to_node=b,
                            categorical=(road_type, special),
                            numeric=(length, speed, lanes, 3.25 * lanes),
                        )
                    )
    network = build_network(nodes, edges, node_vocabs=(4, 2, 2), edge_vocabs=(5, 4))

    delay_rng = nn.spawn_rng(spec.seed, "delays")
    delays = np.array(
        [
            float(delay_rng.uniform(10.0, 30.0)) if n.categorical[1] else float(delay_rng.uniform(0.0, 5.0))
            for n in network.nodes
        ]
    )
    lengths = network.edge_numeric[:, 0]
    speeds_mps = network.edge_numeric[:, 1] / 3.6
    mult = congestion_multipliers(spec)
    hidden = [
        TrafficState(slot=k, n_slots=spec.time_slots, y_edges=lengths / (speeds_mps * mult[k]), y_nodes=delays.copy())
        for k in range(spec.time_slots)
    ]
    drivers = []
    for i in range(spec.n_drivers):
        if spec.bias_spread_s > 0:
            bias = float(nn.spawn_rng(spec.seed, "driver", i).normal(0.0, spec.bias_spread_s))
        else:
            bias = 0.0
        drivers.append(DriverSpec(driver_id=f"d{i:03d}", bias_s=bias))
    lats = network.node_numeric[:, 0]
    lons = network.node_numeric[:, 1]
    grid = GridSpec(
        min_lat=float(lats.min()),
        min_lon=float(lons.min()),
        max_lat=float(lats.max()),
        max_lon=float(lons.max()),
        rows=spec.region_rows,
        cols=spec.region_cols,
    )
    return World(spec=spec, network=network, hidden_states=hidden, drivers=drivers, grid=grid)


def _sample_walk(network: RoadNetwork, outgoing: list[list[int]], rng: np.random.Generator, n_edges: int) -> tuple[tuple[str, int], ...]:
    start = int(rng.integers(network.n_edges))
    path = [start]
    steps: list[tuple[str, int]] = [("e", start)]
    for _ in range(n_edges - 1):
        prev = network.edges[path[-1]]
        head_pos = network.node_index[prev.to_node]
        options = outgoing[head_pos]
        if not options:
            break
        forward = [e for e in options if network.edges[e].to_node != prev.from_node]
        pool = forward if forward else options
        nxt = int(pool[rng.integers(len(pool))])
        steps.append(("v", head_pos))
        steps.append(("e", nxt))
        path.append(nxt)
    return tuple(steps)


def sample_trajectories(world: World, day: int) -> list[TrajectoryRecord]:
    """One day of trips for every driver; rush-hour-weighted departures."""
    spec = world.spec
    outgoing = out_edges(world.network)
    weights = np.array([spec.rush_weight if h in RUSH_HOURS else 1.0 for h in range(24)])
    weights = weights / weights.sum()
    day_date = EPOCH_DATE + timedelta(days=day)
    records: list[TrajectoryRecord] = []
    for driver in world.drivers:
        rng = nn.spawn_rng(spec.seed, "traj", day, driver.driver_id)
        trips = []
        for _ in range(spec.trips_per_day):
            hour = int(rng.choice(24, p=weights))
            minute = int(rng.integers(60))
            second = int(rng.integers(60))
            departure = datetime(day_date.year, day_date.month, day_date.day, hour, minute, second)
            n_edges = int(rng.integers(spec.walk_min, spec.walk_max + 1))
            steps = _sample_walk(world.network, outgoing, rng, n_edges)
            route = Route(steps=steps, departure_time=departure, driver_id=driver.driver_id)
            slot = slot_of_time(departure, spec.time_slots)
            hidden_sum = predict_route(world.hidden_states[slot], route)
            y = hidden_sum + driver.bias_s
            if spec.obs_sigma_s > 0:
                y += float(rng.normal(0.0, spec.obs_sigma_s))
            trips.append(TrajectoryRecord(driver_id=driver.driver_id, route=route, y=max(y, 1.0)))
        trips.sort(key=lambda t: t.departure)
        records.extend(trips)
    return records


# ---------------------------------------------------------------------------
# trajectory CSV round-trip


def save_trajectories(records: list[TrajectoryRecord], network: RoadNetwork, dest) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        fh.write("driver_id,departure_iso8601,travel_time_s,path\n")
        for rec in records:
            tokens = []
            for kind, pos in rec.route.steps:
                ident = network.edges[pos].id if kind == "e" else network.nodes[pos].id
                tokens.append(f"{kind}{ident}")
            fh.write(f"{rec.driver_id},{rec.departure.isoformat()},{rec.y!r},{'|'.join(tokens)}\n")


def load_trajectories(source, network: RoadNetwork) -> list[TrajectoryRecord]:
    """Parse and validate trajectories.csv; bad rows raise with line numbers."""
    records: list[TrajectoryRecord] = []
    with open(source, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "driver_id,departure_iso8601,travel_time_s,path":
            raise ValueError(f"trajectories row 1: unexpected header {header!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ValueError(f"trajectories row {lineno}: expected 4 fields, got {len(parts)}")
            driver_id, dep_raw, y_raw, path = parts
            try:
                departure = datetime.fromisoformat(dep_raw)
            except ValueError as exc:
                raise ValueError(f"trajectories row {lineno}: bad departure {dep_raw!r}") from exc
            try:
                y = float(y_raw)
            except ValueError as exc:
                raise ValueError(f"trajectories row {lineno}: bad travel time {y_raw!r}") from exc
            if not (y > 0 and math.isfinite(y)):
                raise ValueError(f"trajectories row {lineno}: travel time must be finite and > 0")
            steps: list[tuple[str, int]] = []
            for token in path.split("|"):
                if not token or token[0] not in "ev":
                    raise ValueError(f"trajectories row {lineno}: bad path token {token!r}")
                kind = token[0]
                try:
                    ident = int(token[1:])
                except ValueError as exc:
                    raise ValueError(f"trajectories row {lineno}: bad path token {token!r}") from exc
                index = network.edge_index if kind == "e" else network.node_index
                if ident not in index:
                    raise ValueError(f"trajectories row {lineno}: unknown {'edge' if kind == 'e' else 'node'} id {ident}")
                steps.append((kind, index[ident]))
            route = Route(steps=tuple(steps), departure_time=departure, driver_id=driver_id)
            violations = validate_route(network, route)
            if violations:
                raise ValueError(f"trajectories row {lineno}: {violations[0]}")
            records.append(TrajectoryRecord(driver_id=driver_id, route=route, y=y))
    return records


# ---------------------------------------------------------------------------
# grid quantization and driver profiles


def assign_grid_cell(grid: GridSpec, lat: float, lon: float) -> int:
    """Row-major cell id; boundary points belong to the lower-index cell."""
    eps = 1e-9
    if not (grid.min_lat - eps <= lat <= grid.max_lat + eps and grid.min_lon - eps <= lon <= grid.max_lon + eps):
        raise ValueError(f"point ({lat}, {lon}) outside the grid bounding box")

    def axis_index(x: float, low: float, high: float, cells: int) -> int:
        span = high - low
        if span <= 0:
            return 0
        ratio = (x - low) / (span / cells)
        idx = int(np.ceil(ratio)) - 1
        return min(max(idx, 0), cells - 1)

    row = axis_index(lat, grid.min_lat, grid.max_lat, grid.rows)
    col = axis_index(lon, grid.min_lon, grid.max_lon, grid.cols)
    return row * grid.cols + col


def _time_of_day_hours(dt: datetime) -> float:
    return (dt.hour * 3600 + dt.minute * 60 + dt.second + dt.microsecond / 1e6) / 3600.0


def extract_profile(
    trajectories: list[TrajectoryRecord],
    grid: GridSpec,
    network: RoadNetwork,
    arity: int = 5,
) -> "DriverProfile":
    """Profile features from one driver's trips, order-insensitively.

    Break start/end are the boundaries of the longest per-day gap between
    consecutive trips (the trailing gap wraps to the first trip plus the span
    of active days); regions count both trip start and end cells; edges count
    traversals; distance is the mean per-trip summed edge length; trips/day
    divides by the number of active days.
    """
    from .model import DriverProfile

    if not trajectories:
        raise ValueError("extract_profile needs at least one trajectory")
    trips = sorted(trajectories, key=lambda t: t.departure)
    starts = [t.departure for t in trips]
    ends = [t.departure + timedelta(seconds=t.y) for t in trips]
    gaps = [(ends[i], starts[i + 1]) for i in range(len(trips) - 1)]
    span_days = (starts[-1].date() - starts[0].date()).days + 1
    gaps.append((ends[-1], starts[0] + timedelta(days=span_days)))
    best: dict[date, tuple[float, float, float]] = {}
    for g0, g1 in gaps:
        length = (g1 - g0).total_seconds()
        if length <= 0:
            continue
        day = g0.date()
        candidate = (length, _time_of_day_hours(g0), _time_of_day_hours(g1))
        if day not in best or candidate[0] > best[day][0]:
            best[day] = candidate
    if best:
        break_start = float(np.mean([v[1] for v in best.values()]))
        break_end = float(np.mean([v[2] for v in best.values()]))
    else:
        break_start = break_end = 0.0

    region_counts: Counter[int] = Counter()
    edge_counts: Counter[int] = Counter()
    distances = []
    lengths = network.edge_numeric[:, 0]
    for t in trips:
        e_pos = t.route.edge_positions()
        first, last = network.edges[e_pos[0]], network.edges[e_pos[-1]]
        for node_id in (first.from_node, last.to_node):
            node = network.nodes[network.node_index[node_id]]
            region_counts[assign_grid_cell(grid, node.lat, node.lon)] += 1
        edge_counts.update(e_pos)
        distances.append(float(lengths[e_pos].sum()))

    def top_ids(counts: Counter[int], pad: int) -> tuple[int, ...]:
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ids = [k for k, _ in ranked[:arity]]
        return tuple(ids + [pad] * (arity - len(ids)))

    active_days = len({s.date() for s in starts})
    return DriverProfile(
        break_start_h=break_start % 24.0,
        break_end_h=break_end % 24.0,
        top_regions=top_ids(region_counts, grid.n_cells),
        top_edges=top_ids(edge_counts, network.n_edges),
        avg_trip_distance_m=float(np.mean(distances)),
        trips_per_day=len(trips) / active_days,
    )
