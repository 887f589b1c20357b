"""Synthetic-world tests: generation determinism, trajectory sampling,
CSV ingestion, grid quantization, profile extraction."""

from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtte import data, graph, model
from fedtte.data import DriverSpec, GridSpec, TrajectoryRecord, WorldSpec
from fedtte.graph import Route

from conftest import NUMERIC_FIELD_TEXT, finite_value, make_edge, make_node


def unit_grid(rows, cols):
    return GridSpec(min_lat=0.0, min_lon=0.0, max_lat=2.0, max_lon=2.0, rows=rows, cols=cols)


# ---------------------------------------------------------------- generate_world

def test_hidden_edge_time_from_length_and_speed():
    # 600 m at 36 km/h with flat multipliers: exactly 60 s on every edge
    spec = WorldSpec(
        grid_rows=2, grid_cols=2, spacing_m=600.0, speed_min_kph=36.0, speed_max_kph=36.0,
        congestion="flat", n_drivers=1, seed=0,
    )
    world = data.generate_world(spec)
    for state in world.hidden_states:
        assert np.array_equal(state.y_edges, np.full(world.network.n_edges, 60.0))


def test_flat_multipliers_all_ones():
    spec = WorldSpec(congestion="flat", time_slots=6)
    assert np.array_equal(data.congestion_multipliers(spec), np.ones(6))


def test_two_peak_multipliers_dip_at_rush():
    spec = WorldSpec(congestion="two_peak", time_slots=48, rush_depth=0.45)
    mult = data.congestion_multipliers(spec)
    assert mult.min() >= 0.25
    assert mult.max() <= 1.0
    slot_8am, slot_3am = 16, 6
    assert mult[slot_8am] < mult[slot_3am]


def test_noise_free_world_y_equals_hidden_route_sum(tiny_world):
    assert tiny_world.spec.obs_sigma_s == 0.0
    assert tiny_world.spec.bias_spread_s == 0.0
    for rec in data.sample_trajectories(tiny_world, 0):
        slot = model.slot_of_time(rec.departure, tiny_world.spec.time_slots)
        hidden = model.predict_route(tiny_world.hidden_states[slot], rec.route)
        assert rec.y == hidden


def test_same_seed_same_world():
    spec = WorldSpec(grid_rows=2, grid_cols=3, n_drivers=4, seed=9)
    w1, w2 = data.generate_world(spec), data.generate_world(spec)
    assert w1.network.nodes == w2.network.nodes
    assert w1.network.edges == w2.network.edges
    assert w1.drivers == w2.drivers
    for s1, s2 in zip(w1.hidden_states, w2.hidden_states):
        assert np.array_equal(s1.y_edges, s2.y_edges)
        assert np.array_equal(s1.y_nodes, s2.y_nodes)
    assert data.sample_trajectories(w1, 0) == data.sample_trajectories(w2, 0)


# ---------------------------------------------------------------- sample_trajectories

def test_sampled_routes_validate(tiny_world):
    for rec in data.sample_trajectories(tiny_world, 1):
        assert graph.validate_route(tiny_world.network, rec.route) == []
        assert rec.y > 0


def test_injected_driver_bias_recovered():
    spec = WorldSpec(
        grid_rows=2, grid_cols=3, n_drivers=1, trips_per_day=200,
        congestion="flat", obs_sigma_s=5.0, bias_spread_s=0.0, seed=21,
    )
    world = data.generate_world(spec)
    world.drivers[0] = DriverSpec(driver_id=world.drivers[0].driver_id, bias_s=30.0)
    recs = data.sample_trajectories(world, 0)
    assert len(recs) == 200
    residuals = []
    for rec in recs:
        slot = model.slot_of_time(rec.departure, spec.time_slots)
        residuals.append(rec.y - model.predict_route(world.hidden_states[slot], rec.route))
    tol = 3 * spec.obs_sigma_s / np.sqrt(len(recs))
    assert np.mean(residuals) == pytest.approx(30.0, abs=tol + 0.05)


def test_departures_weighted_toward_rush(tiny_world):
    recs = []
    for day in range(5):
        recs.extend(data.sample_trajectories(tiny_world, day))
    in_morning_rush = sum(1 for r in recs if 7 <= r.departure.hour < 9)
    share = in_morning_rush / len(recs)
    assert share > 2 / 24  # uniform share would be 1/12


def test_departure_day_matches_requested_day(tiny_world):
    for day in (0, 3):
        for rec in data.sample_trajectories(tiny_world, day):
            assert rec.departure.date() == data.EPOCH_DATE + timedelta(days=day)


# ---------------------------------------------------------------- CSV round trip

def test_load_empty_file_with_header(tmp_path, tiny_world):
    path = tmp_path / "t.csv"
    path.write_text("driver_id,departure_iso8601,travel_time_s,path\n")
    assert data.load_trajectories(path, tiny_world.network) == []


def test_load_rejects_unknown_edge_with_line_number(tmp_path, tiny_world):
    path = tmp_path / "t.csv"
    path.write_text(
        "driver_id,departure_iso8601,travel_time_s,path\n"
        "d000,2024-01-01T08:00:00,60.0,e0\n"
        "d000,2024-01-01T09:00:00,60.0,e999\n"
    )
    with pytest.raises(ValueError) as exc:
        data.load_trajectories(path, tiny_world.network)
    assert "row 3" in str(exc.value)


def test_load_rejects_nonpositive_travel_time(tmp_path, tiny_world):
    path = tmp_path / "t.csv"
    path.write_text("driver_id,departure_iso8601,travel_time_s,path\nd0,2024-01-01T08:00:00,0.0,e0\n")
    with pytest.raises(ValueError):
        data.load_trajectories(path, tiny_world.network)


def test_load_rejects_alternation_violation(tmp_path, tiny_world):
    path = tmp_path / "t.csv"
    path.write_text("driver_id,departure_iso8601,travel_time_s,path\nd0,2024-01-01T08:00:00,5.0,e0|e1\n")
    with pytest.raises(ValueError) as exc:
        data.load_trajectories(path, tiny_world.network)
    assert "row 2" in str(exc.value)


@settings(max_examples=80, deadline=None)
@given(text=NUMERIC_FIELD_TEXT)
def test_load_travel_time_fuzz(tmp_path_factory, tiny_world, text):
    # row 3's travel time loads when it is a finite number > 0; otherwise
    # ValueError names the row
    path = tmp_path_factory.mktemp("traj") / "t.csv"
    path.write_text(
        "driver_id,departure_iso8601,travel_time_s,path\n"
        "d0,2024-01-01T08:00:00,60.0,e0\n"
        f"d0,2024-01-01T09:00:00,{text},e0\n",
        encoding="utf-8",
    )
    value = finite_value(text)
    if value is not None and value > 0 and "," not in text:
        assert data.load_trajectories(path, tiny_world.network)[1].y == value
    else:
        with pytest.raises(ValueError) as exc:
            data.load_trajectories(path, tiny_world.network)
        assert str(exc.value).startswith("trajectories row 3: ")


def test_trajectory_round_trip(tmp_path, tiny_world):
    recs = data.sample_trajectories(tiny_world, 0)
    path = tmp_path / "t.csv"
    data.save_trajectories(recs, tiny_world.network, path)
    back = data.load_trajectories(path, tiny_world.network)
    assert back == recs


def test_routes_are_spelled_by_record_ids_not_positions(tmp_path):
    # the cycle 30 -> 10 -> 20 -> 30, whose ids differ from their positions
    nodes = [make_node(30), make_node(10, lat=1.0), make_node(20, lat=2.0)]
    net = graph.build_network(nodes, [make_edge(7, 30, 10), make_edge(5, 10, 20), make_edge(0, 20, 30)])
    departure = datetime(2024, 1, 1, 8, 0)
    routes = [
        Route(steps=(("e", 0), ("v", 1), ("e", 1)), departure_time=departure, driver_id="d0"),
        Route(steps=(("e", 2), ("v", 0), ("e", 0)), departure_time=departure, driver_id="d1"),
    ]
    assert [data.route_tokens(route, net) for route in routes] == ["e7|v10|e5", "e0|v30|e7"]
    recs = [TrajectoryRecord(driver_id=route.driver_id, route=route, y=60.5) for route in routes]
    path = tmp_path / "t.csv"
    data.save_trajectories(recs, net, path)
    assert [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]] == ["e7|v10|e5", "e0|v30|e7"]
    assert data.load_trajectories(path, net) == recs


# ---------------------------------------------------------------- grid cells

def test_grid_1x1_always_cell_zero():
    grid = unit_grid(1, 1)
    for lat, lon in ((0.0, 0.0), (2.0, 2.0), (0.7, 1.9)):
        assert data.assign_grid_cell(grid, lat, lon) == 0


def test_grid_center_closed_left():
    grid = unit_grid(2, 2)
    assert data.assign_grid_cell(grid, 1.0, 1.0) == 0


def test_grid_corners():
    grid = unit_grid(2, 2)
    assert data.assign_grid_cell(grid, 0.0, 0.0) == 0
    assert data.assign_grid_cell(grid, 2.0, 2.0) == 3
    assert data.assign_grid_cell(grid, 2.0, 0.0) == 2


def test_grid_rejects_out_of_box():
    grid = unit_grid(2, 2)
    with pytest.raises(ValueError):
        data.assign_grid_cell(grid, 3.0, 0.0)


def test_grid_uniform_points_fill_cells_uniformly():
    grid = unit_grid(2, 3)
    rng = np.random.default_rng(12)
    n = 6000
    counts = np.zeros(6)
    for _ in range(n):
        counts[data.assign_grid_cell(grid, rng.uniform(0, 2), rng.uniform(0, 2))] += 1
    p = 1 / 6
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


@settings(max_examples=40)
@given(
    st.floats(min_value=0, max_value=2, allow_nan=False),
    st.floats(min_value=0, max_value=2, allow_nan=False),
)
def test_grid_every_point_maps_to_exactly_one_cell(lat, lon):
    grid = unit_grid(3, 3)
    cell = data.assign_grid_cell(grid, lat, lon)
    assert 0 <= cell < grid.n_cells


# ---------------------------------------------------------------- extract_profile

def _trip(network, edge_positions, departure, y, driver="d0"):
    steps = []
    for i, e in enumerate(edge_positions):
        if i:
            shared = network.edges[e].from_node
            steps.append(("v", network.node_index[shared]))
        steps.append(("e", e))
    route = Route(steps=tuple(steps), departure_time=departure, driver_id=driver)
    return TrajectoryRecord(driver_id=driver, route=route, y=y)


def _line_network():
    nodes = [make_node(i, lat=float(i), lon=0.0) for i in range(4)]
    edges = [
        make_edge(0, 0, 1, length_m=1000.0),
        make_edge(1, 1, 2, length_m=3000.0),
        make_edge(2, 2, 3, length_m=500.0),
    ]
    return graph.build_network(nodes, edges)


def test_profile_break_is_longest_daily_gap():
    net = _line_network()
    grid = GridSpec(min_lat=0.0, min_lon=0.0, max_lat=3.0, max_lon=1.0, rows=1, cols=1)
    trips = [
        _trip(net, [0], datetime(2024, 1, 1 + d, 9, 0), y=600.0)
        for d in range(3)
    ]
    prof = data.extract_profile(trips, grid, net)
    assert prof.break_start_h == pytest.approx(9 + 10 / 60, abs=1e-9)
    assert prof.break_end_h == pytest.approx(9.0, abs=1e-9)


def test_profile_single_edge_top_edges_padded():
    net = _line_network()
    grid = GridSpec(min_lat=0.0, min_lon=0.0, max_lat=3.0, max_lon=1.0, rows=1, cols=1)
    trips = [_trip(net, [1], datetime(2024, 1, 1, 8 + i, 0), y=60.0) for i in range(3)]
    prof = data.extract_profile(trips, grid, net, arity=5)
    assert prof.top_edges == (1, 3, 3, 3, 3)  # pad id = edge count


def test_profile_mean_trip_distance():
    net = _line_network()
    grid = GridSpec(min_lat=0.0, min_lon=0.0, max_lat=3.0, max_lon=1.0, rows=1, cols=1)
    trips = [
        _trip(net, [0], datetime(2024, 1, 1, 8, 0), y=60.0),
        _trip(net, [1], datetime(2024, 1, 1, 12, 0), y=60.0),
    ]
    prof = data.extract_profile(trips, grid, net)
    assert prof.avg_trip_distance_m == 2000.0


def test_profile_order_invariant(tiny_world):
    recs = [r for r in data.sample_trajectories(tiny_world, 0) if r.driver_id == "d000"]
    forward = data.extract_profile(recs, tiny_world.grid, tiny_world.network)
    backward = data.extract_profile(list(reversed(recs)), tiny_world.grid, tiny_world.network)
    assert forward == backward


def test_profile_trip_rate_times_active_days_counts_trips(tiny_world):
    recs = []
    for day in range(3):
        recs.extend(r for r in data.sample_trajectories(tiny_world, day) if r.driver_id == "d001")
    prof = data.extract_profile(recs, tiny_world.grid, tiny_world.network)
    active_days = len({r.departure.date() for r in recs})
    assert prof.trips_per_day * active_days == pytest.approx(len(recs), abs=1e-9)


def test_profile_requires_data(tiny_world):
    with pytest.raises(ValueError):
        data.extract_profile([], tiny_world.grid, tiny_world.network)
