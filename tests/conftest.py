"""Shared fixtures: small networks and worlds reused across test modules."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fedtte import data, federated, graph, model

# Text for one numeric CSV field: special values, float reprs and garbage.
# Control and line-separator characters are left out so a row stays one line.
NUMERIC_FIELD_TEXT = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-0", "0", "0.0", "-1", "5", " 7 ", "1_0", "", "abc", "1e", "0x10"]),
    st.floats().map(repr),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=8),
)


def finite_value(text):
    """float(text) when it parses to a finite number, else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def make_node(i, lat=0.0, lon=0.0):
    return graph.NodeRecord(id=i, categorical=(0, 0, 0), numeric=(lat, lon))


def make_edge(i, u, v, length_m=100.0, limit_kph=50.0):
    return graph.EdgeRecord(
        id=i, from_node=u, to_node=v, categorical=(0, 0), numeric=(length_m, limit_kph, 1.0, 3.5)
    )


def make_path_network(n_nodes=2):
    """Chain of nodes 0-1-...-(n-1) with one edge per consecutive pair."""
    nodes = [make_node(i, lat=float(i)) for i in range(n_nodes)]
    edges = [make_edge(i, i, i + 1) for i in range(n_nodes - 1)]
    return graph.build_network(nodes, edges)


def make_triangle_network():
    nodes = [make_node(i, lat=float(i)) for i in range(3)]
    edges = [make_edge(0, 0, 1), make_edge(1, 1, 2), make_edge(2, 2, 0)]
    return graph.build_network(nodes, edges)


@pytest.fixture
def path2():
    return make_path_network(2)


@pytest.fixture
def triangle():
    return make_triangle_network()


@pytest.fixture(scope="session")
def tiny_cfg():
    # smallest config that still exercises every tensor
    return model.ModelConfig(
        embed_dim=4,
        gcn_layers=1,
        hops=2,
        head_width=4,
        time_slots=4,
        output_scale=1.0,
        personal_embed_dim=3,
        personal_dense_dim=3,
        profile_arity=3,
    )


@pytest.fixture(scope="session")
def tiny_world():
    # 2x2 grid: 4 nodes, 8 directed edges
    spec = data.WorldSpec(
        grid_rows=2,
        grid_cols=2,
        n_drivers=3,
        trips_per_day=6,
        congestion="flat",
        obs_sigma_s=0.0,
        bias_spread_s=0.0,
        time_slots=4,
        seed=7,
    )
    return data.generate_world(spec)


@pytest.fixture(scope="session")
def small_world():
    # 3x4 grid, 34 edges: the workhorse for end-to-end runs
    spec = data.WorldSpec(
        grid_rows=3,
        grid_cols=4,
        n_drivers=10,
        trips_per_day=8,
        congestion="flat",
        obs_sigma_s=0.0,
        bias_spread_s=0.0,
        seed=11,
    )
    return data.generate_world(spec)


def stack(param_sets):
    """Clients' tensors stacked on a leading client axis, as training steps them."""
    return {name: np.stack([values[name] for values in param_sets]) for name in param_sets[0]}


def base_loss_one(network, params, route, y):
    """model.base_loss for one client: the C = 1 stack, unstacked again."""
    losses, grads = model.base_loss(network, params.cfg, stack([params.values]), [(route, y)])
    return float(losses[0]), {name: g[0] for name, g in grads.items()}


def shared_base_loss(network, params, batch):
    """fn(values, _) for nn.check_gradients over one model's tensors: the summed
    loss of one or more routes under that model, each route stepped as a
    client holding a copy of it, and the summed gradients."""

    def fn(values, _):
        stacked = {k: np.broadcast_to(v, (len(batch), *v.shape)) for k, v in values.items()}
        losses, grads = model.base_loss(network, params.cfg, stacked, batch)
        return float(losses.sum()), {k: g.sum(axis=0) for k, g in grads.items()}

    return fn


def localized_pairs(pool):
    """Each client's (y, y_hat) pairs as run_experiment makes them for the
    personal phase: its trajectories in (departure, y) order, with its
    localized global model's estimates."""
    pairs = []
    for client in pool:
        trips = sorted(client.trajectories, key=lambda t: (t.departure, t.y))
        y_hats = federated.base_predictions(client, trips)
        pairs.append([(traj.y, y_hat) for traj, y_hat in zip(trips, y_hats)])
    return pairs


def fine_tune_personal(pool, config):
    """federated.fine_tune_personal on the pool's localized_pairs."""
    federated.fine_tune_personal(pool, localized_pairs(pool), config)
