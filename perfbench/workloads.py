"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Each workload is a closed loop of one operation at a time. `prepare` makes
the operation's inputs from the seed, `run` is the timed operation, and
`check` reads its output (outside the timed region) into an Outcome whose
digest must repeat across every operation of a run. `build` constructs the
workload's world, client pool and server the way the operation starts; it
is what the set-up time measures.

On c04 and stress the seed feeds both WorldSpec.seed and
FederatedConfig.seed; on attack-sweep it picks the sweep's inner seeds.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

from fedtte import data, harness, model, privacy
from fedtte import federated as fed
from fedtte.data import World, WorldSpec
from fedtte.federated import FederatedConfig
from fedtte.harness import ExperimentConfig

ATTACK_EPSILONS = (math.inf, 100.0, 10.0, 1.0, 0.1)
# The acceptance oracle world: flat congestion, no observation noise, no driver bias.
ORACLE_WORLD = WorldSpec(
    grid_rows=3, grid_cols=4, n_drivers=10, trips_per_day=8,
    congestion="flat", obs_sigma_s=0.0, bias_spread_s=0.0, seed=11,
)


@dataclass
class Setup:
    world: World
    pool: list
    server: fed.ServerState


@dataclass(frozen=True)
class Outcome:
    digest: str  # sha256 of the operation's result files
    quality: dict[str, float]  # result.* per-layer metrics
    checkpoint_bytes: int
    problems: tuple[str, ...]  # failed output checks; empty when the output is correct


def _sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentWorkload:
    """harness.run_experiment on one config, artifacts written to a fresh out_dir."""

    name: str
    make_config: Callable[[int], ExperimentConfig]

    def prepare(self, seed: int) -> ExperimentConfig:
        return self.make_config(seed)

    def build(self, seed: int) -> Setup:
        cfg = self.make_config(seed)
        world = data.generate_world(cfg.world)
        schedule = cfg.schedule if cfg.schedule is not None else fed.default_schedule()
        server = fed.init_server(world.network, cfg.model, cfg.federated, schedule)
        return Setup(world=world, pool=fed.build_clients(world, days=cfg.days), server=server)

    def run(self, cfg: ExperimentConfig, out_dir: Path):
        return harness.run_experiment(replace(cfg, out_dir=str(out_dir)))

    def check(self, result, out_dir: Path) -> Outcome:
        quality = {
            "result.mae_global_s": result.reports["global"].mae,
            "result.mae_personalized_s": result.reports["personalized"].mae,
        }
        problems = tuple(f"{name} is not finite: {value!r}" for name, value in quality.items() if not math.isfinite(value))
        checkpoints = sorted((out_dir / "checkpoints").glob("*.bin"))
        return Outcome(
            digest=_sha256_files([out_dir / "metrics.json", out_dir / "predictions.csv"]),
            quality=quality,
            checkpoint_bytes=sum(p.stat().st_size for p in checkpoints),
            problems=problems,
        )


@dataclass(frozen=True)
class AttackSweepWorkload:
    """privacy.risk_sweep over ATTACK_EPSILONS on the oracle world, built in set-up.

    The world is the acceptance oracle world whatever the seed: its trips
    decide how many local steps the sweep runs (2,600 to 5,200 base_loss
    calls over world seeds 20-29), so a world per seed would make run_s
    measure the world rather than the code. The seed picks the sweep's 20
    inner seeds instead, which risk_eval uses as FederatedConfig.seed: model
    initialization, client selection and DP noise. Seed 0 is the acceptance
    sweep, seeds=range(20).
    """

    name: str

    def prepare(self, seed: int) -> tuple[World, range]:
        return data.generate_world(ORACLE_WORLD), range(20 * seed, 20 * seed + 20)

    def build(self, seed: int) -> Setup:
        world = data.generate_world(ORACLE_WORLD)
        server = fed.init_server(world.network, model.ModelConfig(), FederatedConfig(seed=20 * seed))
        return Setup(world=world, pool=fed.build_clients(world, days=1), server=server)

    def run(self, inputs: tuple[World, range], out_dir: Path):
        world, seeds = inputs
        return privacy.risk_sweep(
            world,
            ATTACK_EPSILONS,
            fed_config=FederatedConfig(),
            model_cfg=model.ModelConfig(),
            rounds=3,
            k=10,
            seeds=seeds,
        )

    def check(self, result, out_dir: Path) -> Outcome:
        means, rows = result
        risk_csv = out_dir / "risk.csv"
        privacy.write_risk_csv(rows, risk_csv)
        problems = [f"risk {row['risk']} outside [0, 1]" for row in rows if not 0.0 <= float(row["risk"]) <= 1.0]
        if not means[math.inf] >= means[0.1]:
            problems.append(f"mean risk at eps=inf {means[math.inf]!r} < eps=0.1 {means[0.1]!r}")
        return Outcome(
            digest=_sha256_files([risk_csv]),
            quality={"result.risk_inf": means[math.inf], "result.risk_eps0.1": means[0.1]},
            checkpoint_bytes=0,
            problems=tuple(problems),
        )


def c04_config(seed: int) -> ExperimentConfig:
    """The acceptance c04 config (personalization benefit) at one seed."""
    return ExperimentConfig(
        world=WorldSpec(
            grid_rows=3, grid_cols=4, n_drivers=10, trips_per_day=8,
            congestion="flat", obs_sigma_s=0.0, bias_spread_s=30.0, seed=seed,
        ),
        model=model.ModelConfig(),
        federated=FederatedConfig(
            clients_per_round=10, local_epochs=1, base_lr=2e-7,
            personal_epochs=500, personal_lr=3e-4, seed=seed,
        ),
        days=2,
        eval_days=1,
        max_rounds=30,
    )


def stress_config(seed: int) -> ExperimentConfig:
    """A 30x30 grid (3,480 edges), 40 drivers, one day on the default schedule, eps=10."""
    return ExperimentConfig(
        world=WorldSpec(grid_rows=30, grid_cols=30, n_drivers=40, bias_spread_s=15.0, seed=seed),
        model=model.ModelConfig(),
        federated=FederatedConfig(
            clients_per_round=10, local_epochs=2, personal_epochs=1, dp_epsilon=10.0, seed=seed,
        ),
        days=1,
        eval_days=1,
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("c04", c04_config),
        ExperimentWorkload("stress", stress_config),
        AttackSweepWorkload("attack-sweep"),
    )
}
