#!/usr/bin/env python3
"""End-to-end demo on a small synthetic world.

Generates a seeded world, trains the shared model over a simulated day
schedule, fine-tunes each client's residual model, and prints the held-out
metrics plus a rush-hour traffic snapshot.

  python3 scripts/run_demo.py --out /tmp/demo
  python3 scripts/run_demo.py --seed 3 --days 2 --rounds 30
"""

import argparse
from datetime import datetime
from pathlib import Path

from fedtte import data, harness, model
from fedtte.federated import FederatedConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--days", type=int, default=2)
    ap.add_argument("--rounds", type=int, default=30, help="max aggregation rounds")
    ap.add_argument("--drivers", type=int, default=10)
    ap.add_argument("--out", type=Path, default=None, help="artifact directory (optional)")
    args = ap.parse_args()

    world = data.WorldSpec(
        grid_rows=3, grid_cols=4, n_drivers=args.drivers, trips_per_day=8,
        congestion="two_peak", obs_sigma_s=5.0, bias_spread_s=15.0, seed=args.seed,
    )
    cfg = harness.ExperimentConfig(
        world=world,
        model=model.ModelConfig(),
        federated=FederatedConfig(seed=args.seed),
        days=args.days,
        eval_days=1,
        max_rounds=args.rounds,
        out_dir=str(args.out) if args.out else None,
    )
    result = harness.run_experiment(cfg)

    served = [r for r in result.rounds if not r.skipped]
    print(f"world: {world.grid_rows}x{world.grid_cols} grid, "
          f"{result.world.network.n_edges} edges, {args.drivers} drivers")
    print(f"rounds served: {len(served)} of {len(result.rounds)} scheduled")
    print()
    print(f"{'split':<14}{'MAE s':>10}{'RMSE s':>10}{'MAPE %':>10}")
    for split in ("baseline", "global", "personalized"):
        rep = result.reports[split]
        print(f"{split:<14}{rep.mae:>10.2f}{rep.rmse:>10.2f}{rep.mape:>10.2f}")

    # morning-rush snapshot from the final aggregated model
    slot = model.slot_of_time(datetime(2024, 1, 1, 8, 0), cfg.model.time_slots)
    state = model.traffic_state(result.world.network, result.server.global_params, [slot])[slot]
    rows = harness.export_state(state, result.world.network)
    edge_rows = [r for r in rows if r["entity_kind"] == "edge"]
    buckets = {b: sum(1 for r in edge_rows if r["bucket"] == b) for b in harness.CONGESTION_BUCKETS}
    print()
    print("estimated 08:00 congestion:", ", ".join(f"{k}={v}" for k, v in buckets.items()))
    if args.out:
        print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
