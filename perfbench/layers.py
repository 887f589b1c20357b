"""Per-layer metrics of the traced run, named `<module>.<function>.<stat>`.

Stats of a traced function: `calls` per operation, `s` inclusive seconds per
operation, `self_s` seconds minus direct child spans, `us_per_call`. Times
are medians over the traced operations of a run; counts repeat exactly.
A function the workload never calls reads 0. The comment above each group
names the end-to-end metric and workload it should move (README.md has the
full map).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from tracer import TraceSummary

PER_LAYER = (
    # personal phase: run_s on c04
    ("model.personal_loss.calls", "count"),
    ("model.personal_loss.s", "s"),
    ("model.personal_loss.self_s", "s"),
    ("nn.sgd_step.calls", "count"),
    ("nn.sgd_step.s", "s"),
    ("federated.fine_tune_personal.calls", "count"),
    ("federated.fine_tune_personal.s", "s"),
    ("federated.fine_tune_personal.self_s", "s"),
    ("federated.personal_client_ms.p50", "ms"),
    # local training: run_s on stress and attack-sweep
    ("model.base_loss.calls", "count"),
    ("model.base_loss.s", "s"),
    ("model.base_loss.self_s", "s"),
    ("model.base_loss.us_per_call", "us"),
    ("federated.client_update.calls", "count"),
    ("federated.client_update.s", "s"),
    ("federated.client_update.self_s", "s"),
    ("federated.step_skip_ratio", "ratio"),
    # serving state and evaluation: run_s on stress
    ("model.traffic_state.calls", "count"),
    ("model.traffic_state.s", "s"),
    ("model.predict_route.calls", "count"),
    ("model.predict_route.s", "s"),
    # rounds and aggregation: run_s on stress
    ("federated.run_round.calls", "count"),
    ("federated.run_round.s", "s"),
    ("federated.run_round.self_s", "s"),
    ("federated.round_ms.p50", "ms"),
    ("federated.round_ms.p90", "ms"),
    ("federated.aggregate.calls", "count"),
    ("federated.aggregate.s", "s"),
    ("federated.upload_bytes", "bytes.computed"),
    # privacy: run_s on attack-sweep and stress
    ("privacy.noise_params.calls", "count"),
    ("privacy.noise_params.s", "s"),
    ("privacy.difference_attack.calls", "count"),
    ("privacy.difference_attack.s", "s"),
    ("privacy.risk_eval.calls", "count"),
    ("privacy.risk_eval.s", "s"),
    ("privacy.risk_eval.self_s", "s"),
    ("privacy.risk_sweep.self_s", "s"),
    # digests and checkpoints: run_s on stress
    ("nn.params_digest.calls", "count"),
    ("nn.params_digest.s", "s"),
    ("nn.save_params.calls", "count"),
    ("nn.save_params.bytes", "bytes"),
    ("nn.save_params.s", "s"),
    # world and pool: setup_s everywhere, run_s on attack-sweep
    ("data.generate_world.calls", "count"),
    ("data.generate_world.s", "s"),
    ("data.sample_trajectories.calls", "count"),
    ("data.sample_trajectories.s", "s"),
    ("data.extract_profile.calls", "count"),
    ("data.extract_profile.s", "s"),
    ("federated.build_clients.calls", "count"),
    ("federated.build_clients.s", "s"),
    ("graph.edges", "count"),
    ("graph.laplacian_nnz", "count"),
    # orchestration and the tracer itself
    ("harness.run_experiment.s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    # the operation's result, deterministic under the seed (0 where the workload has none)
    ("result.mae_global_s", "s"),
    ("result.mae_personalized_s", "s"),
    ("result.risk_inf", "ratio"),
    ("result.risk_eps0.1", "ratio"),
)

_FUNCTION_STATS = ("calls", "s", "self_s", "us_per_call")


@dataclass(frozen=True)
class RunFacts:
    """What the traced run knows besides its spans."""

    edges: int
    laplacian_nnz: int
    upload_bytes_each: int  # serialized size of one ParamSet upload
    untraced_s: list[float]
    traced_s: list[float]
    checkpoint_bytes: int
    quality: dict[str, float]


def _function_stat(summary: TraceSummary, qualname: str, stat: str) -> float:
    layer = summary.get(qualname)
    if stat == "us_per_call":
        return layer.s / layer.calls * 1e6 if layer.calls else 0.0
    return float(getattr(layer, stat))


def _percentile_ms(summaries: list[TraceSummary], qualname: str, q: float) -> float:
    durations = np.concatenate([s.durations.get(qualname, np.empty(0)) for s in summaries])
    return float(np.percentile(durations, q) * 1e3) if durations.size else 0.0


def layer_metrics(summaries: list[TraceSummary], facts: RunFacts) -> dict[str, float]:
    """Every PER_LAYER metric from the traced operations' summaries."""

    def median(fn) -> float:
        return statistics.median(fn(s) for s in summaries)

    def calls(qualname: str) -> float:
        return median(lambda s: s.get(qualname).calls)

    losses = calls("model.base_loss") + calls("model.personal_loss")
    special = {
        "federated.personal_client_ms.p50": _percentile_ms(summaries, "federated.fine_tune_personal", 50),
        "federated.round_ms.p50": _percentile_ms(summaries, "federated.run_round", 50),
        "federated.round_ms.p90": _percentile_ms(summaries, "federated.run_round", 90),
        "federated.upload_bytes": calls("federated.client_update") * facts.upload_bytes_each,
        "federated.step_skip_ratio": 1.0 - calls("nn.sgd_step") / losses if losses else 0.0,
        "nn.save_params.bytes": float(facts.checkpoint_bytes),
        "graph.edges": float(facts.edges),
        "graph.laplacian_nnz": float(facts.laplacian_nnz),
        "trace.untraced_run_s": statistics.median(facts.untraced_s),
        "trace.traced_run_s": statistics.median(facts.traced_s),
        "trace.overhead_s": statistics.median(facts.traced_s) - statistics.median(facts.untraced_s),
        "trace.spans": median(lambda s: s.spans),
    }
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name in special:
            out[name] = float(special[name])
        elif name.startswith("result."):
            out[name] = float(facts.quality.get(name, 0.0))
        else:
            qualname, stat = name.rsplit(".", 1)
            if stat not in _FUNCTION_STATS:
                raise KeyError(f"no rule for per-layer metric {name!r}")
            out[name] = median(lambda s: _function_stat(s, qualname, stat))
    return out


def share_table(summary: TraceSummary, untraced_run_s: float) -> list[str]:
    """Text table of the 15 functions with the most self time in one traced operation."""
    total = sum(layer.self_s for layer in summary.stats.values())
    lines = [
        f"untraced run_s {untraced_run_s:.4f}  traced operation {total:.4f} s  spans {summary.spans}",
        f"{'layer':36s} {'calls':>9s} {'incl_s':>9s} {'incl%':>6s} {'self_s':>9s} {'self%':>6s}",
    ]
    ranked = sorted(summary.stats.items(), key=lambda kv: kv[1].self_s, reverse=True)
    for name, layer in ranked[:15]:
        incl, own = (100.0 * x / total if total else 0.0 for x in (layer.s, layer.self_s))
        lines.append(f"{name:36s} {layer.calls:9d} {layer.s:9.4f} {incl:6.1f} {layer.self_s:9.4f} {own:6.1f}")
    by_module: dict[str, float] = {}
    for name, layer in summary.stats.items():
        module = name.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + layer.self_s
    shares = sorted(by_module.items(), key=lambda kv: kv[1], reverse=True)
    lines.append("self% by module: " + ", ".join(f"{m} {100.0 * s / total:.1f}" for m, s in shares if total))
    return lines
