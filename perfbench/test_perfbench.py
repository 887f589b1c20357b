"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fedtte import data, model  # noqa: E402
from fedtte.federated import FederatedConfig  # noqa: E402
from fedtte.harness import ExperimentConfig  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny_config(seed: int) -> ExperimentConfig:
    """A few seconds' worth of the c04/stress code path, with DP noise on."""
    return ExperimentConfig(
        world=data.WorldSpec(grid_rows=3, grid_cols=4, n_drivers=4, trips_per_day=4, bias_spread_s=10.0, seed=seed),
        model=model.ModelConfig(),
        federated=FederatedConfig(clients_per_round=3, local_epochs=1, personal_epochs=3, dp_epsilon=10.0, seed=seed),
        days=1,
        eval_days=1,
        max_rounds=4,
    )


def run_once(workload, inputs, out_dir: Path, rec: tracer.Tracer | None = None) -> workloads.Outcome:
    out_dir.mkdir()
    if rec is None:
        result = workload.run(inputs, out_dir)
    else:
        with tracer.traced(rec):
            result = workload.run(inputs, out_dir)
    return workload.check(result, out_dir)


def module_bindings() -> dict:
    return {
        (name, attr): obj
        for name in tracer.TRACED_MODULES
        for attr, obj in vars(importlib.import_module(f"fedtte.{name}")).items()
    }


@pytest.mark.parametrize(
    "workload",
    [workloads.ExperimentWorkload("tiny", tiny_config), workloads.WORKLOADS["attack-sweep"]],
    ids=["experiment", "attack-sweep"],
)
def test_traced_operation_reproduces_untraced_digest(workload, tmp_path):
    inputs = workload.prepare(3)
    plain = run_once(workload, inputs, tmp_path / "plain")
    rec = tracer.Tracer()
    traced = run_once(workload, inputs, tmp_path / "traced", rec)
    assert plain.problems == () and traced.problems == ()
    assert traced.digest == plain.digest
    assert traced.quality == plain.quality

    summary = rec.summary()
    roots = [name for name in ("harness.run_experiment", "privacy.risk_sweep") if summary.get(name).calls]
    assert len(roots) == 1 and summary.get(roots[0]).calls == 1
    # self times telescope to the one root span, so they account for the whole operation
    total_self = sum(layer.self_s for layer in summary.stats.values())
    assert total_self == pytest.approx(summary.get(roots[0]).s, rel=1e-9)


def test_traced_restores_module_attributes():
    before = module_bindings()
    from fedtte import federated, model as model_mod

    with pytest.raises(RuntimeError, match="inside"):
        with tracer.traced(tracer.Tracer()):
            # the name imported into federated is swapped along with model's own
            assert federated.base_loss is not before[("federated", "base_loss")]
            assert model_mod.base_loss is federated.base_loss
            raise RuntimeError("inside the traced block")
    after = module_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_self_time_subtracts_direct_children():
    rec = tracer.Tracer()
    inner = rec.wrap("m.inner", lambda: sum(range(2000)))
    outer = rec.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    outer()
    summary = rec.summary()
    o, i = summary.get("m.outer"), summary.get("m.inner")
    assert (o.calls, i.calls, summary.spans) == (2, 6, 8)
    assert i.self_s == pytest.approx(i.s, rel=1e-12)
    assert o.self_s == pytest.approx(o.s - i.s, rel=1e-9)
    assert list(rec.parent) == [-1, 0, 0, 0, -1, 4, 4, 4]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    for name, unit in run.END_TO_END + layers.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit

    workload = workloads.ExperimentWorkload("tiny", tiny_config)
    rec = tracer.Tracer()
    outcome = run_once(workload, workload.prepare(0), tmp_path / "op", rec)
    setup = workload.build(0)
    facts = layers.RunFacts(
        edges=setup.world.network.n_edges,
        laplacian_nnz=1,
        upload_bytes_each=1,
        untraced_s=[1.0],
        traced_s=[1.5],
        checkpoint_bytes=outcome.checkpoint_bytes,
        quality=outcome.quality,
    )
    values = layers.layer_metrics([rec.summary()], facts)
    assert list(values) == [name for name, _ in layers.PER_LAYER]
    assert all(isinstance(v, float) for v in values.values())
    assert values["trace.overhead_s"] == 0.5
    assert values["federated.upload_bytes"] == values["federated.client_update.calls"]
    assert values["nn.save_params.calls"] >= 1 and values["nn.save_params.bytes"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c04", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
