"""fedtte benchmark: closed-loop runs of one workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload c04 --seed 0 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics: operations run one after another
until --seconds have passed, and set-up is timed in fresh processes. --trace 1
alternates untraced and traced operations for --seconds and reports the
per-layer metrics of perfbench/layers.py. Every operation's output is checked
and its digest must equal that of the run's first operation. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
Earlier lines record the environment, each operation and, when traced, the
self-time table.

The program is imported from src/ of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOAD_NAMES = ("c04", "stress", "attack-sweep")
# BLAS reads these when numpy loads, so they are set before anything imports it.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Time importing fedtte and building the workload's world, pool and server."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].build(seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(args: argparse.Namespace) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Loop:
    """Runs, times and checks operations; every digest must match the first."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.last = None  # Outcome of the last operation that passed its checks

    def once(self, label: str, around=contextlib.nullcontext) -> float:
        """One operation inside the context `around`; returns its wall seconds."""
        self.attempted += 1
        elapsed = 0.0
        out_dir = Path(tempfile.mkdtemp(prefix="op", dir=WORK))
        try:
            with around():
                t0 = time.perf_counter()
                try:
                    result = self.workload.run(self.inputs, out_dir)
                finally:
                    elapsed = time.perf_counter() - t0
            outcome = self.workload.check(result, out_dir)
        except Exception:
            self.failed += 1
            print(f"op {self.attempted} {label} {elapsed:.4f}s raised:\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        problems = list(outcome.problems)
        if self.digest is None:
            self.digest = outcome.digest
        elif outcome.digest != self.digest:
            problems.append(f"digest {outcome.digest} differs from the run's first {self.digest}")
        if problems:
            self.failed += 1
        else:
            self.last = outcome
        verdict = "ok" if not problems else "FAILED " + "; ".join(problems)
        print(f"op {self.attempted} {label} {elapsed:.4f}s digest {outcome.digest[:16]} {verdict}")
        return elapsed


def run_untraced(args: argparse.Namespace, workload) -> tuple[Loop, dict]:
    setup_times = measure_setup(args.workload, args.seed)
    loop = Loop(workload, workload.prepare(args.seed))
    durations = []
    start = time.perf_counter()
    while True:
        durations.append(loop.once("untraced"))
        if time.perf_counter() - start >= args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "run_s": statistics.median(durations),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_ok_ratio": 1.0 - loop.failed / loop.attempted,
    }
    print(f"run_s samples {len(durations)}: {[round(d, 4) for d in durations]}")
    print(f"setup_s samples {len(setup_times)}: {[round(t, 4) for t in setup_times]}")
    return loop, metrics


def run_traced(args: argparse.Namespace, workload) -> tuple[Loop, dict]:
    import layers
    import tracer
    from fedtte import nn

    setup = workload.build(args.seed)
    network = setup.world.network
    loop = Loop(workload, workload.prepare(args.seed))
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(loop.once("untraced"))
        rec = tracer.Tracer()
        traced.append(loop.once("traced", around=lambda: tracer.traced(rec)))
        summaries.append(rec.summary())
        if time.perf_counter() - start >= args.seconds:
            break
    facts = layers.RunFacts(
        edges=network.n_edges,
        laplacian_nnz=network.laplacian_edges.nnz + network.laplacian_nodes.nnz,
        upload_bytes_each=len(nn.serialize_params(setup.server.global_params.values)),
        untraced_s=untraced,
        traced_s=traced,
        checkpoint_bytes=loop.last.checkpoint_bytes if loop.last else 0,
        quality=loop.last.quality if loop.last else {},
    )
    for line in layers.share_table(summaries[-1], statistics.median(untraced)):
        print(line)
    return loop, layers.layer_metrics(summaries, facts)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedtte" / "__init__.py").is_file():
        print(f"perfbench: no fedtte sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            loop, values = run_traced(args, workload)
            units = layers.PER_LAYER
        else:
            loop, values = run_untraced(args, workload)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"digest {loop.digest}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
