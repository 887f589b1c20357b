"""Spans around calls into the fedtte modules, recorded from outside them.

`traced(tracer)` swaps every public module-level function of the traced
fedtte modules for a wrapper that records one span per call: the function's
qualified name (`<module>.<function>`), start, end and the index of the
enclosing span. Every module attribute bound to the same function object is
swapped, so calls through `from .model import base_loss` are seen as well as
calls through `nn.sgd_step`. The original attributes are put back when the
context exits, also when the body raises.

Spans are kept in flat arrays (a c04 operation records about 650,000) and
summarised after the traced operation: self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

TRACED_MODULES = ("data", "graph", "model", "nn", "federated", "privacy", "harness")


class Tracer:
    """In-memory span recorder: name id, parent index, start and end per span."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}  # qualified name -> name id, in id order
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, qualname: str, fn):
        """fn with one span recorded per call under qualname."""
        nid = self._ids.setdefault(qualname, len(self._ids))
        name_id, parent, start, end, open_ = self.name_id, self.parent, self.start, self.end, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()

        return span

    def summary(self) -> "TraceSummary":
        """Calls, inclusive and self seconds per name, and per-call durations."""
        if len(self._open) != 1:
            raise RuntimeError("summary requested while spans are still open")
        ids = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        names = list(self._ids)
        n = len(names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        stats = {
            name: LayerStats(calls=int(calls[i]), s=float(total[i]), self_s=float(own[i]))
            for i, name in enumerate(names)
            if calls[i]
        }
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(n + 1))
        durations = {name: dur[order[bounds[i] : bounds[i + 1]]] for i, name in enumerate(names)}
        return TraceSummary(stats=stats, spans=len(dur), durations=durations)


@dataclass(frozen=True)
class LayerStats:
    calls: int
    s: float  # inclusive seconds
    self_s: float  # seconds minus the time of direct child spans


@dataclass
class TraceSummary:
    stats: dict[str, LayerStats]
    spans: int
    durations: dict[str, np.ndarray]  # per-call seconds, in call order

    def get(self, qualname: str) -> LayerStats:
        return self.stats.get(qualname, LayerStats(0, 0.0, 0.0))


def public_functions(module) -> dict[str, object]:
    """Module-level functions defined in `module` whose names do not start with `_`."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__
    }


@contextmanager
def traced(tracer: Tracer):
    """Route every call into the public functions of the TRACED_MODULES through tracer."""
    modules = [importlib.import_module(f"fedtte.{name}") for name in TRACED_MODULES]
    wrappers = {}
    for name, module in zip(TRACED_MODULES, modules):
        for attr, fn in public_functions(module).items():
            wrappers[fn] = tracer.wrap(f"{name}.{attr}", fn)
    swapped = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                swapped.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        for module, attr, obj in reversed(swapped):
            setattr(module, attr, obj)
