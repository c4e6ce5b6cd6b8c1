"""In-memory span tracing of fflsim's layers, patched in from outside.

A Tracer wraps the public functions of each layer module, plus the two
Experiment methods the benchmark reports on, so that every call records one
span: name, parent span, start and end in nanoseconds.  Wrappers are installed on every name a caller looks up, e.g.
`federation.substream` as well as `rng.substream`, and removed again on
exit, so a traced run executes exactly the same arithmetic as an untraced
one.  Spans stay in memory; `summarize` turns one run's spans into calls,
inclusive time and self time per function, and self time per layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator

PACKAGE = "fflsim"
LAYERS = ("nn", "data", "compress", "rng", "schedule", "netsim", "federation", "selftest")

# (module, class, method) -> span name
METHODS = {
    ("federation", "Experiment", "__init__"): "federation.Experiment",
    ("federation", "Experiment", "run_round"): "federation.run_round",
}


def _decompose_value(bound: inspect.BoundArguments, result) -> tuple:
    kind = bound.arguments.get("kind")
    return (result.n_atoms, kind, result.basis_kind)


def _payload_value(bound: inspect.BoundArguments, result) -> tuple:
    return (result.payload_atoms,)


# Span name -> function of (bound call arguments, result) kept with the span,
# so counts are taken at the same boundary as the timing.
RECORDERS: dict[str, Callable] = {
    "compress.decompose_bundle": _decompose_value,
    "compress.decompose_elementwise": _decompose_value,
    "compress.sample": _payload_value,
}


@dataclass
class Spans:
    """Columnar span store: span i has names[i], parents[i] (-1 at the
    root), starts[i] and ends[i] in perf_counter nanoseconds."""

    names: list[str] = field(default_factory=list)
    parents: array = field(default_factory=lambda: array("q"))
    starts: array = field(default_factory=lambda: array("q"))
    ends: array = field(default_factory=lambda: array("q"))
    values: dict[int, tuple] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, parent: int, start: int, end: int) -> int:
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1


class Tracer:
    """Install with `with tracer.installed(): ...`; spans accumulate in
    `tracer.spans` until `reset()`."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._stack: list[int] = []

    def reset(self) -> Spans:
        """Hand over the spans recorded so far and start an empty store."""
        spans, self.spans = self.spans, Spans()
        self._stack.clear()
        return spans

    def wrap(self, name: str, func: Callable) -> Callable:
        stack = self._stack
        recorder = RECORDERS.get(name)
        signature = inspect.signature(func) if recorder else None
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            store = self.spans
            idx = store.add(name, stack[-1] if stack else -1, clock(), 0)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                store.ends[idx] = clock()
                stack.pop()
            if recorder is not None:
                store.values[idx] = recorder(signature.bind(*args, **kwargs), result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every lookup of a traced callable in the loaded fflsim
        modules for its wrapper, and restore the originals on exit."""
        wrappers = {id(func): (func, self.wrap(name, func)) for name, func in _targets()}
        saved: list[tuple[object, str, object]] = []
        try:
            for module_name, module in list(sys.modules.items()):
                if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
            for (layer, cls_name, method), name in METHODS.items():
                cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
                saved.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, self.wrap(name, cls.__dict__[method]))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)


def _targets() -> list[tuple[str, object]]:
    """(span name, original function) for every public function the layer
    modules define."""
    found: list[tuple[str, object]] = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            found.append((f"{layer}.{attr}", value))
    return found


# ---- deriving metrics from spans ------------------------------------------ #


def self_times(spans: Spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(spans.parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i in range(len(spans)):
        start, end = spans.starts[i], spans.ends[i]
        covered = 0
        run_lo = run_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans.starts[c]):
            lo, hi = max(spans.starts[c], start), min(spans.ends[c], end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(end - start - covered)
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def summarize(spans: Spans) -> dict[str, FunctionStats]:
    """Calls, inclusive and self nanoseconds per span name."""
    stats: dict[str, FunctionStats] = {}
    selfs = self_times(spans)
    for i, name in enumerate(spans.names):
        entry = stats.setdefault(name, FunctionStats())
        entry.calls += 1
        entry.total_ns += spans.ends[i] - spans.starts[i]
        entry.self_ns += selfs[i]
    return stats


def layer_self_ns(stats: dict[str, FunctionStats]) -> dict[str, int]:
    """Self nanoseconds summed per layer (the name before the first dot)."""
    out = {layer: 0 for layer in LAYERS}
    for name, entry in stats.items():
        out[name.split(".", 1)[0]] += entry.self_ns
    return out


def outermost(spans: Spans, prefix: str) -> list[int]:
    """Spans with a recorded value whose parent is not itself in the layer
    `prefix`, i.e. the calls the layer's callers made."""
    out = []
    for i in sorted(spans.values):
        parent = spans.parents[i]
        if parent < 0 or not spans.names[parent].startswith(prefix):
            out.append(i)
    return out
