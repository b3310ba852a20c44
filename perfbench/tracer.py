"""Per-layer tracing from outside the program.

The tracer replaces, at their module attributes, the flowgraphs
functions that `flowgraphs.cli` and `flowgraphs.pipeline` call (and the
public functions of any flowgraphs module they reach through a module
object, such as `minijava.resolve`, which `parse_program` calls a second
time). Each call becomes a span charged to the module that defines the
function. A layer's self time is its spans minus their child spans, so
self times add up to the root spans' total. GC pauses, observed through
`gc.callbacks`, are charged to the innermost open span; the rise of
`ru_maxrss` is charged the same way as time. Names a refactor removes are
simply not found; GC settings are left untouched.
"""

from __future__ import annotations

import functools
import gc
import inspect
import resource
import time
import types
from dataclasses import dataclass

import flowgraphs.cli
import flowgraphs.pipeline

LAYERS = ("minijava", "textgen", "model", "controlflow", "defuse", "dataflow",
          "validator", "cli", "pipeline")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    gc_s: float = 0.0
    rss_growth_mb: float = 0.0


class _Span:
    __slots__ = ("layer", "child_s", "child_rss")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0
        self.child_rss = 0.0


class Tracer:
    """Install with `with tracer:`; stats accumulate across installs."""

    def __init__(self):
        self.layers = {name: LayerStats() for name in LAYERS + ("other",)}
        self.total_s = 0.0
        self._stack: list[_Span] = []
        self._gc_start = 0.0
        self._patches = self._find_targets()

    @staticmethod
    def _find_targets() -> list[tuple[types.ModuleType, str, object]]:
        callers = [flowgraphs.cli, flowgraphs.pipeline]
        for module in list(callers):
            for value in vars(module).values():
                if isinstance(value, types.ModuleType) and value.__name__.startswith("flowgraphs."):
                    if value not in callers:
                        callers.append(value)
        targets = []
        for module in callers:
            reached = module not in (flowgraphs.cli, flowgraphs.pipeline)
            for name, value in vars(module).items():
                if not inspect.isfunction(value) or not value.__module__.startswith("flowgraphs."):
                    continue
                if reached and (name.startswith("_") or value.__module__ != module.__name__):
                    continue
                targets.append((module, name, value))
        return targets

    def _wrap(self, fn):
        module = fn.__module__.rpartition(".")[2]
        layer = module if module in LAYERS else "other"
        stack = self._stack
        stats = self.layers[layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = _Span(layer)
            stack.append(frame)
            rss0 = maxrss_mb()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                grew = maxrss_mb() - rss0
                stack.pop()
                stats.self_s += elapsed - frame.child_s
                stats.rss_growth_mb += grew - frame.child_rss
                stats.calls += 1
                if stack:
                    stack[-1].child_s += elapsed
                    stack[-1].child_rss += grew
                else:
                    self.total_s += elapsed

        return span

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._stack:
            self.layers[self._stack[-1].layer].gc_s += time.perf_counter() - self._gc_start

    def __enter__(self) -> Tracer:
        for module, name, fn in self._patches:
            setattr(module, name, self._wrap(fn))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, name, fn in self._patches:
            setattr(module, name, fn)
