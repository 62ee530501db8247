"""In-memory span tracing of the qpmedia layers, installed from outside.

The package is not instrumented itself.  ``Tracer.install`` replaces the
public functions of each layer module with wrappers that record a span
(name, start, end, parent) per call, and rebinds every module attribute
that refers to one of those functions, so calls through imported names
(``cli.spec_from_json``, ``openquantum.decompose_generator``) and calls
inside a module (``spectral.prepare`` -> ``spectral.eigendecompose``) are
both seen.  ``uninstall`` puts the originals back.

Helpers called thousands of times per command get a counter instead of a
span, and dense ``numpy.linalg`` calls are counted per calling layer.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

# one module per layer; pseudoboson is reached by no qpm command
LAYERS = (
    "medium",
    "spectral",
    "response",
    "phasespace",
    "selfconsistent",
    "openquantum",
    "builders",
)

# Per-element helpers called thousands of times per command.  A span on
# each would cost more than they do, so their calls are only counted and
# their time stays in the caller's self time.
COUNTED = frozenset(
    {
        "medium.drive_value",
        "phasespace._lambda_at",
        "selfconsistent.gaussian_ft",
        "selfconsistent.green_tensor",
        "spectral.symplectic_form",
    }
)
# dense LAPACK entry points, counted per layer of the span that calls them
LINALG = ("eig", "solve", "inv", "cond")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its children.

    Spans of one thread nest, so children never overlap and this is the
    part of the span that its children do not cover.
    """
    return [s.duration - sum(spans[c].duration for c in s.children) for s in spans]


def subtree(spans: list[Span], root: int) -> list[int]:
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(spans[i].children)
    return out


class Tracer:
    """Records nested spans of one thread; spans stay in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.eig_dims: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = fn.__name__
        return counted

    def _linalg(self, attr: str, fn):
        def recording(a, *args, **kwargs):
            layer = self.spans[self._stack[-1]].layer if self._stack else "none"
            name = f"{layer}.{attr}_calls"
            self.counts[name] = self.counts.get(name, 0) + 1
            if attr == "eig":
                self.eig_dims[layer] = max(self.eig_dims.get(layer, 0), len(a))
            return fn(a, *args, **kwargs)

        return recording

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public layer function plus ``cli.main``."""
        import numpy as np

        cli = importlib.import_module("qpmedia.cli")
        replacements = {id(cli.main): self.wrap("cli.main", cli.main)}
        modules = [cli, importlib.import_module("qpmedia")]
        for layer in LAYERS:
            mod = importlib.import_module(f"qpmedia.{layer}")
            modules.append(mod)
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name in COUNTED:
                    replacements[id(fn)] = self.count(f"{name.replace('._', '.')}_calls", fn)
                elif not attr.startswith("_"):
                    replacements[id(fn)] = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    self._patch(mod, attr, replacements[id(value)])
        for attr in LINALG:
            self._patch(np.linalg, attr, self._linalg(attr, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def per_call_overhead(calls: int = 20000) -> tuple[float, float]:
    """Seconds a span wrapper and a counter add to one call, from no-op loops."""

    def noop():
        return None

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    tracer = Tracer()
    bare = loop(noop)
    span = loop(tracer.wrap("calibration.noop", noop))
    counter = loop(tracer.count("calibration.noop_calls", noop))
    return max(span - bare, 0.0) / calls, max(counter - bare, 0.0) / calls
