"""Span timers around the public entry points of each regcert module.

The benchmark traces from outside the package: ``install`` replaces each
layer function with a timing wrapper, at its definition and at every module
that bound it with ``from .x import y``, and methods on their class.  A span
records its duration (busy) and its duration minus the spans nested in it on
the same thread (self).  Each layer also records a work count taken from its
arguments or result.  Spans live in memory and are read once at the end.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _points(args, kwargs, result):
    return len(args[1])


def _voxels(volume) -> int:
    nx, ny, nz = volume.shape
    return nx * ny * nz


@dataclass(frozen=True)
class Layer:
    """One traced entry point: ``module.[cls.]attr`` plus its work count."""

    module: str
    attr: str
    cls: str | None = None
    counts: tuple = ()  # (count name, fn(args, kwargs, result) -> int)

    @property
    def name(self) -> str:
        owner = f"{self.cls}." if self.cls else ""
        return f"{self.module}.{owner}{self.attr}"


# The layers the benchmark reports, each with the work counts it records.
LAYERS = (
    Layer("geometry", "trilinear_sample", counts=(("points", _points),)),
    Layer("geometry", "displacement", cls="BSplineTransform", counts=(("points", _points),)),
    Layer("geometry", "displacement_jacobian", cls="BSplineTransform",
          counts=(("points", _points),)),
    Layer("geometry", "invert_at", counts=(("iterations", lambda a, k, r: r[2]),)),
    Layer("volume", "warp", counts=(("voxels", lambda a, k, r: _voxels(a[0])),)),
    Layer("volume", "read_volume", counts=(("bytes", lambda a, k, r: os.path.getsize(a[0])),)),
    Layer("volume", "write_volume", counts=(("bytes", lambda a, k, r: os.path.getsize(a[0])),)),
    Layer("volume", "make_phantom", counts=(("voxels", lambda a, k, r: _voxels(r)),)),
    Layer("perturb", "sample_perturbation"),
    Layer("register", "affine_ssd_register",
          counts=(("iterations", lambda a, k, r: len(r.log)),
                  ("diverged", lambda a, k, r: int(r.diverged)))),
    Layer("register", "demons_register", counts=(("iterations", lambda a, k, r: r.iterations),)),
    Layer("register", "register", cls="AffineSsdBackend"),
    Layer("register", "register", cls="DemonsBackend"),
    Layer("register", "register", cls="OracleBackend"),
    Layer("register", "inverse_positions", cls="OracleBackend"),
    Layer("uncertainty", "estimate_uncertainty"),
    Layer("uncertainty", "_one_sample"),
    Layer("uncertainty", "decompose_cov"),
    Layer("uncertainty", "verify_lemma"),
    Layer("metrics", "error_map", counts=(("voxels", lambda a, k, r: r.mask.count),)),
    Layer("metrics", "risk_coverage", counts=(("voxels", lambda a, k, r: r.n_voxels),)),
    Layer("metrics", "pearson"),
    Layer("metrics", "spearman"),
    Layer("metrics", "mse_decomposition_check", counts=(("draws", lambda a, k, r: r.draws),)),
    Layer("cli", "main"),
)

# Every backend's ``register``: one call is one registration sample.
BACKEND_REGISTER = tuple(l.name for l in LAYERS if l.attr == "register" and l.cls)


class Tracer:
    """In-memory span accumulator, safe to call from worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: dict[str, dict] = {}
        self.durations: dict[str, list] = {}
        self.threads: list[tuple[int, float]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        stat = self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        stat.update({count: 0 for count, _ in layer.counts})
        durations = self.durations.setdefault(name, [])
        is_estimate = name == "uncertainty.estimate_uncertainty"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += busy
                with self._lock:
                    stat["calls"] += 1
                    stat["busy_s"] += busy
                    stat["self_s"] += busy - nested
                    durations.append(busy)
                    if is_estimate:
                        self.threads.append((int(kwargs.get("threads", 1)), busy))
            for count, measure in layer.counts:
                work = measure(args, kwargs, result)
                with self._lock:
                    stat[count] += work
            return result

        return traced


def _regcert_modules():
    return [m for n, m in sys.modules.items() if n == "regcert" or n.startswith("regcert.")]


def install(tracer: Tracer) -> dict[str, list]:
    """Wrap every layer at every binding site; returns the sites per layer."""
    sites = {}
    modules = _regcert_modules()
    for layer in LAYERS:
        owner = importlib.import_module(f"regcert.{layer.module}")
        if layer.cls is not None:
            cls = getattr(owner, layer.cls)
            setattr(cls, layer.attr, tracer.wrap(layer, cls.__dict__[layer.attr]))
            sites[layer.name] = [f"{owner.__name__}.{layer.cls}"]
            continue
        original = getattr(owner, layer.attr)
        wrapped = tracer.wrap(layer, original)
        sites[layer.name] = []
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    sites[layer.name].append(mod.__name__)
    return sites
