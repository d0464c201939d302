"""Per-layer tracing of a `phi4` run, applied from outside the program.

While a `Tracer` is active it replaces the public functions of each layer
module (the names in its `__all__`, plus the hot methods listed in
`METHODS`) in every `phi4torus` module namespace that binds them, the
click callbacks of the CLI, and the n-d transforms of `scipy.fft` and
`numpy.fft`.  Each wrapper records a span; spans nest on a stack, so a
layer's self time is its spans' time minus the time of their child spans.
FFT spans form a layer of their own (`spectral.fft`), so `spectral.self_s`
excludes transform time.  Everything is restored on exit.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

import numpy.fft
import scipy.fft

LAYERS = ("spectral", "noise", "paraproduct", "trees", "dynamics")
METHODS = {"noise": {"NoiseStream": ("normals",)},
           "trees": {"TreeEvolver": ("step", "snapshot")}}
FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.fft_points = 0
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._depth: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                if not self._depth[name]:
                    self.inclusive[name] += elapsed
                self.self_time[layer] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed

        return traced

    def _wrap_fft(self, fn):
        traced = self._wrap(fn, "spectral.fft", "spectral.fft")

        @functools.wraps(fn)
        def counted(x, s=None, axes=None, *args, **kwargs):
            shape = getattr(x, "shape", ())
            if s is not None:
                self.fft_points += math.prod(s)
            elif axes is not None:
                self.fft_points += math.prod(shape[a] for a in axes)
            else:
                self.fft_points += math.prod(shape)
            return traced(x, s, axes, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- activation -----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        import phi4torus.cli as cli

        modules = [m for name, m in sys.modules.items()
                   if name == "phi4torus" or name.startswith("phi4torus.")]
        for layer in LAYERS:
            mod = sys.modules[f"phi4torus.{layer}"]
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{fname}", layer)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patch(m, attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth,
                                self._wrap(getattr(cls, meth), f"{layer}.{meth}", layer))
        for name, cmd in cli.main.commands.items():
            self._patch(cmd, "callback", self._wrap(cmd.callback, f"cli.{name}", "cli"))
        for module in (scipy.fft, numpy.fft):
            for fname in FFT_NAMES:
                self._patch(module, fname, self._wrap_fft(getattr(module, fname)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
