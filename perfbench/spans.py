"""In-memory span tracer and the wrappers that put it around siegelball's layers.

:func:`instrument` replaces the public functions of each layer module
(``geometry``, ``autgroup``, ``jets``, ``maps``, ``hilbert``, ``verify``) with
traced wrappers, in every ``siegelball`` namespace that holds them, including
the names ``verify`` imported into its own namespace.  It also wraps the
validation of ``SiegelPoint`` and ``AutParams``, the point evaluators of the
maps the layers hand out, and each ``verify`` check group.  Leaving the
``with`` block restores every original.

A span records its name, start, end and the span that was open when it
started.  Each span's self time is its duration minus the time covered by
its child spans.  Totals per name are kept for every span; the spans
themselves are kept up to a cap and written out at the end of the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("geometry", "autgroup", "jets", "maps", "hilbert", "verify")

#: Geometry samplers, traced under one shared span name.
SAMPLERS = ("sample_siegel_boundary", "sample_sphere", "sample_ball")

#: Private helpers that do a layer's work on behalf of public calls; without
#: a span their time would be booked to whichever layer called them.
PRIVATE_WORKERS = {"autgroup": ("_apply_batch",)}


class Tracer:
    """Collects spans, per-name totals and named counters."""

    def __init__(self, keep: int):
        self.keep = keep
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.raised: list[int] = []
        self.counters: Counter = Counter()
        self.root_seconds = 0.0
        self.span_count = 0
        self._stack: list[list] = []
        self._id = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")

    def _intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.raised.append(0)
        return idx

    def wrap(self, name: str, fn, after=None):
        """Traced version of ``fn``; ``after(result, args, kwargs)`` may
        replace the result once the span has closed."""
        idx = self._intern(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                self._close(idx, frame, parent, start, end, ok)
            if after is not None:
                result = after(result, args, kwargs)
            return result

        return traced

    def _close(self, idx, frame, parent, start, end, ok):
        duration = end - start
        self.calls[idx] += 1
        self.total[idx] += duration
        self.self_time[idx] += duration - frame[1]
        if not ok:
            self.raised[idx] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_seconds += duration
        if frame[0] < self.keep:
            self._id.append(frame[0])
            self._parent.append(parent)
            self._name.append(idx)
            self._start.append(start)
            self._end.append(end)

    def stat(self, name: str) -> tuple[int, float, float, int]:
        """(calls, total seconds, self seconds, calls that raised)."""
        idx = self._index.get(name)
        if idx is None:
            return 0, 0.0, 0.0, 0
        return self.calls[idx], self.total[idx], self.self_time[idx], self.raised[idx]

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def write(self, path) -> None:
        """Write the kept spans (ids, parents, name index, start, end)."""
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self._id, dtype=np.int64),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            spans_total=self.span_count,
        )


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _count_points(tracer):
    def after(result, args, kwargs):
        tracer.counters["geometry.samplers.points"] += len(result)
        return result
    return after


def _count_grid(tracer, signature):
    def after(jet, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        d, m = bound.arguments["H"].dim, bound.arguments["cfg"].nodes
        # origin + w-circle + one circle per z_j + a w-circle per z_j-node
        tracer.counters["jets.extract_jet2.grid_points"] += 1 + m + d * m + d * m * m
        return jet
    return after


def _trace_evaluators(tracer, name, fields):
    def after(result, args, kwargs):
        changes = {f: tracer.wrap(name, getattr(result, f))
                   for f in fields if getattr(result, f) is not None}
        return dataclasses.replace(result, **changes)
    return after


def group_name(fn) -> str:
    """Name of a ``verify`` check group: ``_g_cayley_roundtrip`` -> ``cayley_roundtrip``."""
    return fn.__name__.split("_", 2)[2]


@contextlib.contextmanager
def instrument(sb, tracer: Tracer):
    """Trace the package ``sb`` inside the block."""
    replacements = {}
    layers = {layer: getattr(sb, layer) for layer in LAYERS}
    for layer, module in layers.items():
        for name, fn in _public_functions(module):
            after = None
            span = f"{layer}.{name}"
            if layer == "geometry" and name in SAMPLERS:
                span, after = "geometry.samplers", _count_points(tracer)
            elif layer == "jets" and name == "extract_jet2":
                after = _count_grid(tracer, inspect.signature(fn))
            elif layer == "maps" and name in ("homog_sum_map", "whitney_map", "shift_map"):
                after = _trace_evaluators(tracer, "maps.evaluate", ("evaluate",))
            elif layer == "autgroup" and name == "inverse_map":
                after = _trace_evaluators(tracer, "autgroup.inverse_map.evaluate",
                                          ("evaluate", "evaluate_batch"))
            replacements[id(fn)] = (fn, tracer.wrap(span, fn, after))
        for name in PRIVATE_WORKERS.get(layer, ()):
            fn = getattr(module, name, None)
            if fn is None:
                continue
            replacements[id(fn)] = (fn, tracer.wrap(f"{layer}.{name.lstrip('_')}", fn))

    restore = []
    saved_groups = {suite: list(fns) for suite, fns in sb.verify.GROUPS.items()}
    try:
        modules = [m for n, m in list(sys.modules.items())
                   if n == sb.__name__ or n.startswith(sb.__name__ + ".")]
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append((module, name, value))
                    setattr(module, name, hit[1])
        for cls, layer in ((sb.geometry.SiegelPoint, "geometry"),
                           (sb.autgroup.AutParams, "autgroup")):
            original = cls.__post_init__
            restore.append((cls, "__post_init__", original))
            cls.__post_init__ = tracer.wrap(f"{layer}.{cls.__name__}", original)
        for suite, fns in sb.verify.GROUPS.items():
            fns[:] = [tracer.wrap(f"verify.{suite}.{group_name(fn)}", fn) for fn in fns]
        yield tracer
    finally:
        for target, name, value in reversed(restore):
            setattr(target, name, value)
        for suite, fns in saved_groups.items():
            sb.verify.GROUPS[suite][:] = fns
