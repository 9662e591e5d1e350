"""Span tracer that wraps manifold_approx's public functions from outside.

The library has no timers of its own, so a traced run replaces each traced
function where its callers look it up: module attributes (every module of the
package that holds the function under some name) and methods on the concrete
manifold, basis and approximant classes.  Each call records one span (name,
start, end, parent span) in flat arrays kept in memory; ``write`` saves them
when the run ends.  A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.

``matfun.thin_qr`` and ``matfun.sym_funm`` are counted but not timed: the
Segre workload never calls ``thin_qr`` and only the retraction workload calls
``sym_funm``, so their self time would read 0 on every run of the others.
Their time stays in the caller's self time (``manifolds.exp`` and
``manifolds.retract``).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "manifold_approx"

#: (module, attribute) -> span name
FUNCTION_SPANS = {
    ("manifold_approx.approximator", "choose_base_point"): "approximator.base_point",
    ("manifold_approx.approximator", "sample_tensor"): "approximator.sample_tensor",
    ("manifold_approx.approximator", "validate"): "approximator.validate",
    ("manifold_approx.approximator", "save_approximant"): "approximator.serialize",
    ("manifold_approx.approximator", "load_approximant"): "approximator.serialize",
    ("manifold_approx.manifolds.karcher", "karcher_mean_estimate"): "manifolds.karcher",
    ("manifold_approx.matfun", "thin_svd"): "matfun.thin_svd",
    ("manifold_approx.chebyshev", "cardinal_row"): "chebyshev.cardinal_row",
    ("manifold_approx.tucker", "sthosvd"): "tucker.sthosvd",
    ("manifold_approx.util", "pool_map"): "util.pool_map",
}

#: (module, attribute) -> counter name, for functions counted but not timed
FUNCTION_COUNTS = {
    ("manifold_approx.matfun", "thin_qr"): "matfun.thin_qr",
    ("manifold_approx.matfun", "sym_funm"): "matfun.sym_funm",
}

MANIFOLD_SPANS = {
    "exp": "manifolds.exp",
    "log": "manifolds.log",
    "retract": "manifolds.retract",
    "inverse_retract": "manifolds.inverse_retract",
    "distance": "manifolds.distance",
    "inner": "manifolds.inner",
    "norm": "manifolds.inner",
    "check_point": "manifolds.check",
    "check_tangent": "manifolds.check",
    "tangent_basis": "manifolds.basis",
}

BASIS_SPANS = {"coords": "manifolds.basis", "vector": "manifolds.basis"}

#: (module, class) -> {method: span name}
CLASS_SPANS = {
    ("manifold_approx.manifolds.grassmann", "Grassmannian"): MANIFOLD_SPANS,
    ("manifold_approx.manifolds.segre", "Segre"): MANIFOLD_SPANS,
    ("manifold_approx.manifolds.grassmann", "GrassmannBasis"): BASIS_SPANS,
    ("manifold_approx.manifolds.segre", "SegreBasis"): BASIS_SPANS,
    ("manifold_approx.approximator", "ManifoldApproximant"):
        {"pullback_coords": "approximator.pullback_coords"},
}


def _count_validation(counters, args, kwargs, report):
    count = args[2] if len(args) > 2 else kwargs["validation_count"]
    counters["approximator.validate.draws"] += int(count)
    counters["approximator.validate.chart_failures"] += int(report.chart_failures)


def _count_saved_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["approximator.serialize.bytes"] += os.path.getsize(path)


def _count_loaded_bytes(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["approximator.serialize.bytes"] += os.path.getsize(path)


AFTER = {
    ("manifold_approx.approximator", "validate"): _count_validation,
    ("manifold_approx.approximator", "save_approximant"): _count_saved_bytes,
    ("manifold_approx.approximator", "load_approximant"): _count_loaded_bytes,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = Counter()
        self.recording = True
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, after=None):
        """``fn`` wrapped to record one span per call, then run ``after``."""
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        """``fn`` wrapped to count its calls without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.recording:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block (the benchmark's own checks) are not recorded."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def layer_totals(self):
        """{span name: (calls, self seconds)} over every recorded span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=ids.size)
        own = duration - covered
        calls = np.bincount(ids, minlength=len(self.names))
        seconds = np.bincount(ids, weights=own, minlength=len(self.names)) * 1e-9
        return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        """Save the spans as columns of an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def installed(tracer):
    """Wrap the traced functions and methods for the duration of the block.

    A name missing from the library is skipped, so its metrics read 0 calls.
    """
    restore = []
    modules = _package_modules()
    wrappers = {}
    for key, name in FUNCTION_SPANS.items():
        original = getattr(sys.modules.get(key[0]), key[1], None)
        if original is not None:
            wrappers[key] = (original, tracer.span(name, original, AFTER.get(key)))
    for key, name in FUNCTION_COUNTS.items():
        original = getattr(sys.modules.get(key[0]), key[1], None)
        if original is not None:
            wrappers[key] = (original, tracer.count(name, original))
    for original, wrapped in wrappers.values():
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attribute, value))
                    setattr(module, attribute, wrapped)
    for (module_name, class_name), methods in CLASS_SPANS.items():
        cls = getattr(sys.modules.get(module_name), class_name, None)
        if cls is None:
            continue
        for method, name in methods.items():
            original = getattr(cls, method, None)
            if original is None:
                continue
            restore.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, tracer.span(name, original))
    try:
        yield tracer
    finally:
        for owner, attribute, value in reversed(restore):
            if value is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, value)
