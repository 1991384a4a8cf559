"""Runtime span tracer that wraps phwell's layer functions from outside.

The library is not edited.  `install` replaces module attributes and class
methods with timing wrappers; every phwell module that imported the same
function by name gets the same wrapper, so calls made through either name
are seen.  `uninstall` puts every original object back.

A span is [name, start, end, parent index].  A span's self time is its
duration minus the durations of its direct child spans (one thread, so
children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class Agg:
    calls: int = 0
    total: float = 0.0  # seconds
    self_time: float = 0.0  # seconds

    def mean(self, scale):
        return self.total / self.calls * scale if self.calls else 0.0

    def self_mean(self, scale):
        return self.self_time / self.calls * scale if self.calls else 0.0


class Tracer:
    """Spans and counters kept in memory; patches recorded for removal."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original object)

    # -- spans ------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def aggregate(self):
        """name -> Agg over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            a = out.setdefault(name, Agg())
            a.calls += 1
            a.total += end - start
            a.self_time += end - start - child[i]
        return out

    def outermost(self, prefix):
        """(calls, seconds) of spans named prefix* whose parent is not."""
        calls, total = 0, 0.0
        for name, start, end, parent in self.spans:
            if name.startswith(prefix) and (
                    parent < 0 or not self.spans[parent][0].startswith(prefix)):
                calls += 1
                total += end - start
        return calls, total

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, module, attr, name=None, aliases=True, on_result=None):
        """Wrap module.attr; with aliases, also every phwell name bound to it."""
        original = getattr(module, attr)
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapper = self._wrapper(original, name, on_result)
        self._set(module, attr, wrapper)
        if aliases:
            for mod in _phwell_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def wrap_method(self, cls, attr, name):
        self._set(cls, attr, self._wrapper(cls.__dict__[attr], name, None))

    def replace(self, owner, attr, new):
        self._set(owner, attr, new)

    def _wrapper(self, fn, name, on_result):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__perfbench_wrapper__ = True
        return traced

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self):
        """(owner, attribute, original object) for every installed wrapper."""
        return list(self._patches)


def _phwell_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "phwell" or n.startswith("phwell."))]


def _is_wrapper(obj):
    return getattr(obj, "__perfbench_wrapper__", False) is True


def leftover_wrappers():
    """Names in phwell modules (and their classes) still bound to a wrapper."""
    found = []
    for mod in _phwell_modules():
        for key, value in vars(mod).items():
            if _is_wrapper(value):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{key}.{attr}"
                             for attr, member in vars(value).items()
                             if _is_wrapper(member))
    return found


NUMLIN_FUNCTIONS = (
    "kernel_basis", "numerical_rank", "smallest_singular_value",
    "operator_norm", "hermitian_part", "definiteness",
    "hermitian_eigendecomposition", "inertia", "principal_angles",
    "orthonormal_columns",
)
INTERVAL_FUNCTIONS = (
    "analyze_interval", "range_containment", "check_injective_psd",
    "check_v_contraction", "check_kernel_dissipativity", "check_surjective_psd",
    "check_surjective_v", "check_unitary_conditions", "extract_v",
    "kernel_energy_form",
)
HALFLINE_FUNCTIONS = (
    "analyze_halfline", "decompose_P1", "factorize_boundary",
    "_contraction_conditions", "_unitary_conditions",
)


def _count_quad_nodes(tracer, result):
    tracer.counters["simulator.quad_nodes"] += len(result[0])


def install(tracer):
    """Wrap every layer boundary that a per-layer metric reads."""
    from phwell import cli, config, corpus, halfline, interval, model, numlin, simulator

    for attr in ("system_from_dict", "verdict_to_json"):
        tracer.wrap(config, attr)
    for attr in ("validate_system", "derive_boundary_operator", "port_variables"):
        tracer.wrap(model, attr)
    # The oracle's own reference to kernel_energy_form gets its own name,
    # so its calls are counted apart from the checker's.
    tracer.wrap(simulator, "kernel_energy_form", "simulator.kernel_energy_form",
                aliases=False)
    for attr in INTERVAL_FUNCTIONS:
        tracer.wrap(interval, attr)
    for attr in HALFLINE_FUNCTIONS:
        tracer.wrap(halfline, attr)
    for attr in NUMLIN_FUNCTIONS:
        tracer.wrap(numlin, attr)
    for attr in ("random_system", "_draw_interval", "_draw_halfline"):
        tracer.wrap(corpus, attr)
    for attr in ("dissipativity_oracle", "_rayleigh_split", "boundary_form_value",
                 "simulate"):
        tracer.wrap(simulator, attr)
    tracer.wrap(simulator, "_gauss_panels", on_result=_count_quad_nodes)
    tracer.wrap(cli, "analyze")
    tracer.wrap_method(simulator.SmoothFunction, "derivatives",
                       "simulator.SmoothFunction.derivatives")
    tracer.wrap_method(simulator._BoundaryClosure, "traces",
                       "simulator._BoundaryClosure.traces")
    tracer.wrap_method(simulator._BoundaryClosure, "__init__",
                       "simulator._BoundaryClosure.init")

    spline = halfline.CubicSpline

    class CountingSpline(spline):
        __perfbench_wrapper__ = True

        def __init__(self, *args, **kwargs):
            tracer.call("halfline.CubicSpline.build", super().__init__,
                        *args, **kwargs)

        def __call__(self, *args, **kwargs):
            tracer.counters["halfline.spline_evals"] += 1
            return super().__call__(*args, **kwargs)

    tracer.replace(halfline, "CubicSpline", CountingSpline)
