"""Per-layer metrics: what each one reads from a traced phase, and which
end-to-end metric on which workload it should move.

Every traced run prints every metric below.  A layer that the workload
never calls reads 0, which is the prediction "no change" for that
workload.  "Per call" values are means over the traced phase; counts are
normalised per system (one call into the workload's entry point), per
time step or per grid point, and repeat exactly because the traced phase
runs whole rounds of an unchanging call list.
"""

from __future__ import annotations

from tracer import Agg

US = 1e6
MS = 1e3


def _ratio(a, b):
    return a / b if b else 0.0


class Ctx:
    """One traced phase: span aggregates, counters and per-call units."""

    def __init__(self, tracer, units, setup_tracer, overhead_pct, scale):
        self.agg = tracer.aggregate()
        self.tracer = tracer
        self.counters = tracer.counters
        self.units = units  # summed units of the traced calls
        self.setup_agg = setup_tracer.aggregate()
        self.overhead_pct = overhead_pct
        self.scale = scale  # to reference host speed, as the end-to-end times
        self.item_time = sum(a.total for n, a in self.agg.items()
                             if n.startswith("item:"))

    def a(self, name):
        return self.agg.get(name) or Agg()

    def per_system(self, count):
        return _ratio(count, self.units["calls"])

    def share(self, name, of):
        return 100.0 * _ratio(self.a(name).total, self.a(of).total)


def _us(span):
    return lambda c: c.a(span).mean(US)


def _self_us(span):
    return lambda c: c.a(span).self_mean(US)


def _calls_per_system(span):
    return lambda c: c.per_system(c.a(span).calls)


def _item_ms(group):
    return lambda c: c.a("item:" + group).mean(MS)


def _numlin_busy_share(c):
    return 100.0 * _ratio(c.tracer.outermost("numlin.")[1], c.item_time)


def _accept_ratio(c):
    draws = c.setup_agg.get("corpus._draw_interval"), c.setup_agg.get("corpus._draw_halfline")
    attempts = sum(a.calls for a in draws if a is not None)
    accepted = c.setup_agg.get("corpus.random_system")
    return _ratio(accepted.calls if accepted else 0, attempts)


def _random_system_ms(c):
    a = c.setup_agg.get("corpus.random_system")
    return a.mean(MS) if a else 0.0


SIM_CASES = ("wave_interval_damped", "wave_piecewise_damped", "path_graph_d32",
             "transport_periodic", "wave_halfline_u05")
RESOLVENT_GROUPS = ("R1", "R2_n1500", "R2_n3000", "R2_n6000")

CHECK_MOVES = "items_per_s, item_p50_ms"
INTERVAL_MOVES = "items_per_s, item_p50_ms, item_p95_ms"

# (name, unit, better, compute, should move, on workload)
LAYER_METRICS = [
    ("config.system_from_dict.us", "us", "lower", _us("config.system_from_dict"),
     CHECK_MOVES, "check"),
    ("config.verdict_to_json.us", "us", "lower", _us("config.verdict_to_json"),
     CHECK_MOVES, "check"),
    ("model.validate_system.us", "us", "lower", _us("model.validate_system"),
     "items_per_s (check); setup_s (all)", "check"),
    ("model.derive_boundary_operator.us", "us", "lower",
     _us("model.derive_boundary_operator"), "items_per_s", "check"),
    ("model.port_variables.us", "us", "lower", _us("model.port_variables"),
     "items_per_s", "simulate"),
    ("interval.analyze_interval.self_us", "us", "lower",
     _self_us("interval.analyze_interval"), INTERVAL_MOVES, "check"),
] + [
    (f"interval.{f}.us", "us", "lower", _us(f"interval.{f}"), INTERVAL_MOVES, "check")
    for f in ("range_containment", "check_injective_psd", "check_v_contraction",
              "check_kernel_dissipativity", "check_surjective_psd",
              "check_surjective_v", "check_unitary_conditions", "extract_v",
              "kernel_energy_form")
] + [
    ("interval.kernel_energy_form.calls_per_system", "count", "lower",
     _calls_per_system("interval.kernel_energy_form"), INTERVAL_MOVES, "check"),
    ("halfline.analyze_halfline.self_us", "us", "lower",
     _self_us("halfline.analyze_halfline"), CHECK_MOVES, "check"),
] + [
    (f"halfline.{f}.us", "us", "lower", _us(f"halfline.{f}"), CHECK_MOVES, "check")
    for f in ("decompose_P1", "factorize_boundary", "_contraction_conditions",
              "_unitary_conditions")
] + [
    (f"halfline.resolvent.{g}.ms", "ms", "lower", _item_ms(g), "items_per_s",
     "resolvent")
    for g in RESOLVENT_GROUPS
] + [
    ("halfline.CubicSpline.build_us", "us", "lower",
     _us("halfline.CubicSpline.build"), "items_per_s", "resolvent"),
    ("halfline.spline_evals_per_point", "count", "lower",
     lambda c: _ratio(c.counters["halfline.spline_evals"], c.units["r2_points"]),
     "items_per_s", "resolvent"),
    ("numlin.calls_per_system", "count", "lower",
     lambda c: c.per_system(c.tracer.outermost("numlin.")[0]),
     "items_per_s, item_p95_ms", "check"),
    ("numlin.definiteness.calls_per_system", "count", "lower",
     _calls_per_system("numlin.definiteness"), "items_per_s, item_p95_ms", "check"),
    ("numlin.busy_share", "%", "lower", _numlin_busy_share,
     "items_per_s, item_p95_ms", "check"),
    ("numlin.kernel_basis.us", "us", "lower", _us("numlin.kernel_basis"),
     "items_per_s, item_p95_ms", "check"),
    ("corpus.random_system.ms", "ms", "lower", _random_system_ms, "setup_s",
     "check, oracle"),
    ("corpus.accept_ratio", "1", "higher", _accept_ratio, "setup_s", "check"),
    ("simulator.dissipativity_oracle.self_ms", "ms", "lower",
     lambda c: c.a("simulator.dissipativity_oracle").self_mean(MS),
     "items_per_s, item_p50_ms", "oracle"),
    ("simulator.SmoothFunction.derivatives.us", "us", "lower",
     _us("simulator.SmoothFunction.derivatives"), "items_per_s, item_p50_ms",
     "oracle"),
    ("simulator.SmoothFunction.derivatives.busy_share", "%", "lower",
     lambda c: c.share("simulator.SmoothFunction.derivatives",
                       "simulator.dissipativity_oracle"),
     "items_per_s, item_p50_ms", "oracle"),
    ("simulator._gauss_panels.us", "us", "lower", _us("simulator._gauss_panels"),
     "items_per_s, item_p50_ms", "oracle"),
    ("simulator._gauss_panels.busy_share", "%", "lower",
     lambda c: c.share("simulator._gauss_panels", "simulator.dissipativity_oracle"),
     "items_per_s, item_p50_ms", "oracle"),
    ("simulator.boundary_form_value.us", "us", "lower",
     _us("simulator.boundary_form_value"), "items_per_s, item_p50_ms", "oracle"),
    ("simulator.rayleigh_evals_per_system", "count", "lower",
     _calls_per_system("simulator._rayleigh_split"),
     "items_per_s, item_p50_ms, peak_rss_mb", "oracle"),
    ("simulator.quad_nodes_per_system", "count", "lower",
     lambda c: c.per_system(c.counters["simulator.quad_nodes"]),
     "items_per_s, item_p50_ms, peak_rss_mb", "oracle"),
    ("simulator.kernel_energy_form.calls_per_system", "count", "lower",
     _calls_per_system("simulator.kernel_energy_form"), "items_per_s", "oracle"),
    ("simulator.simulate.self_share", "%", "lower",
     lambda c: 100.0 * _ratio(c.a("simulator.simulate").self_time,
                              c.a("simulator.simulate").total),
     "items_per_s, peak_rss_mb", "simulate"),
    ("simulator._BoundaryClosure.traces.us", "us", "lower",
     _us("simulator._BoundaryClosure.traces"), "items_per_s", "simulate"),
    ("simulator._BoundaryClosure.traces.calls_per_step", "count", "lower",
     lambda c: _ratio(c.a("simulator._BoundaryClosure.traces").calls,
                      c.units["steps"]),
     "items_per_s", "simulate"),
    ("simulator._BoundaryClosure.init_ms", "ms", "lower",
     lambda c: c.a("simulator._BoundaryClosure.init").mean(MS), "items_per_s",
     "simulate"),
] + [
    (f"simulator.simulate.{case}.ms", "ms", "lower", _item_ms(case), "items_per_s",
     "simulate")
    for case in SIM_CASES
] + [
    ("trace_overhead", "%", "lower", lambda c: c.overhead_pct,
     "none: traced/plain robust time - 1", "all"),
]


def compute(ctx):
    """Every per-layer metric; times are scaled to reference host speed."""
    return {name: {"value": float(fn(ctx)) * (ctx.scale if unit in ("us", "ms") else 1.0),
                   "unit": unit}
            for name, unit, _better, fn, _moves, _where in LAYER_METRICS}
