"""The benchmark tracer must find every name it wraps and put all back.

perfbench/tracer.py wraps phwell functions by name at run time, so a
rename inside phwell breaks `perfbench/run.py --trace 1`; this catches it
in the test suite.
"""

from pathlib import Path

import numpy as np

from phwell import cli, oracle, simulator
from phwell.corpus import CORPUS, random_system
from phwell.halfline import solve_resolvent_halfline, unit_decomposition
from phwell.oracle import ORACLE_WITNESS_WIDTHS, dissipativity_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracer_mod

    oracle._oracle_gram.cache_clear()  # earlier tests may have filled it
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert tracer.patched()
        system = random_system(0, N=3, klass="interval_square")
        rep = dissipativity_oracle(system)
        # one quadrature for the boundary stack, one for the bump stack
        # (P0 != 0), and one per witness width tried past the first, whose
        # stack is the boundary one
        width = rep.witness.narrowest_transition()
        tried = 1 + next(i for i, eps in enumerate(ORACLE_WITNESS_WIDTHS)
                         if abs(eps - width) <= 1e-12)
        misses = tracer.aggregate()["simulator._rayleigh_split"].calls
        assert system.P[0].any()
        assert misses == 2 + (tried - 1)
        # another system of the same order reuses every Gram stack
        dissipativity_oracle(random_system(1, N=3, klass="interval_square"))
    finally:
        tracer.uninstall()
    assert tracer_mod.leftover_wrappers() == []
    assert tracer.aggregate()["simulator._rayleigh_split"].calls == misses


def test_every_checker_layer_is_called(monkeypatch):
    # a layer metric whose span no analysis reaches reads 0, so a
    # restructure of a checker could zero it silently
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer as tracer_mod

    spans = ([f"interval.{f}" for f in tracer_mod.INTERVAL_FUNCTIONS]
             + [f"halfline.{f}" for f in tracer_mod.HALFLINE_FUNCTIONS])
    metrics = [m[0] for m in layers.LAYER_METRICS]
    assert all(any(m.startswith(s + ".") for m in metrics) for s in spans)
    systems = [CORPUS[n].system() for n in ("wave_halfline_u05", "path_graph_d8")]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        for system in systems:
            cli.analyze(system)
    finally:
        tracer.uninstall()
    seen = tracer.aggregate()
    assert [s for s in spans if s not in seen] == []


def test_every_simulate_layer_is_called(monkeypatch):
    # a span simulate no longer reaches zeroes its layer metric; the spans
    # are read off the simulate-workload metrics themselves, so a metric
    # added there is covered too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        for name, center in (("wave_interval_damped", 0.5),
                             ("wave_halfline_u05", 3.0)):
            system = CORPUS[name].system()
            simulator.simulate(system,
                               simulator.smooth_bump(center, 0.25, system.dim_d),
                               t_final=0.05, nx=32, cfl=0.45)
    finally:
        tracer.uninstall()

    read = set()

    class Reads(layers.Ctx):
        def a(self, name):
            read.add(name)
            return super().a(name)

    ctx = Reads(tracer, {"calls": 2, "steps": 1}, tracer_mod.Tracer(), 0.0, 1.0)
    for _name, _unit, _better, fn, _moves, where in layers.LAYER_METRICS:
        if where == "simulate":
            fn(ctx)
    spans = {s for s in read if s.startswith("simulator.")}
    assert spans >= {"simulator.simulate", "simulator._BoundaryClosure.traces",
                     "simulator._BoundaryClosure.init"}
    seen = tracer.aggregate()
    assert sorted(s for s in spans if s not in seen) == []


def test_resolvent_builds_one_spline(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracer_mod

    t = np.linspace(0.0, 30.0, 1501)
    y = np.vstack([(1.0 + t) * np.exp(-t), np.exp(-t)])
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        solve_resolvent_halfline(unit_decomposition(1, 1), np.array([[0.6]]), y,
                                 L=30.0)
    finally:
        tracer.uninstall()
    assert tracer.aggregate()["halfline.CubicSpline.build"].calls == 1
    assert tracer.counters["halfline.spline_evals"] <= 3

