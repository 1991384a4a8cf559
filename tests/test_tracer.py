"""The benchmark tracer must find every name it wraps and put all back.

perfbench/tracer.py wraps phwell functions by name at run time, so a
rename inside phwell breaks `perfbench/run.py --trace 1`; this catches it
in the test suite.
"""

from pathlib import Path

from phwell.corpus import random_system
from phwell.simulator import dissipativity_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert tracer.patched()
        dissipativity_oracle(random_system(0, N=3, klass="interval_square"),
                             n_samples=4, seed=0)
    finally:
        tracer.uninstall()
    assert tracer_mod.leftover_wrappers() == []
    # one quadrature per layer width (3 at most) plus one for the bumps
    assert 1 <= tracer.aggregate()["simulator._rayleigh_split"].calls <= 4
