import numpy as np
import pytest

from phwell import simulate, smooth_bump
from phwell.corpus import (
    CORPUS,
    build_path_graph,
    build_periodic_transport,
    build_transport,
    build_wave,
)
from phwell.errors import BoundaryClosureSingular, CFLViolation, ShapeError
from phwell.model import UNIT_INTERVAL
from phwell.simulator import _semidiscrete_operator


def test_transport_exact_solution():
    sys = build_transport()
    x0 = smooth_bump(0.3, 0.25, 1)
    tr = simulate(sys, x0, t_final=0.5, nx=400, cfl=0.9)
    exact = np.array([x0(z - 0.5)[0] for z in tr.cell_centers])
    err = np.linalg.norm(tr.final_state[0] - exact) / np.linalg.norm(exact)
    assert err <= 0.05
    assert tr.max_violation == 0.0


def test_transport_energy_decays_after_exit():
    sys = build_transport()
    tr = simulate(sys, smooth_bump(0.3, 0.2, 1), t_final=1.5, nx=400, cfl=0.9)
    assert tr.energy[-1] <= 1e-3 * tr.energy[0]
    # near-constant while the bump is interior (upwind smearing only)
    i = np.searchsorted(tr.times, 0.3)
    assert tr.energy[i] >= 0.9 * tr.energy[0]


def test_periodic_transport_conservation_refinement():
    sys = build_periodic_transport()
    drifts = []
    for nx in (100, 200, 400):
        tr = simulate(sys, smooth_bump(0.5, 0.3, 1), t_final=1.0, nx=nx, cfl=0.9)
        drifts.append(abs(tr.energy[-1] - tr.energy[0]) / tr.energy[0])
        assert tr.max_violation <= 1e-12 * tr.energy[0]
    assert drifts[0] / drifts[1] >= 1.5
    assert drifts[1] / drifts[2] >= 1.5


def test_damped_wave_monotone_energy():
    sys = build_wave("unit_interval", 0.7)

    def x0(z):
        r = (z - 0.5) / 0.25
        amp = np.exp(1 - 1 / (1 - r * r)) if abs(r) < 1 else 0.0
        return np.array([amp, 0.0])

    tr = simulate(sys, x0, t_final=1.0, nx=200, cfl=0.45)
    assert tr.max_violation == 0.0
    assert tr.energy[-1] < tr.energy[0]


def test_energy_rate_identity_refines():
    sys = build_transport()
    errs = []
    for nx in (100, 200, 400):
        tr = simulate(sys, smooth_bump(0.4, 0.25, 1), t_final=1.0, nx=nx, cfl=0.45)
        dE = np.diff(tr.energy) / np.diff(tr.times)
        power = (tr.boundary_power + tr.interior_power)[:-1]
        errs.append(np.max(np.abs(dE - power)))
    assert errs[1] <= errs[0] / 1.5
    assert errs[2] <= errs[1] / 1.5


def test_path_graph_simulation_contracts():
    sys = build_path_graph(8)

    def x0(z):
        out = np.zeros(8)
        r = (z - 0.5) / 0.3
        if abs(r) < 1:
            out[:] = np.exp(1 - 1 / (1 - r * r))
        return out

    tr = simulate(sys, x0, t_final=0.5, nx=100, cfl=0.45)
    assert tr.max_violation <= 1e-12 * tr.energy[0]


def test_halfline_truncated_run_notes():
    sys = build_wave("half_line", 0.5)
    tr = simulate(sys, lambda z: np.array([np.exp(-((z - 3.0) ** 2)), 0.0]),
                  t_final=1.0, nx=200, cfl=0.45, L=10.0)
    assert tr.notes and "truncated" in tr.notes[0]
    assert tr.max_violation <= 1e-12 * tr.energy[0]


def test_snapshots_and_csv(tmp_path):
    sys = build_transport()
    tr = simulate(sys, smooth_bump(0.3, 0.2, 1), t_final=0.4, nx=64, cfl=0.8,
                  snapshot_times=[0.2])
    assert len(tr.snapshots) == 1
    t_snap, state = tr.snapshots[0]
    assert t_snap == pytest.approx(0.2, abs=2e-2)
    assert state.shape == (1, 64)
    out = tmp_path / "trace.csv"
    tr.to_csv(out)
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape[1] == 4
    header = out.read_text().splitlines()[0]
    assert header == "t,energy,boundary_power,interior_power"


def test_cfl_and_nx_validation():
    sys = build_transport()
    with pytest.raises(CFLViolation):
        simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=32, cfl=1.2)
    with pytest.raises(ShapeError):
        simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=8)


def test_singular_closure_detected():
    sys = build_transport(inflow_zero=False)
    with pytest.raises(BoundaryClosureSingular):
        simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=32)


def test_initial_state_array_forms():
    sys = build_transport()
    base = simulate(sys, smooth_bump(0.3, 0.2, 1), 0.1, nx=32, cfl=0.5)
    arr = np.array([smooth_bump(0.3, 0.2, 1)(z) for z in base.cell_centers])
    tr2 = simulate(sys, arr, 0.1, nx=32, cfl=0.5)
    np.testing.assert_allclose(tr2.energy, base.energy, rtol=1e-12)


# Values recorded with the stage-by-stage right-hand side that preceded the
# assembled operator: (energy[-1], max boundary power, min boundary power,
# max_violation, sum |final_state|).  Runs use cfl = 0.45 and a snapshot at
# t_final / 2.
SEED_RUNS = {
    "wave_interval_damped": (
        lambda: build_wave(UNIT_INTERVAL, 0.7), 200, 0.5, (0.5, 0.25),
        (0.1684612555615293, 0.0, -0.44442823451428837, 0.0, 60.42723654610538)),
    "wave_piecewise_damped": (
        lambda: build_wave(UNIT_INTERVAL, 0.7, rho=([0.5], [1.0, 4.0])),
        200, 0.5, (0.5, 0.25),
        (0.11638686164120675, 0.0, -0.00013012161511740915, 0.0, 91.906758562916)),
    "path_graph_d8": (
        CORPUS["path_graph_d8"].system, 100, 0.25, (0.4, 0.25),
        (0.21336133461920612, 0.0, -0.3005213222207426, 0.0, 27.31172642347518)),
    "transport_periodic": (
        CORPUS["transport_periodic"].system, 200, 0.5, (0.5, 0.3),
        (0.27421495734837104, 0.0, 0.0, 0.0, 72.41401935215526)),
    "wave_halfline_u05": (
        CORPUS["wave_halfline_u05"].system, 400, 1.5, (3.0, 2.0),
        (1.9111780156681606, 0.0, -0.032107179700667995, 0.0, 186.24487067958478)),
}


@pytest.mark.parametrize("name", sorted(SEED_RUNS))
def test_simulation_matches_recorded_seed_runs(name):
    build, nx, t_final, (center, width), expected = SEED_RUNS[name]
    sys = build()
    tr = simulate(sys, smooth_bump(center, width, sys.dim_d), t_final=t_final,
                  nx=nx, cfl=0.45, snapshot_times=[t_final / 2])
    got = (tr.energy[-1], np.max(tr.boundary_power), np.min(tr.boundary_power),
           tr.max_violation, np.sum(np.abs(tr.final_state)))
    # relative agreement; values recorded as exactly 0 get 1e-12 * E0
    floor = 1e-12 * tr.energy[0]
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12, abs=floor)
    assert tr.final_state.shape == (sys.dim_d, nx)
    assert len(tr.snapshots) == 1
    assert tr.snapshots[0][1].shape == (sys.dim_d, nx)


def _energy_certificate(name):
    """lambda_max(Herm(h Hb A_h)) and ||h Hb A_h|| of the stepping operator."""
    A, Hb, h, _ = _semidiscrete_operator(CORPUS[name].system(), nx=100)
    M = (h * (Hb @ A)).toarray()
    lam = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1]
    return lam, np.linalg.norm(M, 2)


@pytest.mark.parametrize("name", ["wave_interval_damped", "transport_periodic",
                                  "transport_inflow", "path_graph_d8",
                                  "wave_halfline_u05"])
def test_semidiscrete_operator_is_dissipative(name):
    lam, norm = _energy_certificate(name)
    assert lam <= 1e-12 * norm


def test_semidiscrete_operator_certificate_flags_growth():
    lam, _ = _energy_certificate("wave_interval_antidamped")
    assert lam > 0.0
